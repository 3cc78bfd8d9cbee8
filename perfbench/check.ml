(* Answer checks. Every ok reply must be bitwise equal to the in-process
   [Service.Batch.run] reference for its problem and source, and the
   assignment it carries must re-evaluate under [Steady_state] as
   feasible with a period bitwise equal to the reported one. Replies
   are checked per distinct (problem, body) pair: equal bytes evaluate
   equally, so this covers every reply. *)

module Batch = Service.Batch
module SS = Cellsched.Steady_state

type reference = {
  solved : string array;  (* body of the solver reply, per problem *)
  hit : string array;  (* body of the cache-hit reply, per problem *)
  shard : Service.Shard.t;  (* every problem's entry *)
  pool_steals : int;  (* work stolen between pool workers while solving *)
  pool_steal_failures : int;
}

let sum_stats pool =
  Array.fold_left
    (fun (s, f) (w : Par.Pool.worker_stats) ->
      (s + w.Par.Pool.stolen, f + w.Par.Pool.steal_failures))
    (0, 0) (Par.Pool.stats pool)

(* Solve the whole population once over [pool] (distinct misses fan
   out as fibers, as in [batch]), then answer it again from the filled
   cache for the hit bodies. *)
let reference ~pool (pop : Population.t) =
  let shard =
    Service.Shard.create ~max_entries:4096 ~max_bytes:(256 lsl 20) ()
  in
  let view = Service.Shard.view shard in
  let requests = Array.to_list pop.Population.problems in
  let s0, f0 = sum_stats pool in
  let solved = Batch.run_view ~pool ~view requests in
  let s1, f1 = sum_stats pool in
  let hit = Batch.run_view ~view requests in
  let bodies source responses =
    Array.of_list
      (List.map
         (fun (r : Batch.response) ->
           if r.Batch.source <> source then
             failwith "reference: unexpected response source";
           Batch.render r)
         responses)
  in
  {
    solved = bodies Batch.Solved solved;
    hit = bodies Batch.Hit hit;
    shard;
    pool_steals = s1 - s0;
    pool_steal_failures = f1 - f0;
  }

(* The fields of a rendered response the checks need. *)
type parsed = { source : string; period : float; assignment : int array }

let parse_body (r : Service.Request.t) body =
  let p = r.Service.Request.platform and g = r.Service.Request.graph in
  let pe_of_name = Hashtbl.create 16 in
  for pe = 0 to Cell.Platform.n_pes p - 1 do
    Hashtbl.replace pe_of_name (Cell.Platform.pe_name p pe) pe
  done;
  let assignment = Array.make (Streaming.Graph.n_tasks g) (-1) in
  let source = ref "" and period = ref nan in
  List.iter
    (fun l ->
      match String.index_opt l ':' with
      | _ when l = "" || l.[0] = '#' -> ()
      | None -> failwith ("unparsable reply line: " ^ l)
      | Some i -> (
          let key = String.sub l 0 i
          and v = String.trim (String.sub l (i + 1) (String.length l - i - 1)) in
          match key with
          | "source" -> source := v
          | "period" -> period := Scanf.sscanf v "%f s" Fun.id
          | "fingerprint" | "feasible" | "throughput" | "bottleneck" -> ()
          | pe_name -> (
              match Hashtbl.find_opt pe_of_name pe_name with
              | None -> failwith ("unknown PE in reply: " ^ pe_name)
              | Some pe ->
                  String.split_on_char ' ' v
                  |> List.iter (fun name ->
                         let k = Streaming.Graph.find_task g name in
                         if assignment.(k) <> -1 then
                           failwith ("task placed twice: " ^ name);
                         assignment.(k) <- pe))))
    (String.split_on_char '\n' body);
  if Array.exists (fun pe -> pe < 0) assignment then
    failwith "reply leaves a task unplaced";
  { source = !source; period = !period; assignment }

(* [Ok period] when the body passes every check, [Error reason]
   otherwise. [source] is the one the workload requires: "cache" or
   "solver". *)
let body ref_ (pop : Population.t) ~problem ~source text =
  let r = pop.Population.problems.(problem) in
  match parse_body r text with
  | exception Failure m -> Error m
  | exception Not_found -> Error "reply names an unknown task"
  | parsed -> (
      let p = r.Service.Request.platform and g = r.Service.Request.graph in
      let m = Cellsched.Mapping.make p g parsed.assignment in
      let period = SS.period p (SS.loads p g m) in
      let expected =
        match parsed.source with
        | "cache" -> Some ref_.hit.(problem)
        | "solver" -> Some ref_.solved.(problem)
        | _ -> None
      in
      match expected with
      | None -> Error ("unknown source " ^ parsed.source)
      | Some _ when source <> parsed.source ->
          Error ("source " ^ parsed.source ^ " where the workload requires " ^ source)
      | Some e when not (String.equal e text) ->
          Error "reply differs from the in-process Batch.run reference"
      | Some _ when not (SS.feasible p g m) -> Error "assignment is infeasible"
      | Some _
        when Int64.bits_of_float period <> Int64.bits_of_float parsed.period ->
          Error
            (Printf.sprintf "re-evaluated period %.17g <> reported %.17g" period
               parsed.period)
      | Some _ -> Ok parsed.period)

let root_bound (r : Service.Request.t) =
  Cellsched.Bounds.root_bound
    (Cellsched.Bounds.create r.Service.Request.platform r.Service.Request.graph)
