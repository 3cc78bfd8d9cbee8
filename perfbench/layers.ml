(* Per-layer metrics, measured from outside: a workload's stream is
   replayed in-process through the public functions of each layer the
   daemon calls, every call wrapped with the monotonic clock and a
   [Gc.minor_words] delta. The same replay without the wrappers gives
   the tracing overhead. *)

module Batch = Service.Batch
module Request = Service.Request
module Shard = Service.Shard

type acc = { mutable calls : int; mutable secs : float; mutable words : float }

let acc () = { calls = 0; secs = 0.; words = 0. }

(* Time one call; it counts towards [a] only when [keep] holds of its
   result. *)
let timed ?(keep = fun _ -> true) a f =
  let w0 = Gc.minor_words () in
  let t0 = Clock.now () in
  let v = f () in
  let secs = Clock.now () -. t0 and words = Gc.minor_words () -. w0 in
  if keep v then begin
    a.secs <- a.secs +. secs;
    a.words <- a.words +. words;
    a.calls <- a.calls + 1
  end;
  v

(* Means over the calls made; 0 when the workload made none. *)
let per_call scale a = if a.calls = 0 then 0. else a.secs *. scale /. float_of_int a.calls
let us = per_call 1e6
let ms = per_call 1e3
let words a = if a.calls = 0 then 0. else a.words /. float_of_int a.calls

type replay = {
  parse : acc;
  hit_path : acc;
  render : acc;
  solve : acc;  (* solver + [Batch.solved_response_view] *)
  portfolio : acc;
  bb : acc;
  mutable bb_nodes : int;
  mutable bb_closed : int;
  mutable mismatches : int;
}

let fresh_replay () =
  {
    parse = acc ();
    hit_path = acc ();
    render = acc ();
    solve = acc ();
    portfolio = acc ();
    bb = acc ();
    bb_nodes = 0;
    bb_closed = 0;
    mismatches = 0;
  }

(* The daemon's path for one request line, layer by layer: protocol
   parse, hit path, on a miss the solver the request names (as
   [Batch.solve_request] dispatches it) and the cache insert, then the
   reply render. Each rendered body is compared with the reference. *)
let serve_line ~traced (x : replay) ~view ~load_graph (reference : Check.reference)
    k (it : Population.item) =
  let wrap ?keep a f = if traced then timed ?keep a f else f () in
  let id = Printf.sprintf "r%d" k in
  let r =
    match
      wrap x.parse (fun () ->
          Daemon.Protocol.parse ~load_graph 0 (Printf.sprintf "id=%s %s" id it.Population.line))
    with
    | Daemon.Protocol.Command (Daemon.Protocol.Submit { request; _ }) -> request
    | _ -> failwith ("replay: unparsable line " ^ it.Population.line)
  in
  let response, expected =
    match
      wrap ~keep:Option.is_some x.hit_path (fun () -> Batch.try_cache_view ~view r)
    with
    | Some resp -> (resp, reference.Check.hit.(it.Population.problem))
    | None ->
        let p = r.Request.platform and g = r.Request.graph in
        let resp =
          wrap x.solve (fun () ->
              let result =
                match r.Request.strategy with
                | Request.Portfolio { seed; restarts } ->
                    let res =
                      wrap x.portfolio (fun () ->
                          Cellsched.Portfolio.solve ~seed ~restarts p g)
                    in
                    ( Cellsched.Mapping.to_array res.Cellsched.Portfolio.best,
                      res.Cellsched.Portfolio.period )
                | Request.Bb { rel_gap; max_nodes } ->
                    let options =
                      {
                        Cellsched.Mapping_search.default_options with
                        rel_gap;
                        max_nodes;
                        time_limit = 3600.;
                      }
                    in
                    let res =
                      wrap x.bb (fun () -> Cellsched.Mapping_search.solve ~options p g)
                    in
                    x.bb_nodes <- x.bb_nodes + res.Cellsched.Mapping_search.nodes;
                    if res.Cellsched.Mapping_search.optimal_within_gap then
                      x.bb_closed <- x.bb_closed + 1;
                    ( Cellsched.Mapping.to_array res.Cellsched.Mapping_search.mapping,
                      res.Cellsched.Mapping_search.period )
              in
              Batch.solved_response_view ~view r result)
        in
        (resp, reference.Check.solved.(it.Population.problem))
  in
  let reply =
    wrap x.render (fun () -> Daemon.Protocol.render_reply ~id ~partial:false response)
  in
  if not (String.equal reply (Printf.sprintf "BEGIN %s ok\n%sEND %s\n" id expected id))
  then x.mismatches <- x.mismatches + 1

type cache_start = Warm of string | Budget of int option

let start_shard = function
  | Warm file -> Shard.load_files file
  | Budget max_bytes -> Shard.create ?max_bytes ()

let replay ~traced ~cache ~load_graph reference items ~stop =
  let x = fresh_replay () in
  let view = Shard.view (start_shard cache) in
  let t0 = Clock.now () in
  let n = ref 0 in
  while !n < Array.length items && not (stop !n (Clock.now () -. t0)) do
    serve_line ~traced x ~view ~load_graph reference !n items.(!n);
    incr n
  done;
  (x, !n, Clock.now () -. t0)

(* A first untraced replay warms the heap and the caches and fixes how
   many items fit in [budget_s]; the traced replay and a second
   untraced one then serve exactly those. Returns the traced counters,
   the item count, the traced and untraced wall times and the replies
   that differed from the reference. *)
let replay_pair ~cache ~load_graph reference items ~budget_s =
  let replay ~traced ~stop = replay ~traced ~cache ~load_graph reference items ~stop in
  let warm, n, _ = replay ~traced:false ~stop:(fun _ elapsed -> elapsed >= budget_s) in
  let traced, _, traced_wall = replay ~traced:true ~stop:(fun k _ -> k >= n) in
  let plain, _, plain_wall = replay ~traced:false ~stop:(fun k _ -> k >= n) in
  (traced, n, traced_wall, plain_wall, warm.mismatches + traced.mismatches + plain.mismatches)

(* Repeat [f] until [min_s] has passed; seconds per call. *)
let repeat ~min_s f =
  let t0 = Clock.now () in
  let n = ref 0 in
  while Clock.now () -. t0 < min_s do
    f ();
    incr n
  done;
  (Clock.now () -. t0) /. float_of_int !n

let distinct (pop : Population.t) items =
  let seen = Hashtbl.create 97 in
  Array.to_list items
  |> List.filter_map (fun (it : Population.item) ->
         if Hashtbl.mem seen it.Population.problem then None
         else (
           Hashtbl.add seen it.Population.problem ();
           Some pop.Population.problems.(it.Population.problem)))

let serialize_us_per_task graph_files =
  let texts =
    List.map (fun f -> In_channel.with_open_bin f In_channel.input_all) graph_files
  in
  let tasks =
    List.fold_left
      (fun a t -> a + Streaming.Graph.n_tasks (Streaming.Serialize.of_string t))
      0 texts
  in
  repeat ~min_s:0.3 (fun () ->
      List.iter (fun t -> ignore (Streaming.Serialize.of_string t)) texts)
  *. 1e6 /. float_of_int tasks

(* Probe every single-task move from the GreedyMem mapping. *)
let probe_move_ns problems =
  let probes = ref 0 and secs = ref 0. in
  List.iter
    (fun (r : Request.t) ->
      let p = r.Request.platform and g = r.Request.graph in
      let e = Cellsched.Eval.create p g (Cellsched.Heuristics.greedy_mem p g) in
      let n_pes = Cell.Platform.n_pes p and n = Streaming.Graph.n_tasks g in
      let per_sweep =
        repeat ~min_s:0.01 (fun () ->
            for task = 0 to n - 1 do
              for pe = 0 to n_pes - 1 do
                if pe <> Cellsched.Eval.pe_of e task then
                  ignore (Cellsched.Eval.probe_move e ~task ~pe)
              done
            done)
      in
      secs := !secs +. per_sweep;
      probes := !probes + (n * (n_pes - 1)))
    problems;
  !secs *. 1e9 /. float_of_int !probes

(* Local search from the GreedyMem mapping, on the problems where that
   start is feasible (the function's precondition). *)
let local_search_ms problems =
  let a = acc () in
  List.iter
    (fun (r : Request.t) ->
      let p = r.Request.platform and g = r.Request.graph in
      let m = Cellsched.Heuristics.greedy_mem p g in
      if Cellsched.Steady_state.feasible p g m then
        ignore (timed a (fun () -> Cellsched.Heuristics.local_search p g m)))
    problems;
  ms a

let fiber_spawn_await_ns pool =
  let n = 2000 in
  let per_batch =
    repeat ~min_s:0.2 (fun () ->
        Par.Fiber.run pool (fun () ->
            for i = 1 to n do
              ignore (Par.Fiber.await (Par.Fiber.spawn (fun () -> i)))
            done))
  in
  per_batch *. 1e9 /. float_of_int n

(* Summed daemon counters of every measured daemon. *)
let scraped scrapes key =
  List.fold_left
    (fun a m -> a +. Option.value (Hashtbl.find_opt m key) ~default:0.)
    0. scrapes

let stage_ms scrapes stage =
  let key suffix = Printf.sprintf "daemon_stage_seconds_%s{stage=\"%s\"}" suffix stage in
  let count = scraped scrapes (key "count") in
  if count = 0. then 0. else scraped scrapes (key "sum") *. 1e3 /. count

let measure ~pop ~items ~cache ~graph_files ~reference ~fiber_ns ~scrapes ~budget_s =
  let load_graph = Population.loader () in
  List.iter (fun f -> ignore (load_graph f)) graph_files;
  let x, n, traced_wall, plain_wall, mismatches =
    replay_pair ~cache ~load_graph reference items ~budget_s
  in
  let replayed = Array.sub items 0 n in
  let requests =
    Array.map
      (fun (it : Population.item) -> pop.Population.problems.(it.Population.problem))
      replayed
  in
  let fp = acc () and order = acc () and canon_fp = acc () in
  Array.iter
    (fun (r : Request.t) ->
      ignore (timed fp (fun () -> Request.fingerprint r));
      ignore (timed order (fun () -> Streaming.Canonical.order r.Request.graph));
      ignore (timed canon_fp (fun () -> Streaming.Canonical.fingerprint r.Request.graph)))
    requests;
  (* Cache traffic alone: every population entry added to an empty
     shard of the workload's budget, then the stream probed against it. *)
  let add = acc () and find = acc () in
  let scratch =
    Shard.create ?max_bytes:(match cache with Budget b -> b | Warm _ -> None) ()
  in
  Array.iter
    (fun (r : Request.t) ->
      match Shard.find reference.Check.shard (Request.fingerprint r) with
      | Some e -> timed add (fun () -> Shard.add scratch e)
      | None -> failwith "reference shard misses a population problem")
    pop.Population.problems;
  Array.iter
    (fun (r : Request.t) ->
      let key = Request.fingerprint r in
      ignore (timed find (fun () -> Shard.find scratch key)))
    requests;
  let load_ms =
    Stats.median
      (List.init 5 (fun _ ->
           let t0 = Clock.now () in
           ignore (Shard.load_files "population.json");
           (Clock.now () -. t0) *. 1e3))
  in
  let problems = distinct pop replayed in
  let requests_total = scraped scrapes "daemon_requests_total" in
  let bb_s = x.bb.secs in
  let metrics =
    [
      ("serialize.parse_us_per_task", "us", serialize_us_per_task graph_files);
      ("canonical.order_us", "us", us order);
      ("canonical.fingerprint_us", "us", us canon_fp);
      ("request.fingerprint_us", "us", us fp);
      ("request.fingerprint_minor_words", "words", words fp);
      ("protocol.parse_us", "us", us x.parse);
      ("protocol.render_reply_us", "us", us x.render);
      ("shard.find_us", "us", us find);
      ("shard.add_us", "us", us add);
      ("shard.load_files_ms", "ms", load_ms);
      ( "cache.hit_ratio",
        "share",
        if requests_total = 0. then 0.
        else scraped scrapes "daemon_hits_total" /. requests_total );
      ("cache.evictions", "count", scraped scrapes "svc_cache_evicted_total");
      ("batch.hit_path_us", "us", us x.hit_path);
      ("batch.hit_path_minor_words", "words", words x.hit_path);
      ("batch.transport_rejects", "count", scraped scrapes "svc_transport_rejects_total");
      ("batch.solve_ms", "ms", ms x.solve);
      ("portfolio.solve_ms", "ms", ms x.portfolio);
      ("local_search_ms", "ms", local_search_ms problems);
      ("bb.solve_ms", "ms", ms x.bb);
      ( "bb.nodes",
        "count",
        if x.bb.calls = 0 then 0. else float_of_int x.bb_nodes /. float_of_int x.bb.calls );
      ("bb.nodes_per_s", "1/s", if bb_s = 0. then 0. else float_of_int x.bb_nodes /. bb_s);
      ( "bb.closed_share",
        "share",
        if x.bb.calls = 0 then 0. else float_of_int x.bb_closed /. float_of_int x.bb.calls );
      ("eval.probe_move_ns", "ns", probe_move_ns problems);
      ("pool.steals", "count", float_of_int reference.Check.pool_steals);
      ("pool.steal_failures", "count", float_of_int reference.Check.pool_steal_failures);
      ("fiber.spawn_await_ns", "ns", fiber_ns);
      ("server.cache_ms", "ms", stage_ms scrapes "cache");
      ("server.queue_wait_ms", "ms", stage_ms scrapes "queue");
      ("server.solve_ms", "ms", stage_ms scrapes "solve");
      ("server.reply_ms", "ms", stage_ms scrapes "reply");
      ("trace.replayed_requests", "count", float_of_int n);
      ("trace.overhead_share", "share", (traced_wall -. plain_wall) /. plain_wall);
    ]
  in
  (metrics, mismatches)
