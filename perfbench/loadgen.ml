(* One benchmark run: build the seeded population, drive the real
   `serve --socket` daemon with one workload, check every answer, and
   print the end-to-end metrics (--trace 0) or the per-layer metrics of
   a separate in-process replay (--trace 1) as the last output line.

   usage: loadgen.exe --workload NAME --seed N --seconds S --trace 0|1
                      --daemon CELLSCHED_CLI_EXE --dir RUN_DIR *)

let usage () =
  prerr_endline
    "usage: loadgen.exe --workload warm-hits|cold-solves --seed N --seconds S \
     --trace 0|1 --daemon EXE --dir RUN_DIR";
  exit 2

type workload = {
  name : string;
  clients : int;  (** client connections *)
  depth : int;  (** requests each client keeps in flight (closed loop) *)
  domains : int;  (** daemon --parallel (1: no pool) *)
  warm : bool;  (** daemon starts on a cache holding the whole population *)
  budget_share : float option;
      (** --cache-bytes as a share of the population's cache bytes *)
  skew : float option;  (** zipf stream; [None]: whole passes, no repeats *)
  limit_ms : float;  (** latency limit of slo_met_share *)
}

(* warm-hits loads only the per-request fixed cost (every reply a hit,
   the solvers idle); cold-solves only the solvers (no fingerprint
   repeats, so the hit path is a sliver of each request). README.md
   records the reasons and the prediction table. *)
let workloads =
  [
    {
      name = "warm-hits";
      clients = 2;
      depth = 8;
      domains = 1;
      warm = true;
      budget_share = None;
      skew = Some 1.1;
      limit_ms = 20.;
    };
    {
      name = "cold-solves";
      clients = 2;
      depth = 1;
      domains = 2;
      warm = false;
      budget_share = Some 0.5;
      skew = None;
      limit_ms = 250.;
    };
  ]

(* Traced in-process replay: at most this long, then the same prefix
   untraced. *)
let replay_budget_s = 4.

let rec remove_tree path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* The zipf stream of a workload, or its pass [pass] of the population. *)
let stream w pop ~seed ~requests ~pass =
  match w.skew with
  | Some skew -> Population.zipf pop ~seed ~skew ~requests
  | None -> Population.permutation pop ~seed:(seed + pass)

let feeder (items : Population.item array) ~cycle =
  let i = ref 0 in
  fun () ->
    if (not cycle) && !i >= Array.length items then None
    else
      let it = items.(!i mod Array.length items) in
      incr i;
      Some (it.Population.problem, it.Population.line)

(* --- daemon phases -------------------------------------------------------- *)

(* The machine is a virtual one on a shared host, and the host's own
   load (steal time in /proc/stat) slows every wall-clock figure by a
   multiple of the share it takes. Traffic is therefore measured in
   units — half-second windows of the warm closed loop, whole cold
   passes — each with the steal share it suffered. A run keeps measuring
   until it holds [seconds] of units with at most [quiet_steal] steal, or
   [cap_factor] x [seconds] have passed, and reports the least-disturbed
   units that together cover [seconds]. Every unit's answers are
   checked, chosen or not. *)
let quiet_steal = 0.03
let cap_factor = 3.
let window_s = 0.5

(* Start-up timings taken beside each unit. *)
let setups_per_unit = 3

type measured_unit = {
  samples : Wire.sample list;
  duration : float;  (** seconds of measured traffic *)
  cpu : float;  (** daemon user+sys seconds over the unit *)
  steal : float;  (** share of the machine's time its host took *)
  session : int;  (** which daemon served it *)
  setups : float list;  (** start-up times of daemons spawned beside it *)
}

type session = {
  rss_mb : float;  (** VmHWM when the daemon stopped *)
  metrics : (string, float) Hashtbl.t;  (** METRICS scrape at its end *)
}

let daemon_args w ~budget =
  (if w.domains > 1 then [ Printf.sprintf "--parallel=%d" w.domains ] else [])
  @ (if w.warm then [ "--cache"; "cache.json" ] else [])
  @ (match budget with Some b -> [ "--cache-bytes"; string_of_int b ] | None -> [])
  @ [ "--flush-period"; "0" ]

(* Spawn a daemon and time it to readiness: the PONG and, on a warm
   daemon, one answered hit per graph file so every graph is loaded. *)
let start ?(socket = "cs.sock") ~exe w ~budget ~preload () =
  let t0 = Clock.now () in
  let d = Daemon_proc.spawn ~exe ~socket ~log:"daemon.log" (daemon_args w ~budget) in
  let conns = ref [||] in
  match
    conns :=
      Array.init w.clients (fun _ -> Wire.conn (Daemon_proc.connect d ~timeout:60.));
    Wire.ping !conns.(0);
    List.iteri
      (fun k line -> Wire.send !conns.(0) (Printf.sprintf "id=preload%d %s\n" k line))
      preload;
    Wire.collect !conns.(0) ~timeout:60. (List.length preload)
    |> List.iter (fun r ->
           if r.Wire.status <> Wire.Ok then failwith ("preload refused: " ^ r.Wire.body))
  with
  | () -> (d, !conns, Clock.now () -. t0)
  | exception e ->
      Array.iter (fun c -> Unix.close c.Wire.fd) !conns;
      Daemon_proc.stop d;
      raise e

let stop d conns =
  Array.iter (fun c -> try Unix.close c.Wire.fd with Unix.Unix_error _ -> ()) conns;
  Daemon_proc.stop d

type outcome = {
  units : measured_unit list;  (** every unit, in measurement order *)
  chosen : measured_unit list;  (** the ones the metrics are computed from *)
  sessions : session list;
}

(* The least-disturbed units that together cover [seconds]. *)
let choose ~seconds units =
  let rec take acc covered = function
    | u :: rest when covered < seconds -> take (u :: acc) (covered +. u.duration) rest
    | _ -> List.rev acc
  in
  take [] 0. (List.stable_sort (fun a b -> compare a.steal b.steal) units)

let run_units ~exe ~seed ~seconds ~cap w pop ~budget =
  let preload =
    if not w.warm then []
    else
      (* The first population problem of every graph file. *)
      let seen = Hashtbl.create 32 in
      Array.to_list pop.Population.problems
      |> List.mapi (fun i (r : Service.Request.t) -> (i, r.Service.Request.label))
      |> List.filter_map (fun (i, label) ->
             if Hashtbl.mem seen label then None
             else (
               Hashtbl.add seen label ();
               Some pop.Population.lines.(i)))
  in
  (* Start-up is timed beside each unit, so the setups reported are the
     ones made under the same host conditions as the traffic chosen. *)
  let probe_setups () =
    List.init setups_per_unit (fun _ ->
        let d, conns, s = start ~socket:"setup.sock" ~exe w ~budget ~preload () in
        stop d conns;
        s)
  in
  let sessions = ref [] in
  (* One daemon from spawn to stop; its peak memory and a METRICS scrape
     are taken before it stops. *)
  let session f =
    let d, conns, _ = start ~exe w ~budget ~preload () in
    let id = List.length !sessions in
    Fun.protect
      ~finally:(fun () -> stop d conns)
      (fun () ->
        f id d conns;
        let rss_mb = Daemon_proc.peak_rss_mb d in
        let metrics = Daemon_proc.parse_metrics (Wire.scrape conns.(0)) in
        sessions := { rss_mb; metrics } :: !sessions)
  in
  let units = ref [] in
  let measure id d conns ~next ~until =
    let reading () = (Daemon_proc.cpu_seconds d, Daemon_proc.host_ticks ()) in
    let cpu0, (s0, t0) = reading () and c0 = Clock.now () in
    let samples = Wire.closed_loop ~depth:w.depth conns ~next ~until:(until ()) in
    let duration = Clock.now () -. c0 in
    let cpu1, (s1, t1) = reading () in
    let steal = (s1 -. s0) /. Float.max 1. (t1 -. t0) in
    let setups = probe_setups () in
    units :=
      { samples; duration; cpu = cpu1 -. cpu0; steal; session = id; setups } :: !units
  in
  let began = Clock.now () in
  let more () =
    let covered quiet =
      List.fold_left
        (fun a u -> if u.steal <= quiet then a +. u.duration else a)
        0. !units
    in
    covered infinity < seconds
    || (covered quiet_steal < seconds && Clock.now () -. began < cap)
  in
  (match w.skew with
  | None ->
      (* A fresh empty daemon per whole pass over a new permutation:
         every pass solves the same problems, so passes differ only in
         order and timing. *)
      let pass = ref 0 in
      while more () do
        let items = stream w pop ~seed ~requests:0 ~pass:!pass in
        incr pass;
        session (fun id d conns ->
            measure id d conns ~next:(feeder items ~cycle:false) ~until:(fun () -> infinity))
      done
  | Some _ ->
      let next = feeder (stream w pop ~seed ~requests:100_000 ~pass:0) ~cycle:true in
      session (fun id d conns ->
          while more () do
            measure id d conns ~next ~until:(fun () -> Clock.now () +. window_s)
          done));
  let units = List.rev !units in
  { units; chosen = choose ~seconds units; sessions = List.rev !sessions }

(* --- checks --------------------------------------------------------------- *)

type verdict = {
  attempted : int;
  failed : int;
  mismatches : string list;  (** answer-check failures: they fail the run *)
  periods : (int, float) Hashtbl.t;  (** checked period per problem answered *)
  latencies : float array;  (** every answered request, sorted *)
  good : float array;  (** answered ok and checked, sorted *)
}

let check_samples reference pop w samples =
  let source = if w.warm then "cache" else "solver" in
  let checked = Hashtbl.create 256 in
  let periods = Hashtbl.create 64 in
  let mismatches = ref [] and failed = ref 0 in
  let good = ref [] and answered = ref [] in
  List.iter
    (fun (s : Wire.sample) ->
      match s.Wire.reply with
      | None -> incr failed
      | Some r -> (
          answered := s.Wire.latency :: !answered;
          match r.Wire.status with
          | Wire.Ok -> (
              let key = (s.Wire.problem, r.Wire.body) in
              let verdict =
                match Hashtbl.find_opt checked key with
                | Some v -> v
                | None ->
                    let v =
                      Check.body reference pop ~problem:s.Wire.problem ~source r.Wire.body
                    in
                    Hashtbl.add checked key v;
                    (match v with
                    | Error m ->
                        mismatches :=
                          Printf.sprintf "%s: %s" pop.Population.lines.(s.Wire.problem) m
                          :: !mismatches
                    | Ok _ -> ());
                    v
              in
              match verdict with
              | Ok period ->
                  Hashtbl.replace periods s.Wire.problem period;
                  good := s.Wire.latency :: !good
              | Error _ -> incr failed)
          | _ -> incr failed))
    samples;
  {
    attempted = List.length samples;
    failed = !failed;
    mismatches = List.rev !mismatches;
    periods;
    latencies = Stats.sorted !answered;
    good = Stats.sorted !good;
  }

(* Fingerprints repeated within one daemon's lifetime. *)
let repeats units =
  let seen = Hashtbl.create 97 in
  List.fold_left
    (fun acc u ->
      List.fold_left
        (fun acc (s : Wire.sample) ->
          if Hashtbl.mem seen (u.session, s.Wire.problem) then acc + 1
          else (
            Hashtbl.add seen (u.session, s.Wire.problem) ();
            acc))
        acc u.samples)
    0 units

(* Geometric mean over the distinct problems answered of the reported
   period over the combinatorial root bound. *)
let period_over_bound pop periods =
  let logs =
    Hashtbl.fold
      (fun problem period acc ->
        Float.log (period /. Check.root_bound pop.Population.problems.(problem)) :: acc)
      periods []
  in
  Float.exp (List.fold_left ( +. ) 0. logs /. float_of_int (List.length logs))

let print_result ~correct ~attempted ~failed metrics =
  List.iter (fun (n, u, x) -> Printf.printf "  %-32s %16.6f %s\n" n x u) metrics;
  let body =
    String.concat ", "
      (List.map
         (fun (name, unit, value) ->
           Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" name value unit)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed body

let main ~w ~seed ~seconds ~trace ~exe =
  Population.write_graphs ~seed;
  let graph_files = List.map fst (Population.graphs ~seed) in
  let pop = Population.create ~seed in
  let reference, fiber_ns =
    Par.Pool.with_pool ~size:2 (fun pool ->
        let reference = Check.reference ~pool pop in
        (reference, if trace then Layers.fiber_spawn_await_ns pool else 0.))
  in
  let shard = reference.Check.shard in
  Result.get_ok (Service.Shard.save_files ~force:true shard "population.json");
  if w.warm then Result.get_ok (Service.Shard.save_files ~force:true shard "cache.json");
  let budget =
    Option.map
      (fun share ->
        max 1 (int_of_float (share *. float_of_int (Service.Shard.bytes_used shard))))
      w.budget_share
  in
  (* The traced run needs the daemon's own counters, not steady
     timings: it measures [seconds] without waiting for quiet units. *)
  let cap = if trace then seconds else cap_factor *. seconds in
  let outcome = run_units ~exe ~seed ~seconds ~cap w pop ~budget in
  let samples units = List.concat_map (fun u -> u.samples) units in
  (* Every answer is checked; the metrics come from the chosen units. *)
  let v = check_samples reference pop w (samples outcome.units) in
  let c = check_samples reference pop w (samples outcome.chosen) in
  let sum f = List.fold_left (fun a u -> a +. f u) 0. outcome.chosen in
  let repeated = if w.skew = None then repeats outcome.units else 0 in
  List.iter (fun m -> Printf.printf "MISMATCH %s\n" m) v.mismatches;
  if repeated > 0 then Printf.printf "FAIL %d repeated fingerprints\n" repeated;
  let q, tail =
    Stats.grouped_tail
      (List.map
         (fun u ->
           List.filter_map
             (fun (s : Wire.sample) ->
               if Option.is_some s.Wire.reply then Some s.Wire.latency else None)
             u.samples)
         outcome.chosen)
  in
  let setups = List.concat_map (fun u -> u.setups) outcome.chosen in
  let steals units =
    String.concat " " (List.map (fun u -> Printf.sprintf "%.1f" (u.steal *. 100.)) units)
  in
  Printf.printf
    "%s seed=%d: %d sent, %d failed (failed_share %.4f), %d distinct problems \
     answered, %d daemon(s) measured\n\
     units (host steal %%): %s\n\
     chosen: %s = %.2f s; tail = p%g of %d replies, in groups of >= 1000\n\
     setup ms: %s\n"
    w.name seed v.attempted v.failed
    (float_of_int v.failed /. float_of_int (max 1 v.attempted))
    (Hashtbl.length v.periods) (List.length outcome.sessions) (steals outcome.units)
    (steals outcome.chosen)
    (sum (fun u -> u.duration))
    (q *. 100.) (Array.length c.latencies)
    (String.concat " "
       (List.map (Printf.sprintf "%.2f")
          (Array.to_list (Stats.sorted (List.map (( *. ) 1e3) setups)))));
  let correct = v.mismatches = [] && repeated = 0 in
  if not trace then
    let ms x = x *. 1e3 in
    let met = Array.fold_left (fun a l -> if ms l <= w.limit_ms then a + 1 else a) 0 c.good in
    ( correct,
      v,
      [
        ("setup_s", "s", Stats.median setups);
        ("throughput_rps", "1/s", float_of_int (Array.length c.good) /. sum (fun u -> u.duration));
        ("latency_p50_ms", "ms", ms (Stats.percentile c.latencies 0.5));
        ("latency_tail_ms", "ms", ms tail);
        ("slo_met_share", "share", float_of_int met /. float_of_int (max 1 c.attempted));
        ("period_over_bound", "ratio", period_over_bound pop v.periods);
        ( "daemon_cpu_ms_per_req",
          "ms",
          ms (sum (fun u -> u.cpu)) /. float_of_int (max 1 (Array.length c.latencies)) );
        ( "daemon_peak_rss_mb",
          "MB",
          List.fold_left (fun a s -> Float.max a s.rss_mb) 0. outcome.sessions );
      ] )
  else
    let items = stream w pop ~seed ~requests:5000 ~pass:0 in
    let cache = if w.warm then Layers.Warm "population.json" else Layers.Budget budget in
    let metrics, replay_mismatches =
      Layers.measure ~pop ~items ~cache ~graph_files ~reference ~fiber_ns
        ~scrapes:(List.map (fun s -> s.metrics) outcome.sessions)
        ~budget_s:replay_budget_s
    in
    if replay_mismatches > 0 then
      Printf.printf "MISMATCH %d in-process replay replies differ from the reference\n"
        replay_mismatches;
    (correct && replay_mismatches = 0, v, metrics)

let () =
  let rec opts acc = function
    | key :: v :: rest when String.starts_with ~prefix:"--" key -> opts ((key, v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = opts [] (List.tl (Array.to_list Sys.argv)) in
  let get key = match List.assoc_opt key opts with Some v -> v | None -> usage () in
  let w =
    match List.find_opt (fun w -> w.name = get "--workload") workloads with
    | Some w -> w
    | None -> usage ()
  in
  let int key = match int_of_string_opt (get key) with Some n -> n | None -> usage () in
  let seed = int "--seed" and seconds = int "--seconds" in
  let trace = match get "--trace" with "0" -> false | "1" -> true | _ -> usage () in
  let exe = get "--daemon" and dir = get "--dir" in
  if seconds <= 0 then usage ();
  let home = Sys.getcwd () in
  remove_tree dir;
  Unix.mkdir dir 0o755;
  Sys.chdir dir;
  match main ~w ~seed ~seconds:(float_of_int seconds) ~trace ~exe with
  | correct, v, metrics ->
      Sys.chdir home;
      remove_tree dir;
      print_result ~correct ~attempted:v.attempted ~failed:v.failed metrics
  | exception e ->
      Sys.chdir home;
      remove_tree dir;
      Printf.eprintf "perfbench: %s\n" (Printexc.to_string e);
      exit 1
