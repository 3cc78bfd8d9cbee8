(* Contention-hammer suite for the traffic layer (the locked serving
   cache lib/service/shard + the workload generator lib/service/workload).

   The claims pinned here:

   (a) replies are bitwise identical to a sequential batch for the same
       workload seed at pool sizes 1/2/4;
   (b) hit + miss counters exactly equal the request count even when
       concurrent domains storm the cache with duplicate fingerprints;
   (c) the cache's LRU budget is never exceeded, probed mid-hammer.

   Plus the workload generator's own contracts (determinism, zipf
   concentration, request-line round-trip). *)

module G = Streaming.Graph
module Req = Service.Request
module Cache = Service.Cache
module Shard = Service.Shard
module Batch = Service.Batch
module Wl = Service.Workload
module Pool = Par.Pool

let counter_value name = Obs.Metrics.Counter.value (Obs.Metrics.counter name)

let with_metrics f =
  let was = Obs.Metrics.enabled () in
  Obs.Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.Metrics.set_enabled was) f

let random_graph rng n =
  Daggen.Generator.generate ~rng
    ~shape:
      { Daggen.Generator.n; fat = 0.5; density = 0.4; regularity = 0.5;
        jump = 2 }
    ~costs:Daggen.Generator.default_costs

(* Shared small population: 4 graphs x 2 SPE counts x 1 cheap portfolio
   strategy = 8 distinct problems, small enough that the pools grid
   solves in seconds. *)
let graphs =
  let rng = Support.Rng.create 1905 in
  List.map (fun name -> (name, random_graph rng 6)) [ "gA"; "gB"; "gC"; "gD" ]

let spec ?(seed = 42) ?(requests = 120) ?(skew = 1.1) () =
  {
    Wl.seed;
    requests;
    skew;
    graphs;
    spes = [ 2; 4 ];
    strategies = [ Req.Portfolio { seed = 1234; restarts = 1 } ];
  }

let hex = "0123456789abcdef"
let random_fp rng = String.init 32 (fun _ -> hex.[Support.Rng.int rng 16])

let sample_entry fp =
  {
    Cache.fingerprint = fp;
    strategy = "portfolio:seed=1,restarts=2";
    canonical_assignment = [| 0; 1; 2; 1 |];
    period = 1.25e-3;
    feasible = true;
    throughput = 800.;
    bottleneck = "SPE1 interface (in)";
  }

(* ====================================================================== *)
(* Workload generator                                                     *)
(* ====================================================================== *)

let test_workload_determinism () =
  let s = spec () in
  let a = Wl.lines (Wl.generate s) in
  Alcotest.(check (list string)) "equal specs, byte-equal streams" a
    (Wl.lines (Wl.generate s));
  Alcotest.(check bool) "different seed, different stream" false
    (a = Wl.lines (Wl.generate { s with Wl.seed = 43 }));
  (* The seed permutes popularity ranks; it never changes which distinct
     problems exist. *)
  let fps s =
    Wl.population s |> Array.map Req.fingerprint |> Array.to_list
    |> List.sort compare
  in
  Alcotest.(check (list string)) "population is seed-permuted, not resampled"
    (fps s)
    (fps { s with Wl.seed = 43 });
  Alcotest.(check int) "population = graphs x spes x strategies" 8
    (Array.length (Wl.population s))

let test_workload_skew () =
  let hottest skew =
    let tbl = Hashtbl.create 16 in
    Array.iter
      (fun r ->
        let fp = Req.fingerprint r in
        Hashtbl.replace tbl fp (1 + Option.value ~default:0 (Hashtbl.find_opt tbl fp)))
      (Wl.generate (spec ~requests:400 ~skew ()));
    Hashtbl.fold (fun _ n acc -> max n acc) tbl 0
  in
  Alcotest.(check bool) "higher skew concentrates traffic" true
    (hottest 1.6 > hottest 0.);
  (* A uniform 400-request stream over 8 problems touches all of them
     (deterministic seed, so this is a fixed fact, not a probability). *)
  let seen = Hashtbl.create 16 in
  Array.iter
    (fun r -> Hashtbl.replace seen (Req.fingerprint r) ())
    (Wl.generate (spec ~requests:400 ~skew:0. ()));
  Alcotest.(check int) "uniform stream covers the population" 8
    (Hashtbl.length seen)

let test_workload_roundtrip () =
  (* Every rendered line must parse back onto the same fingerprint —
     that is what makes the CLI [workload] output a faithful replay of
     the in-process stream, for both strategy families. *)
  let s =
    {
      (spec ()) with
      Wl.strategies =
        [
          Req.Portfolio { seed = 7; restarts = 2 };
          Req.Bb { rel_gap = 0.05; max_nodes = 123 };
        ];
    }
  in
  let load_graph name = List.assoc name graphs in
  Array.iter
    (fun r ->
      let line = Wl.line r in
      match Req.parse_line ~load_graph 1 line with
      | Some back ->
          Alcotest.(check string)
            ("round-trip: " ^ line)
            (Req.fingerprint r) (Req.fingerprint back)
      | None -> Alcotest.failf "line did not parse: %s" line)
    (Wl.population s);
  (* A label that would corrupt the line grammar refuses loudly. *)
  let bad =
    let r = (Wl.population s).(0) in
    Req.make ~label:"has space" ~platform:r.Req.platform ~graph:r.Req.graph
      ~strategy:r.Req.strategy ~deadline_ms:r.Req.deadline_ms ~prio:r.Req.prio
  in
  (match Wl.line bad with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "token-unsafe label must refuse");
  (* [~ids] prefixes the daemon framing ids in arrival order. *)
  Wl.lines ~ids:true (Wl.generate (spec ~requests:3 ()))
  |> List.iteri (fun i l ->
         Alcotest.(check bool)
           (Printf.sprintf "id prefix on line %d" i)
           true
           (String.starts_with ~prefix:(Printf.sprintf "id=r%d " i) l))

let test_workload_split () =
  let stream = Wl.generate (spec ~requests:31 ()) in
  let parts = Wl.split ~domains:4 stream in
  Alcotest.(check int) "4 parts" 4 (Array.length parts);
  Alcotest.(check int) "no request lost" 31
    (Array.fold_left (fun acc p -> acc + Array.length p) 0 parts);
  Array.iteri
    (fun d part ->
      Array.iteri
        (fun j r ->
          Alcotest.(check string) "round-robin arrival order"
            (Req.fingerprint stream.(d + (4 * j)))
            (Req.fingerprint r))
        part)
    parts

(* ====================================================================== *)
(* Cache bounds                                                           *)
(* ====================================================================== *)

let test_bound_validation () =
  List.iter
    (fun (max_entries, max_bytes) ->
      match Shard.create ~max_entries ~max_bytes () with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "bounds %d/%d must refuse" max_entries max_bytes)
    [ (0, 4096); (-1, 4096); (10, 0); (10, -1) ]

(* ====================================================================== *)
(* (a) Bitwise identity across pool sizes                                 *)
(* ====================================================================== *)

let render_all responses = String.concat "\n" (List.map Batch.render responses)

let serve ~pool_size requests =
  let view = Shard.view (Shard.create ~max_entries:256 ()) in
  if pool_size = 1 then render_all (Batch.run_view ~view requests)
  else
    let pool = Pool.create ~size:pool_size () in
    Fun.protect
      ~finally:(fun () -> Pool.shutdown pool)
      (fun () -> render_all (Batch.run_view ~pool ~view requests))

let test_bitwise_grid () =
  (* One zipfian stream through a default cache, then through a fresh
     cache at every pool size. Whole rendered transcripts compare
     byte-for-byte. *)
  let requests = Array.to_list (Wl.generate (spec ~requests:60 ())) in
  let reference =
    render_all (Batch.run_view ~view:(Shard.view (Shard.create ())) requests)
  in
  List.iter
    (fun pool_size ->
      Alcotest.(check string)
        (Printf.sprintf "pool=%d" pool_size)
        reference
        (serve ~pool_size requests))
    [ 1; 2; 4 ]

(* ====================================================================== *)
(* (b) Counter conservation under a concurrent duplicate storm            *)
(* ====================================================================== *)

let test_counter_conservation () =
  with_metrics (fun () ->
      let stream = Wl.generate (spec ~requests:200 ~skew:1.3 ()) in
      let parts = Wl.split ~domains:4 stream in
      let view = Shard.view (Shard.create ()) in
      let req0 = counter_value "svc_requests_total"
      and hit0 = counter_value "svc_hits_total"
      and miss0 = counter_value "svc_misses_total" in
      let domains =
        Array.map
          (fun part ->
            Domain.spawn (fun () -> Batch.run_view ~view (Array.to_list part)))
          parts
      in
      let responses = Array.to_list domains |> List.concat_map Domain.join in
      Alcotest.(check int) "every request classified exactly once" 200
        (counter_value "svc_requests_total" - req0);
      (* The conservation law: a request is a hit or a miss, never both,
         never neither — even when two domains race to solve the same
         fingerprint. *)
      Alcotest.(check int) "hits + misses = requests" 200
        (counter_value "svc_hits_total" - hit0
        + (counter_value "svc_misses_total" - miss0));
      Alcotest.(check int) "every reply delivered" 200 (List.length responses);
      (* Duplicate fingerprints must agree bitwise wherever they were
         answered: racing solves are deterministic, so the period bits
         are the same whichever domain's insert won. *)
      let tbl = Hashtbl.create 16 in
      List.iter
        (fun r ->
          let bits = Int64.bits_of_float r.Batch.period in
          let fp = Req.fingerprint r.Batch.request in
          match Hashtbl.find_opt tbl fp with
          | None -> Hashtbl.add tbl fp bits
          | Some b ->
              if not (Int64.equal b bits) then
                Alcotest.failf "duplicate replies differ for %s" fp)
        responses)

(* ====================================================================== *)
(* (c) The budget holds mid-hammer                                        *)
(* ====================================================================== *)

let test_budget_invariant_mid_hammer () =
  let max_entries = 16 and max_bytes = 8192 in
  let t = Shard.create ~max_entries ~max_bytes () in
  let stop = Atomic.make false in
  let violations = Atomic.make 0 in
  (* A dedicated prober races the writers, reading the cache's size
     under its lock: any moment the LRU bound is breached is caught,
     not just the post-hammer steady state. *)
  let prober =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          if Shard.length t > max_entries || Shard.bytes_used t > max_bytes
          then Atomic.incr violations
        done)
  in
  let writers =
    Array.init 3 (fun d ->
        Domain.spawn (fun () ->
            let rng = Support.Rng.create (1000 + d) in
            for _ = 1 to 3000 do
              let fp = random_fp rng in
              Shard.add t (sample_entry fp);
              ignore (Shard.find t fp)
            done))
  in
  Array.iter Domain.join writers;
  Atomic.set stop true;
  Domain.join prober;
  Alcotest.(check int) "no budget violation observed mid-hammer" 0
    (Atomic.get violations);
  Alcotest.(check bool) "within budget after the storm" true
    (Shard.length t <= max_entries && Shard.bytes_used t <= max_bytes)

let () =
  Alcotest.run "traffic"
    [
      ( "workload",
        [
          Alcotest.test_case "seeded determinism" `Quick
            test_workload_determinism;
          Alcotest.test_case "zipf skew concentrates" `Quick test_workload_skew;
          Alcotest.test_case "line round-trip" `Quick test_workload_roundtrip;
          Alcotest.test_case "round-robin split" `Quick test_workload_split;
        ] );
      ( "bounds validation",
        [
          Alcotest.test_case "non-positive bounds refuse" `Quick
            test_bound_validation;
        ] );
      ( "hammer",
        [
          Alcotest.test_case "bitwise identity: pools grid" `Quick
            test_bitwise_grid;
          Alcotest.test_case "counter conservation under duplicate storm"
            `Quick test_counter_conservation;
          Alcotest.test_case "cache budget holds mid-hammer" `Quick
            test_budget_invariant_mid_hammer;
        ] );
    ]
