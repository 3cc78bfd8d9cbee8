(* Tests for the service layer (lib/service): canonical fingerprint
   metamorphic properties, the canonical kernel against its list-based
   reference, cache-hit bitwise equality with fresh solves,
   differential batched-vs-sequential runs, persistence fault
   recovery, and a 10k-task pool hammer against the locked cache. *)

module P = Cell.Platform
module G = Streaming.Graph
module T = Streaming.Task
module Canon = Streaming.Canonical
module M = Cellsched.Mapping
module SS = Cellsched.Steady_state
module Pf = Cellsched.Portfolio
module Search = Cellsched.Mapping_search
module Req = Service.Request
module Cache = Service.Cache
module Shard = Service.Shard
module Batch = Service.Batch
module Pool = Par.Pool

(* Every batch goes through the locked cache, the serving front door. *)
let run ?pool cache requests =
  Batch.run_view ?pool ~view:(Shard.view cache) requests

let bits = Int64.bits_of_float

(* Registration is idempotent by name, so the tests read the very
   counters the service bumps. *)
let svc_counter name = Obs.Metrics.counter name
let counter_value name = Obs.Metrics.Counter.value (svc_counter name)

let with_metrics f =
  let was = Obs.Metrics.enabled () in
  Obs.Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.Metrics.set_enabled was) f

let random_graph ?(fat = 0.5) rng n =
  Daggen.Generator.generate ~rng
    ~shape:{ Daggen.Generator.n; fat; density = 0.4; regularity = 0.5; jump = 2 }
    ~costs:Daggen.Generator.default_costs

(* An isomorphic copy: tasks renamed and reordered by a random
   permutation, edge list shuffled. *)
let relabel rng g =
  let n = G.n_tasks g in
  let perm = Array.init n Fun.id in
  Support.Rng.shuffle rng perm;
  (* perm.(p) = old id of the task now at position p *)
  let pos = Array.make n 0 in
  Array.iteri (fun p old -> pos.(old) <- p) perm;
  let tasks =
    Array.init n (fun p ->
        { (G.task g perm.(p)) with T.name = Printf.sprintf "x%d" p })
  in
  let edges =
    Array.init (G.n_edges g) (fun e ->
        let { G.src; dst; data_bytes } = G.edge g e in
        (pos.(src), pos.(dst), data_bytes))
  in
  Support.Rng.shuffle rng edges;
  (G.of_tasks tasks (Array.to_list edges), pos)

(* ====================================================================== *)
(* Canonical fingerprint: metamorphic properties                          *)
(* ====================================================================== *)

let fingerprint_relabel_invariant =
  QCheck.Test.make ~count:120
    ~name:"canonical fingerprint invariant under relabeling + edge shuffles"
    QCheck.(pair (int_bound 1_000_000) (int_range 2 24))
    (fun (seed, n) ->
      let rng = Support.Rng.create seed in
      let g = random_graph rng n in
      let g', _ = relabel rng g in
      if Canon.to_string g <> Canon.to_string g' then
        QCheck.Test.fail_reportf "canonical forms differ:\n%s\nvs\n%s"
          (Canon.to_string g) (Canon.to_string g');
      (* A request carries the key of its graph, whichever way it was
         built: [Canon.order] of the graph, and the fingerprint the
         key layout defines, recomputed here from scratch. *)
      let spes = n mod 9 in
      let platform = P.qs22 ~n_spe:spes () in
      let strategy = Req.Bb { rel_gap = 0.05; max_nodes = seed } in
      let made =
        Req.make ~label:"g" ~platform ~graph:g' ~strategy ~deadline_ms:None
          ~prio:0
      in
      let parsed =
        Req.parse_line ~load_graph:(fun _ -> g') ~default_strategy:strategy 1
          (Printf.sprintf "g spes=%d" spes)
        |> Option.get
      in
      let from_scratch =
        let open Support.Fnv in
        let gfp = Canon.fingerprint g' in
        let platform_hash =
          let p = platform in
          let h = add_int (add_int empty p.P.n_ppe) p.P.n_spe in
          let h = add_float (add_float h p.P.bw) p.P.eib_bw in
          let h = add_int (add_int h p.P.local_store) p.P.code_size in
          let h = add_int (add_int h p.P.max_dma_in) p.P.max_dma_to_ppe in
          let h = add_int (add_float h p.P.ppe_speedup) p.P.n_cells in
          add_float h p.P.inter_cell_bw
        in
        let strategy_hash = add_int (add_float (add_int empty 2) 0.05) seed in
        let meta =
          add_value (add_value (add_value empty gfp) platform_hash) strategy_hash
        in
        to_hex gfp ^ to_hex meta
      in
      List.iter
        (fun (how, r) ->
          if r.Req.order <> Canon.order g' then
            QCheck.Test.fail_reportf "%s request: order is not Canon.order" how;
          if Req.fingerprint r <> from_scratch then
            QCheck.Test.fail_reportf "%s request: key %s, from scratch %s" how
              (Req.fingerprint r) from_scratch)
        [ ("made", made); ("parsed", parsed) ];
      Canon.fingerprint g = Canon.fingerprint g')

let test_fingerprint_distinct () =
  (* 100 random DAGs from distinct seeds: no two fingerprints collide
     (random float costs make accidental isomorphism negligible). *)
  let seen = Hashtbl.create 128 in
  for seed = 1 to 100 do
    let rng = Support.Rng.create seed in
    let n = 6 + Support.Rng.int rng 15 in
    let fp = Canon.fingerprint (random_graph rng n) in
    (match Hashtbl.find_opt seen fp with
    | Some other ->
        Alcotest.failf "seed %d collides with seed %d on %Lx" seed other fp
    | None -> ());
    Hashtbl.add seen fp seed
  done

let test_fingerprint_sensitivity () =
  (* The request key must see every input: graph, platform and solver
     options each perturb it. *)
  let rng = Support.Rng.create 7 in
  let g = random_graph rng 10 in
  let make ?(label = "base") ?(platform = P.qs22 ())
      ?(strategy = Req.Portfolio { seed = 1; restarts = 3 }) graph =
    Req.make ~label ~platform ~graph ~strategy ~deadline_ms:None ~prio:0
  in
  let fp = Req.fingerprint (make g) in
  Alcotest.(check int) "key width" 32 (String.length fp);
  Alcotest.(check bool) "label is not keyed" true
    (Req.fingerprint (make ~label:"other" g) = fp);
  let differs what r = Alcotest.(check bool) what false (Req.fingerprint r = fp) in
  differs "platform changes the key" (make ~platform:(P.qs22 ~n_spe:4 ()) g);
  differs "seed changes the key"
    (make ~strategy:(Req.Portfolio { seed = 2; restarts = 3 }) g);
  differs "restarts change the key"
    (make ~strategy:(Req.Portfolio { seed = 1; restarts = 4 }) g);
  differs "strategy family changes the key"
    (make ~strategy:(Req.Bb { rel_gap = 0.05; max_nodes = 1000 }) g);
  differs "graph changes the key" (make (random_graph (Support.Rng.create 8) 10));
  (* An edge-size change alone (same topology) must also show. *)
  differs "edge data changes the key"
    (make (G.map_edges (fun _ e -> e.G.data_bytes +. 1.) g))

(* Persisted caches are keyed by these exact bytes: a change to the
   refinement, the canonical form or the key layout silently orphans
   every stored entry. If they must change, bump [Cache.version] (its
   recover-to-empty path drops the old files) rather than editing the
   pinned values. *)
let test_fingerprint_golden () =
  let graphs =
    [
      ("graph1", Daggen.Presets.random_graph_1 (), "03716720ee20e28e");
      ("graph2", Daggen.Presets.random_graph_2 (), "6aa0c5cf195fd070");
      ("graph3", Daggen.Presets.random_graph_3 (), "8a73cc4e889084c6");
      ("audio", Daggen.Presets.audio_encoder (), "c8f0fc1cff30e7db");
    ]
  in
  let golden =
    [
      ("graph1 spes=4", "c4b2071bd07659a92c11db004644ca38");
      ("graph1 spes=8", "c4b2071bd07659a93a65ec520727f874");
      ("graph1 spes=4 strategy=bb gap=0.05 max-nodes=50000",
       "c4b2071bd07659a9d6e9690e46d70e80");
      ("graph1 spes=8 strategy=bb gap=0.05 max-nodes=50000",
       "c4b2071bd07659a9ee15b9d262f4243c");
      ("graph2 spes=4", "3d5c3b2df5d2cee8d250d7f0dc106e7f");
      ("graph2 spes=8", "3d5c3b2df5d2cee8ba85065fba87ce1b");
      ("graph2 spes=4 strategy=bb gap=0.05 max-nodes=50000",
       "3d5c3b2df5d2cee8b26b747110504837");
      ("graph2 spes=8 strategy=bb gap=0.05 max-nodes=50000",
       "3d5c3b2df5d2cee8850cc327ef95f463");
      ("graph3 spes=4", "5c29231e3efbb1f8b2c5a149db43a24f");
      ("graph3 spes=8", "5c29231e3efbb1f8b7fbd7acf30f9a4b");
      ("graph3 spes=4 strategy=bb gap=0.05 max-nodes=50000",
       "5c29231e3efbb1f88829eb4641007dc7");
      ("graph3 spes=8 strategy=bb gap=0.05 max-nodes=50000",
       "5c29231e3efbb1f8448fb8061d85bed3");
      ("audio spes=4", "1c2dadb4968a850232b90a48199bb1a1");
      ("audio spes=8", "1c2dadb4968a85021bd83e1408a4189d");
      ("audio spes=4 strategy=bb gap=0.05 max-nodes=50000",
       "1c2dadb4968a8502b58753220f8064a9");
      ("audio spes=8 strategy=bb gap=0.05 max-nodes=50000",
       "1c2dadb4968a850227735d9ec304a4e5");
    ]
  in
  let load_graph name =
    let _, g, _ = List.find (fun (n, _, _) -> n = name) graphs in
    g
  in
  List.iter
    (fun (name, g, order_hash) ->
      let ord = Canon.order g in
      Alcotest.(check string) (name ^ " order hash") order_hash
        (Support.Fnv.to_hex (Array.fold_left Support.Fnv.add_int Support.Fnv.empty ord)))
    graphs;
  List.iter
    (fun (line, fp) ->
      match Req.parse_line ~load_graph 1 line with
      | Some r -> Alcotest.(check string) line fp (Req.fingerprint r)
      | None -> Alcotest.failf "%S did not parse" line)
    golden

(* ====================================================================== *)
(* Canonical kernel: differential test against the list-based reference  *)
(* ====================================================================== *)

(* The list-based kernel that defined the canonical key before the
   flat-array rewrite, kept verbatim as a test-only reference: every
   persisted cache entry is keyed by its bytes, so [Canon] must match
   it bit for bit. *)
module Reference = struct
  open Streaming
  module Fnv = Support.Fnv

  (* Initial colour: every task attribute except the name. *)
  let task_color (t : Task.t) =
    let open Fnv in
    let h = empty in
    let h = add_float h t.Task.w_ppe in
    let h = add_float h t.Task.w_spe in
    let h = add_int h t.Task.peek in
    let h = add_bool h t.Task.stateful in
    let h = add_float h t.Task.read_bytes in
    add_float h t.Task.write_bytes

  (* One refinement round: absorb the sorted multisets of (edge size,
     neighbour colour) pairs on each side. Sorting makes the result
     independent of edge order; separate folds keep in- and out-
     neighbourhoods from cancelling each other. *)
  let refine g colors =
    let n = Graph.n_tasks g in
    let signature v =
      let side tag edge_ids endpoint =
        let sigs =
          List.map
            (fun e ->
              let edge = Graph.edge g e in
              (Int64.bits_of_float edge.Graph.data_bytes, colors.(endpoint edge)))
            edge_ids
          |> List.sort compare
        in
        List.fold_left
          (fun h (data, c) -> Fnv.add_value (Fnv.add_value h data) c)
          (Fnv.add_int Fnv.empty tag)
          sigs
      in
      let h = Fnv.add_value Fnv.empty colors.(v) in
      let h = Fnv.add_value h (side 1 (Graph.in_edges g v) (fun e -> e.Graph.src)) in
      Fnv.add_value h (side 2 (Graph.out_edges g v) (fun e -> e.Graph.dst))
    in
    Array.init n signature

  let colors g =
    let colors = ref (Array.init (Graph.n_tasks g) (fun v -> task_color (Graph.task g v))) in
    (* depth + 2 rounds let a colour absorb the whole reachable
       neighbourhood of its task along the longest path, both ways. *)
    for _ = 1 to Graph.depth g + 2 do
      colors := refine g !colors
    done;
    !colors

  let order g =
    let colors = colors g in
    let ids = Array.init (Graph.n_tasks g) Fun.id in
    (* Stable: tasks with equal final colours (interchangeable up to the
       refinement's power) keep their input order. *)
    let key v =
      (colors.(v), List.length (Graph.in_edges g v), List.length (Graph.out_edges g v))
    in
    let cmp a b =
      let (ca, ia, oa), (cb, ib, ob) = (key a, key b) in
      let c = Int64.unsigned_compare ca cb in
      if c <> 0 then c else compare (ia, oa) (ib, ob)
    in
    let l = Array.to_list ids in
    Array.of_list (List.stable_sort cmp l)

  (* The canonical text form under a precomputed [order g]. *)
  let to_string_ordered g ord =
    let n = Graph.n_tasks g in
    let pos = Array.make n 0 in
    Array.iteri (fun p id -> pos.(id) <- p) ord;
    let tasks =
      Array.init n (fun p ->
          { (Graph.task g ord.(p)) with Task.name = "t" ^ string_of_int p })
    in
    let edges =
      List.init (Graph.n_edges g) (fun e ->
          let { Graph.src; dst; data_bytes } = Graph.edge g e in
          (pos.(src), pos.(dst), data_bytes))
      |> List.sort compare
    in
    Serialize.to_string (Graph.of_tasks tasks edges)
end

let check_against_reference g =
  let ord = Reference.order g in
  let text = Reference.to_string_ordered g ord in
  let fp = Support.Fnv.of_string text in
  if Canon.order g <> ord then QCheck.Test.fail_reportf "order differs";
  if Canon.to_string g <> text then
    QCheck.Test.fail_reportf "canonical text differs:\n%s\nvs reference\n%s"
      (Canon.to_string g) text;
  if Canon.fingerprint g <> fp then QCheck.Test.fail_reportf "fingerprint differs";
  if Canon.key g <> (ord, fp) then QCheck.Test.fail_reportf "key differs"

(* Half the graphs get coarse attributes (three cost levels, three edge
   sizes), so equal colours, equal (size, colour) pairs and degree
   tie-breaks are exercised, not just distinct random floats; the [-0.]
   size has the sign bit set, so it sorts first only under signed
   comparison. *)
let kernel_matches_reference =
  QCheck.Test.make ~count:1000
    ~name:"canonical kernel matches the list-based reference"
    QCheck.(quad (int_bound 1_000_000) (int_range 0 60) (int_range 1 20) bool)
    (fun (seed, n, fat, coarse) ->
      let rng = Support.Rng.create seed in
      let g =
        if n = 0 then G.of_tasks [||] []
        else random_graph ~fat:(float_of_int fat /. 10.) rng n
      in
      let g =
        if not coarse then g
        else
          G.map_tasks
            (fun k t -> { t with T.w_ppe = float_of_int (k mod 3); w_spe = 1. })
            g
          |> G.map_edges (fun e _ -> [| -0.; 1.; 2. |].(e mod 3))
      in
      check_against_reference g;
      true)

(* Special floats (both NaN signs, infinities, negative zero, the least
   subnormal, integral values on both sides of 2^53 and past 1e17) in
   every attribute and edge size, and symmetric tasks with equal final
   colours, so the float text and the tie order are pinned. *)
let test_kernel_special_floats () =
  let task name ~w_ppe ~w_spe ~read ~write =
    { (T.make ~name ~w_ppe:1. ~w_spe:1. ()) with
      T.w_ppe; w_spe; read_bytes = read; write_bytes = write }
  in
  let tasks =
    [|
      task "sink" ~w_ppe:Float.nan ~w_spe:(-.Float.nan) ~read:(-0.) ~write:5e-324;
      task "left" ~w_ppe:Float.infinity ~w_spe:Float.neg_infinity ~read:0. ~write:0.;
      task "right" ~w_ppe:Float.infinity ~w_spe:Float.neg_infinity ~read:0. ~write:0.;
      task "src" ~w_ppe:(-0.) ~w_spe:5e-324 ~read:Float.nan ~write:Float.infinity;
      task "twin" ~w_ppe:Float.infinity ~w_spe:Float.neg_infinity ~read:0. ~write:0.;
      task "wide" ~w_ppe:(0x1p53 -. 1.) ~w_spe:0x1p53 ~read:1e17 ~write:(-5.);
    |]
  in
  let g =
    G.of_tasks tasks
      [
        (3, 1, Float.nan); (3, 2, Float.nan); (1, 0, -0.); (2, 0, -0.);
        (3, 0, 5e-324); (3, 4, -.Float.nan); (4, 0, Float.infinity);
        (5, 0, 1e16); (3, 5, 0.5);
      ]
  in
  (* [left] and [right] are interchangeable: equal colours, input order. *)
  Alcotest.(check (array int)) "order" [| 0; 1; 2; 3; 5; 4 |] (Canon.order g);
  check_against_reference g

(* The flat-array refinement allocates O(n + m) words per call; the
   list-based one allocated per round, per task and per edge. *)
let test_kernel_allocation () =
  let g = Daggen.Presets.random_graph_2 () in
  ignore (Canon.order g);
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (Canon.order g));
  let words = Gc.minor_words () -. before in
  if words >= 50_000. then
    Alcotest.failf "Canon.order on graph 2 allocated %.0f minor words" words

(* ====================================================================== *)
(* Cache hits bitwise-equal to fresh solves                               *)
(* ====================================================================== *)

let portfolio_strategy = Req.Portfolio { seed = 1234; restarts = 2 }

let request ?(label = "g") ?(strategy = portfolio_strategy) platform graph =
  Req.make ~label ~platform ~graph ~strategy ~deadline_ms:None ~prio:0

let hit_equals_fresh_portfolio =
  QCheck.Test.make ~count:40
    ~name:"cache hit bitwise = fresh portfolio solve (same seeds)"
    QCheck.(pair (int_bound 1_000_000) (int_range 4 14))
    (fun (seed, n) ->
      let rng = Support.Rng.create seed in
      let g = random_graph rng n in
      let platform = P.make ~n_ppe:1 ~n_spe:(2 + Support.Rng.int rng 3) () in
      let req = request platform g in
      let cache = Shard.create () in
      let miss =
        match run cache [ req ] with [ r ] -> r | _ -> assert false
      in
      let hit =
        match run cache [ req ] with [ r ] -> r | _ -> assert false
      in
      if miss.Batch.source <> Batch.Solved then
        QCheck.Test.fail_reportf "first run should solve";
      if hit.Batch.source <> Batch.Hit then
        QCheck.Test.fail_reportf "second run should hit";
      let fresh = Pf.solve ~seed:1234 ~restarts:2 platform g in
      let fresh_arr = M.to_array fresh.Pf.best in
      if hit.Batch.assignment <> fresh_arr then
        QCheck.Test.fail_reportf "hit assignment differs from fresh solve";
      if bits hit.Batch.period <> bits fresh.Pf.period then
        QCheck.Test.fail_reportf "hit period %.17g vs fresh %.17g"
          hit.Batch.period fresh.Pf.period;
      if miss.Batch.assignment <> fresh_arr then
        QCheck.Test.fail_reportf "solve-path assignment differs from fresh solve";
      true)

let hit_equals_fresh_bb =
  let strategy = Req.Bb { rel_gap = 0.05; max_nodes = 20_000 } in
  QCheck.Test.make ~count:15
    ~name:"cache hit bitwise = fresh branch-and-bound solve"
    QCheck.(pair (int_bound 1_000_000) (int_range 4 9))
    (fun (seed, n) ->
      let rng = Support.Rng.create seed in
      let g = random_graph rng n in
      let platform = P.make ~n_ppe:1 ~n_spe:(2 + Support.Rng.int rng 3) () in
      let req = request ~strategy platform g in
      let cache = Shard.create () in
      ignore (run cache [ req ]);
      let hit =
        match run cache [ req ] with [ r ] -> r | _ -> assert false
      in
      if hit.Batch.source <> Batch.Hit then
        QCheck.Test.fail_reportf "second run should hit";
      let options =
        {
          Search.default_options with
          rel_gap = 0.05;
          max_nodes = 20_000;
          time_limit = 3600.;
        }
      in
      let fresh = Search.solve ~options platform g in
      if hit.Batch.assignment <> M.to_array fresh.Search.mapping then
        QCheck.Test.fail_reportf "hit assignment differs from fresh B&B";
      if bits hit.Batch.period <> bits fresh.Search.period then
        QCheck.Test.fail_reportf "hit period %.17g vs fresh %.17g"
          hit.Batch.period fresh.Search.period;
      true)

let relabeled_hit_transports =
  QCheck.Test.make ~count:40
    ~name:"relabeled request hits and transports a valid mapping"
    QCheck.(pair (int_bound 1_000_000) (int_range 4 14))
    (fun (seed, n) ->
      let rng = Support.Rng.create seed in
      let g = random_graph rng n in
      let platform = P.make ~n_ppe:1 ~n_spe:(2 + Support.Rng.int rng 3) () in
      let cache = Shard.create () in
      let solved =
        match run cache [ request platform g ] with
        | [ r ] -> r
        | _ -> assert false
      in
      let g', _ = relabel rng g in
      let resp =
        match run cache [ request ~label:"relabeled" platform g' ] with
        | [ r ] -> r
        | _ -> assert false
      in
      if resp.Batch.source <> Batch.Hit then
        QCheck.Test.fail_reportf "isomorphic request should hit the cache";
      (* The transported mapping is valid on the relabeled graph and
         achieves the same period there (up to summation-order ulps). *)
      let m = M.make platform g' resp.Batch.assignment in
      let p = SS.period platform (SS.loads platform g' m) in
      let tol = 1e-9 *. Float.abs solved.Batch.period in
      if Float.abs (p -. solved.Batch.period) > tol then
        QCheck.Test.fail_reportf
          "transported period %.17g vs solved %.17g (tol %.3g)" p
          solved.Batch.period tol;
      true)

(* ====================================================================== *)
(* Differential: batched (pools of 1/2/4) vs sequential per-request loop  *)
(* ====================================================================== *)

let differential_requests () =
  let platform = P.qs22 ~n_spe:4 () in
  let graph i = random_graph (Support.Rng.create (100 + i)) (6 + i) in
  let g0 = graph 0 and g1 = graph 1 and g2 = graph 2 and g3 = graph 3 in
  let relabeled_g1, _ = relabel (Support.Rng.create 999) g1 in
  [
    request ~label:"g0" platform g0;
    request ~label:"g1" platform g1;
    request ~label:"g0-dup" platform g0;
    request ~label:"g2" platform g2;
    request ~label:"g3-bb"
      ~strategy:(Req.Bb { rel_gap = 0.05; max_nodes = 5_000 })
      platform g3;
    request ~label:"g1-iso" platform relabeled_g1;
    request ~label:"g2-dup" platform g2;
    request ~label:"g0-spes"
      (P.qs22 ~n_spe:2 ())
      g0;
  ]

let render_all responses = String.concat "" (List.map Batch.render responses)

(* The rendered responses must not depend on how requests were batched
   or how many domains solved the misses — except for the label, which
   is deliberately per-request, so duplicates keep distinct labels. *)
let test_differential_batch () =
  with_metrics (fun () ->
      let requests = differential_requests () in
      let n = List.length requests in
      let hits0 = counter_value "svc_hits_total"
      and misses0 = counter_value "svc_misses_total" in
      let reference =
        let cache = Shard.create () in
        List.concat_map (fun r -> run cache [ r ]) requests
        |> render_all
      in
      let runs = ref 1 in
      List.iter
        (fun size ->
          Pool.with_pool ~size (fun pool ->
              let cache = Shard.create () in
              let out = render_all (run ~pool cache requests) in
              incr runs;
              Alcotest.(check string)
                (Printf.sprintf "pool=%d byte-identical to sequential loop" size)
                reference out))
        [ 1; 2; 4 ];
      let hits = counter_value "svc_hits_total" - hits0
      and misses = counter_value "svc_misses_total" - misses0 in
      Alcotest.(check int)
        "svc_hits + svc_misses = requests served" (!runs * n) (hits + misses);
      (* The duplicate, isomorphic-duplicate and repeated requests hit. *)
      Alcotest.(check int) "hits per run" (!runs * 3) hits)

(* ====================================================================== *)
(* The cache and batch CLIs over a daemon's cache file                    *)
(* ====================================================================== *)

(* The CLI binary, a declared dependency of this test directory. *)
let cli = Filename.concat (Filename.concat Filename.parent_dir_name "bin") "cellsched_cli.exe"

let read_file path = In_channel.with_open_bin path In_channel.input_all

let contains sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* Exit code, stdout and stderr of one CLI run. *)
let run_cli args =
  let out = Filename.temp_file "cellsched_cli" ".out"
  and err = Filename.temp_file "cellsched_cli" ".err" in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ out; err ])
    (fun () ->
      let code = Sys.command (Filename.quote_command cli args ~stdout:out ~stderr:err) in
      (code, read_file out, read_file err))

(* A daemon flushes its cache to FILE through [Shard.save_files].
   [cache FILE] must list those entries, [cache FILE --clear] must
   refuse to overwrite it without --force, and [batch --cache FILE]
   must answer the same requests from it. *)
let test_cli_reads_daemon_cache () =
  let dir = Filename.temp_file "cellsched_cli" ".d" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let path name = Filename.concat dir name in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (path f)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () ->
      let rng = Support.Rng.create 31 in
      Streaming.Serialize.to_file (random_graph rng 8) (path "a.graph");
      Streaming.Serialize.to_file (random_graph rng 10) (path "b.graph");
      let lines =
        [
          path "a.graph" ^ " spes=4 strategy=bb max-nodes=2000";
          path "b.graph" ^ " spes=4";
        ]
      in
      let requests =
        List.mapi
          (fun i line ->
            Option.get
              (Req.parse_line ~load_graph:Streaming.Serialize.of_file (i + 1)
                 line))
          lines
      in
      let cache_file = path "c.json" in
      let daemon_cache = Shard.create () in
      ignore (run daemon_cache requests);
      (match Shard.save_files daemon_cache cache_file with
      | Ok () -> ()
      | Error m -> Alcotest.fail m);
      let flushed = read_file cache_file in
      let code, listing, _ = run_cli [ "cache"; cache_file ] in
      Alcotest.(check int) "cache exit code" 0 code;
      Alcotest.(check bool) "cache lists both entries" true
        (contains (cache_file ^ ": 2 entries") listing);
      List.iter
        (fun r ->
          Alcotest.(check bool) "fingerprint listed" true
            (contains (Req.fingerprint r) listing))
        requests;
      let code, _, _ = run_cli [ "cache"; cache_file; "--clear" ] in
      Alcotest.(check int) "clear without --force refuses" 2 code;
      Alcotest.(check string) "cache file untouched" flushed
        (read_file cache_file);
      let requests_file = path "requests.txt" in
      Out_channel.with_open_bin requests_file (fun oc ->
          List.iter (fun l -> output_string oc (l ^ "\n")) lines);
      let code, _, summary =
        run_cli [ "batch"; requests_file; "--cache"; cache_file ]
      in
      Alcotest.(check int) "batch exit code" 0 code;
      Alcotest.(check bool) "batch answers every request from cache" true
        (contains "2 request(s), 2 from cache, 0 solved" summary);
      Alcotest.(check int) "written back with both entries" 2
        (Shard.length (Shard.load_files cache_file)))

(* ====================================================================== *)
(* Persistence                                                            *)
(* ====================================================================== *)

let sample_entry ?(fp = String.make 32 'a') ?(period = 1.25e-3) () =
  {
    Cache.fingerprint = fp;
    strategy = "portfolio:seed=1,restarts=2";
    canonical_assignment = [| 0; 1; 2; 1 |];
    period;
    feasible = true;
    throughput = 1. /. period;
    bottleneck = "SPE1 interface (in)";
  }

let temp_path () = Filename.temp_file "cellsched_cache" ".json"

let entry_testable =
  let pp ppf (e : Cache.entry) =
    Format.fprintf ppf "%s period=%h [%s]" e.Cache.fingerprint e.Cache.period
      (String.concat ","
         (Array.to_list (Array.map string_of_int e.Cache.canonical_assignment)))
  in
  Alcotest.testable pp (fun a b ->
      a.Cache.fingerprint = b.Cache.fingerprint
      && a.Cache.strategy = b.Cache.strategy
      && a.Cache.canonical_assignment = b.Cache.canonical_assignment
      && bits a.Cache.period = bits b.Cache.period
      && a.Cache.feasible = b.Cache.feasible
      && bits a.Cache.throughput = bits b.Cache.throughput
      && a.Cache.bottleneck = b.Cache.bottleneck)

let test_persistence_roundtrip () =
  let cache = Cache.create () in
  let e1 = sample_entry () in
  let e2 =
    sample_entry ~fp:(String.make 32 'b') ~period:(1. /. 3.) ()
  in
  let e3 =
    (* Non-finite periods must survive the trip (JSON has no inf). *)
    { (sample_entry ~fp:(String.make 32 'c') ()) with
      Cache.period = infinity; feasible = false; throughput = 0. }
  in
  List.iter (Cache.add cache) [ e1; e2; e3 ];
  ignore (Cache.find cache e1.Cache.fingerprint);
  let path = temp_path () in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      (match Cache.save_file ~force:true cache path with
      | Ok () -> ()
      | Error m -> Alcotest.failf "save failed: %s" m);
      let back = Cache.load_file path in
      Alcotest.(check int) "entries survive" 3 (Cache.length back);
      Alcotest.(check (list entry_testable))
        "entries equal, LRU order preserved" (Cache.entries cache)
        (Cache.entries back))

let recovered_counter_after f =
  with_metrics (fun () ->
      let before = counter_value "svc_cache_recovered_total" in
      let cache = f () in
      (Cache.length cache, counter_value "svc_cache_recovered_total" - before))

(* First-occurrence string replacement (keeps the test free of str). *)
let replace ~sub ~by s =
  let n = String.length s and m = String.length sub in
  let rec find i =
    if i + m > n then None
    else if String.sub s i m = sub then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> Alcotest.failf "substring %S not found" sub
  | Some i -> String.sub s 0 i ^ by ^ String.sub s (i + m) (n - i - m)

let load_corrupt contents =
  let path = temp_path () in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc contents);
      recovered_counter_after (fun () -> Cache.load_file path))

let test_persistence_faults () =
  let cache = Cache.create () in
  Cache.add cache (sample_entry ());
  Cache.add cache (sample_entry ~fp:(String.make 32 'b') ());
  let good = Cache.to_json_string cache in
  let check what (len, recovered) =
    Alcotest.(check int) (what ^ ": empty cache") 0 len;
    Alcotest.(check int) (what ^ ": recovered counter") 1 recovered
  in
  check "truncated"
    (load_corrupt (String.sub good 0 (String.length good / 2)));
  check "garbage" (load_corrupt "this is not json {{{");
  check "wrong version"
    (load_corrupt
       (replace ~sub:"\"cellsched_cache\":1" ~by:"\"cellsched_cache\":99" good));
  check "not a cache file" (load_corrupt "{\"some\":\"object\"}");
  (* A malformed entry poisons the whole file: recover empty. *)
  check "bad entry"
    (load_corrupt (replace ~sub:"\"feasible\":true" ~by:"\"feasible\":\"yes\"" good));
  (* Missing file: normal cold start, no recovery event. *)
  let len, recovered =
    recovered_counter_after (fun () -> Cache.load_file "/nonexistent/cache.json")
  in
  Alcotest.(check int) "missing file: empty" 0 len;
  Alcotest.(check int) "missing file: no recovery event" 0 recovered

let test_no_clobber () =
  let cache = Cache.create () in
  Cache.add cache (sample_entry ());
  let path = temp_path () in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      (* temp_file creates the file, so an unforced save must refuse. *)
      (match Cache.save_file cache path with
      | Error _ -> ()
      | Ok () -> Alcotest.fail "save over an existing file must refuse");
      match Cache.save_file ~force:true cache path with
      | Ok () -> ()
      | Error m -> Alcotest.failf "forced save failed: %s" m)

let test_crash_window () =
  (* A flush killed mid-write must leave the previous complete snapshot
     intact: the bytes go to a sibling temp file, the rename never
     happens, and a reload sees every entry of the last good save. *)
  let cache = Cache.create () in
  Cache.add cache (sample_entry ());
  let path = temp_path () in
  Fun.protect
    ~finally:(fun () ->
      Cache.For_testing.crash_after_bytes := None;
      Sys.remove path;
      try Sys.remove (Cache.temp_path path) with Sys_error _ -> ())
    (fun () ->
      (match Cache.save_file ~force:true cache path with
      | Ok () -> ()
      | Error m -> Alcotest.failf "first save failed: %s" m);
      let good = In_channel.with_open_bin path In_channel.input_all in
      Cache.add cache (sample_entry ~fp:(String.make 32 'b') ());
      Cache.For_testing.crash_after_bytes := Some 25;
      (match Cache.save_file ~force:true cache path with
      | Ok () -> Alcotest.fail "crashed flush reported success"
      | Error _ -> ());
      Cache.For_testing.crash_after_bytes := None;
      Alcotest.(check bool) "partial bytes went to the temp file" true
        (Sys.file_exists (Cache.temp_path path));
      Alcotest.(check string) "target file untouched by the crash" good
        (In_channel.with_open_bin path In_channel.input_all);
      let back = Cache.load_file path in
      Alcotest.(check int) "previous snapshot loads complete" 1
        (Cache.length back);
      (* The retry overwrites the stale temp file and lands atomically. *)
      (match Cache.save_file ~force:true cache path with
      | Ok () -> ()
      | Error m -> Alcotest.failf "retry failed: %s" m);
      Alcotest.(check bool) "temp file consumed by the rename" false
        (Sys.file_exists (Cache.temp_path path));
      Alcotest.(check int) "both entries land" 2
        (Cache.length (Cache.load_file path)))

let test_lru_eviction () =
  with_metrics (fun () ->
      let evictions0 = counter_value "svc_cache_evicted_total" in
      let cache = Cache.create ~max_entries:2 () in
      let fp c = String.make 32 c in
      Cache.add cache (sample_entry ~fp:(fp 'a') ());
      Cache.add cache (sample_entry ~fp:(fp 'b') ());
      (* Touch 'a' so 'b' is the LRU victim. *)
      ignore (Cache.find cache (fp 'a'));
      Cache.add cache (sample_entry ~fp:(fp 'c') ());
      Alcotest.(check int) "bounded" 2 (Cache.length cache);
      Alcotest.(check bool) "a kept (recently used)" true
        (Cache.find cache (fp 'a') <> None);
      Alcotest.(check bool) "b evicted" true (Cache.find cache (fp 'b') = None);
      Alcotest.(check bool) "c resident" true
        (Cache.find cache (fp 'c') <> None);
      Alcotest.(check int) "eviction counted" 1
        (counter_value "svc_cache_evicted_total" - evictions0);
      (* Byte bound: an entry bigger than the whole budget is dropped. *)
      let tiny = Cache.create ~max_bytes:64 () in
      Cache.add tiny (sample_entry ());
      Alcotest.(check int) "oversized entry dropped" 0 (Cache.length tiny))

let test_eviction_counter_ignores_overwrites () =
  (* Regression: [svc_cache_evicted_total] once counted update-in-place
     replacements as evictions, so an overwrite-heavy stream inflated
     the counter far past the number of entries that ever left the
     cache. Pin the distinction: overwrites never bump it, genuine LRU
     pressure bumps it exactly once per departed entry. *)
  with_metrics (fun () ->
      let evicted () = counter_value "svc_cache_evicted_total" in
      let fp c = String.make 32 c in
      let cache = Cache.create ~max_entries:4 () in
      let base = evicted () in
      (* 100 writes across 4 resident fingerprints: 96 overwrites. *)
      for round = 1 to 25 do
        List.iter
          (fun c ->
            Cache.add cache
              { (sample_entry ~fp:(fp c) ()) with Cache.period = float_of_int round })
          [ 'a'; 'b'; 'c'; 'd' ]
      done;
      Alcotest.(check int) "overwrite-heavy stream evicts nothing" 0
        (evicted () - base);
      Alcotest.(check int) "all four resident" 4 (Cache.length cache);
      (match Cache.find cache (fp 'a') with
      | Some e -> Alcotest.(check (float 0.)) "last write won" 25. e.Cache.period
      | None -> Alcotest.fail "overwritten entry vanished");
      (* Now genuine pressure: 3 new fingerprints through a 4-slot cache
         displace exactly 3 residents, overwrites still free. *)
      List.iter
        (fun c -> Cache.add cache (sample_entry ~fp:(fp c) ()))
        [ 'e'; 'f'; 'g' ];
      Alcotest.(check int) "one eviction per departed entry" 3
        (evicted () - base);
      Cache.add cache (sample_entry ~fp:(fp 'g') ());
      Alcotest.(check int) "post-pressure overwrite still free" 3
        (evicted () - base))

let test_transport_reject_falls_back () =
  with_metrics (fun () ->
      let rng = Support.Rng.create 5 in
      let g = random_graph rng 8 in
      let platform = P.qs22 ~n_spe:4 () in
      let req = request platform g in
      let cache = Shard.create () in
      (* Poison the cache under the request's own fingerprint with a
         wrong-arity assignment: the hit must be rejected and re-solved. *)
      Shard.add cache
        {
          (sample_entry ~fp:(Req.fingerprint req) ()) with
          Cache.canonical_assignment = [| 0 |];
        };
      let rejects0 = counter_value "svc_transport_rejects_total" in
      let resp =
        match run cache [ req ] with [ r ] -> r | _ -> assert false
      in
      Alcotest.(check bool) "fell back to a solve" true
        (resp.Batch.source = Batch.Solved);
      Alcotest.(check int) "reject counted" 1
        (counter_value "svc_transport_rejects_total" - rejects0);
      let fresh = Pf.solve ~seed:1234 ~restarts:2 platform g in
      Alcotest.(check bool) "fallback result = fresh solve" true
        (resp.Batch.assignment = M.to_array fresh.Pf.best))

(* ====================================================================== *)
(* Stress: 10k pool tasks hammer the locked cache                         *)
(* ====================================================================== *)

(* The one concurrent-budget test of [Shard]: 10 000 probe-or-insert
   operations from a 4-domain pool against 64 fingerprints, so tasks
   collide on keys and the LRU budget turns over mid-storm, while an
   out-of-pool domain checks the budget under the cache's lock. *)
let test_shard_hammer () =
  let max_entries = 32 and max_bytes = 16384 in
  let t = Shard.create ~max_entries ~max_bytes () in
  let view = Shard.view t in
  let requests = 10_000 in
  let hex = "0123456789abcdef" in
  let rng = Support.Rng.create 4242 in
  let random_fp () = String.init 32 (fun _ -> hex.[Support.Rng.int rng 16]) in
  let population = Array.init 64 (fun _ -> random_fp ()) in
  let ops =
    Array.init requests (fun _ ->
        population.(Support.Rng.int rng (Array.length population)))
  in
  let hits = Atomic.make 0 and misses = Atomic.make 0 in
  let stop = Atomic.make false in
  let violations = Atomic.make 0 in
  let prober =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          if Shard.length t > max_entries || Shard.bytes_used t > max_bytes
          then Atomic.incr violations
        done)
  in
  Pool.with_pool ~size:4 (fun p ->
      ignore
        (Pool.parallel_map p
           (fun fp ->
             (* classify exactly once per request: hit or miss *)
             match view.Cache.probe fp with
             | Some _ -> Atomic.incr hits
             | None ->
                 Atomic.incr misses;
                 view.Cache.insert (sample_entry ~fp ()))
           ops));
  Atomic.set stop true;
  Domain.join prober;
  Alcotest.(check int) "hits + misses = requests" requests
    (Atomic.get hits + Atomic.get misses);
  Alcotest.(check bool) "some of each under a 64-problem mix" true
    (Atomic.get hits > 0 && Atomic.get misses > 0);
  Alcotest.(check int) "no budget violation observed mid-storm" 0
    (Atomic.get violations);
  Alcotest.(check bool) "within budget after the storm" true
    (Shard.length t <= max_entries && Shard.bytes_used t <= max_bytes)

(* ====================================================================== *)
(* Request-file parsing                                                   *)
(* ====================================================================== *)

let test_parse_line () =
  let rng = Support.Rng.create 3 in
  let g = random_graph rng 6 in
  let load_graph name =
    Alcotest.(check string) "file forwarded" "g.graph" name;
    g
  in
  (match Req.parse_line ~load_graph 1 "g.graph spes=4 strategy=portfolio seed=7" with
  | Some r ->
      Alcotest.(check int) "spes" 4 r.Req.platform.P.n_spe;
      (match r.Req.strategy with
      | Req.Portfolio { seed; restarts } ->
          Alcotest.(check int) "seed" 7 seed;
          Alcotest.(check int) "default restarts" Pf.default_restarts restarts
      | _ -> Alcotest.fail "expected portfolio")
  | None -> Alcotest.fail "line should parse");
  (match Req.parse_line ~load_graph:(fun _ -> g) 2 "g strategy=bb max-nodes=99" with
  | Some { Req.strategy = Req.Bb { max_nodes; _ }; _ } ->
      Alcotest.(check int) "max-nodes" 99 max_nodes
  | _ -> Alcotest.fail "expected bb");
  Alcotest.(check bool) "comment skipped" true
    (Req.parse_line ~load_graph:(fun _ -> g) 3 "  # comment" = None);
  Alcotest.(check bool) "blank skipped" true
    (Req.parse_line ~load_graph:(fun _ -> g) 4 "" = None);
  (match Req.parse_line ~load_graph:(fun _ -> g) 5 "g seed=notanint" with
  | exception Failure m ->
      Alcotest.(check bool) "line number in error" true
        (String.length m >= 6 && String.sub m 0 6 = "line 5")
  | _ -> Alcotest.fail "malformed line should fail");
  match Req.parse_line ~load_graph:(fun _ -> g) 6 "g strategy=bb seed=1" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "seed= under bb should fail"

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "service"
    [
      ( "fingerprint",
        [
          qt fingerprint_relabel_invariant;
          Alcotest.test_case "100 distinct DAGs, no collision" `Quick
            test_fingerprint_distinct;
          Alcotest.test_case "key sensitivity" `Quick
            test_fingerprint_sensitivity;
          Alcotest.test_case "golden keys of the presets" `Quick
            test_fingerprint_golden;
        ] );
      ( "canonical kernel",
        [
          qt kernel_matches_reference;
          Alcotest.test_case "special floats and ties" `Quick
            test_kernel_special_floats;
          Alcotest.test_case "order allocates O(n + m)" `Quick
            test_kernel_allocation;
        ] );
      ( "cache-hit equivalence",
        [
          qt hit_equals_fresh_portfolio;
          qt hit_equals_fresh_bb;
          qt relabeled_hit_transports;
        ] );
      ( "differential",
        [ Alcotest.test_case "batched = sequential loop" `Quick
            test_differential_batch ] );
      ( "persistence",
        [
          Alcotest.test_case "cache + batch CLIs read a daemon's cache file"
            `Quick test_cli_reads_daemon_cache;
          Alcotest.test_case "save/load round-trip" `Quick
            test_persistence_roundtrip;
          Alcotest.test_case "fault recovery" `Quick test_persistence_faults;
          Alcotest.test_case "no-clobber / --force" `Quick test_no_clobber;
          Alcotest.test_case "crash mid-flush keeps the last snapshot" `Quick
            test_crash_window;
        ] );
      ( "cache",
        [
          Alcotest.test_case "LRU eviction + bounds" `Quick test_lru_eviction;
          Alcotest.test_case "eviction counter ignores overwrites" `Quick
            test_eviction_counter_ignores_overwrites;
          Alcotest.test_case "transport reject falls back" `Quick
            test_transport_reject_falls_back;
        ] );
      ("requests", [ Alcotest.test_case "parse_line" `Quick test_parse_line ]);
      ( "stress",
        [
          Alcotest.test_case "10k pool tasks vs the locked cache" `Quick
            test_shard_hammer;
        ] );
    ]
