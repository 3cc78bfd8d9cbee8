(* Experiment implementations for the paper's figures and tables.

   Every experiment prints the series the paper reports, annotated with the
   values the paper's own plots show, so EXPERIMENTS.md can be regenerated
   from this output. Seeds are fixed: all numbers are reproducible. *)

module P = Cell.Platform
module G = Streaming.Graph
module SS = Cellsched.Steady_state
module MS = Cellsched.Milp_solver
module H = Cellsched.Heuristics
module R = Simulator.Runtime

let scale = ref 1.0
(* --quick divides stream lengths by 10. *)

let seed = ref 0
(* --seed=N offsets the fixed seeds of the service/daemon/traffic
   experiments. The default 0 reproduces the published numbers; any
   other value exercises the same code paths on a fresh request stream,
   which is how CI checks that the bitwise assertions are not an
   artifact of one lucky seed. *)

let instances n = max 200 (int_of_float (float_of_int n *. !scale))

let pool : Par.Pool.t option ref = ref None
(* Set by bench --parallel[=N]. Sweeps fan their independent points out
   over it through [pmap]; every point is a pure function of its inputs
   and [parallel_map] preserves order, so the tables are byte-identical
   to the sequential run. *)

let pmap f arr =
  match !pool with
  | Some p when Array.length arr > 1 -> Par.Pool.parallel_map p f arr
  | _ -> Array.map f arr

let pmap_list f l = Array.to_list (pmap f (Array.of_list l))

let milp_options =
  (* Sweeps use a 10 s budget per solve (incumbents converge within a few
     seconds); the dedicated milptime experiment uses the paper's full
     setting. *)
  { MS.default_options with rel_gap = 0.05; time_limit = 10. }

let solve_lp platform g = MS.solve ~options:milp_options platform g

let simulate platform g mapping ~n =
  R.run platform g mapping ~instances:(instances n)

let steady platform g mapping ~n =
  (simulate platform g mapping ~n).R.steady_throughput

let graphs () = Daggen.Presets.all_random ()

(* ------------------------------------------------------------------ *)
(* E1/E5 - Figure 6: throughput vs number of instances.                *)
(* ------------------------------------------------------------------ *)

let fig6 () =
  print_endline "== Figure 6: throughput vs stream position ==";
  print_endline
    "   (random graph 1, CCR 0.775, QS22 with 8 SPEs, LP mapping;\n\
    \    paper: steady state after ~1000 instances at ~95% of the LP bound)";
  let platform = P.qs22 () in
  let g = Daggen.Presets.random_graph_1 () in
  let r = solve_lp platform g in
  let n = instances 10_000 in
  let metrics = R.run platform g r.MS.mapping ~instances:n in
  let table = Support.Table.create [ "instances"; "experimental"; "theoretical" ] in
  let curve = R.throughput_curve metrics ~points:20 in
  List.iter
    (fun (i, thr) ->
      Support.Table.add_row table
        [
          string_of_int i;
          Printf.sprintf "%.2f" thr;
          Printf.sprintf "%.2f" r.MS.throughput;
        ])
    curve;
  Support.Table.print table;
  let ratio = metrics.R.steady_throughput /. r.MS.throughput in
  Printf.printf
    "steady-state throughput: %.2f inst/s; LP prediction: %.2f inst/s; ratio \
     %.1f%% (paper: ~95%%)\n\n"
    metrics.R.steady_throughput r.MS.throughput (100. *. ratio)

(* ------------------------------------------------------------------ *)
(* E2 - Figure 7: speed-up vs number of SPEs.                          *)
(* ------------------------------------------------------------------ *)

let fig7_one name g =
  Printf.printf "== Figure 7: speed-up vs #SPEs - %s ==\n" name;
  print_endline
    "   (speed-up over PPE-only, 5000 instances; paper: LP reaches 2-3 with\n\
    \    8 SPEs while both greedy heuristics stay near 1.3)";
  let base_platform = P.qs22 ~n_spe:0 () in
  let base =
    steady base_platform g (H.ppe_only base_platform g) ~n:5_000
  in
  let table =
    Support.Table.create [ "#SPEs"; "GREEDYCPU"; "GREEDYMEM"; "LinearProgramming" ]
  in
  let rows =
    pmap_list
      (fun ns ->
        let platform = P.qs22 ~n_spe:ns () in
        let speedup m = steady platform g m ~n:5_000 /. base in
        let lp = (solve_lp platform g).MS.mapping in
        ( ns,
          speedup (H.greedy_cpu platform g),
          speedup (H.greedy_mem platform g),
          speedup lp ))
      [ 0; 1; 2; 3; 4; 5; 6; 7; 8 ]
  in
  List.iter
    (fun (ns, gc, gm, lp) ->
      Support.Table.add_row table
        [
          string_of_int ns;
          Printf.sprintf "%.2f" gc;
          Printf.sprintf "%.2f" gm;
          Printf.sprintf "%.2f" lp;
        ])
    rows;
  Support.Table.print table;
  print_newline ();
  rows

let fig7 () =
  List.map (fun (name, g) -> (name, fig7_one name g)) (graphs ())

(* ------------------------------------------------------------------ *)
(* E3 - Figure 8: speed-up vs CCR (8 SPEs, LP mapping).                *)
(* ------------------------------------------------------------------ *)

let fig8 () =
  print_endline "== Figure 8: LP-mapping speed-up vs CCR (QS22, 8 SPEs) ==";
  print_endline
    "   (10000 instances; paper: speed-ups of 2.5-3.5 at CCR 0.775 decaying\n\
    \    towards ~1 at CCR 4.6, where mapping everything on the PPE wins)";
  let platform = P.qs22 () in
  let presets =
    [
      ("random graph 1", fun ccr -> Daggen.Presets.random_graph_1 ~ccr ());
      ("random graph 2", fun ccr -> Daggen.Presets.random_graph_2 ~ccr ());
      ("random graph 3", fun ccr -> Daggen.Presets.random_graph_3 ~ccr ());
    ]
  in
  let table =
    Support.Table.create
      ("CCR" :: List.map (fun (name, _) -> name) presets)
  in
  let ccrs = Streaming.Ccr.paper_ccrs in
  let n_presets = List.length presets in
  (* One pool task per (CCR, graph) point. *)
  let points =
    Array.of_list
      (List.concat_map
         (fun ccr -> List.map (fun (_, make) -> (ccr, make)) presets)
         ccrs)
  in
  let speeds =
    pmap
      (fun (ccr, make) ->
        let g = make ccr in
        let base = steady platform g (H.ppe_only platform g) ~n:10_000 in
        let lp = (solve_lp platform g).MS.mapping in
        steady platform g lp ~n:10_000 /. base)
      points
  in
  let result =
    List.mapi
      (fun i ccr ->
        let speedups =
          List.init n_presets (fun j -> speeds.((i * n_presets) + j))
        in
        Support.Table.add_row table
          (Printf.sprintf "%.3f" ccr
          :: List.map (Printf.sprintf "%.2f") speedups);
        (ccr, speedups))
      ccrs
  in
  Support.Table.print table;
  print_newline ();
  result

(* ------------------------------------------------------------------ *)
(* E4 - MILP resolution time (paper S6: "below one minute, mostly      *)
(* around 20 seconds" with CPLEX at a 5% gap).                         *)
(* ------------------------------------------------------------------ *)

let milptime () =
  print_endline "== MILP resolution (5% optimality gap, QS22 with 8 SPEs) ==";
  print_endline
    "   (paper: CPLEX always below one minute, mostly around 20 s)";
  let platform = P.qs22 () in
  let table =
    Support.Table.create
      [ "graph"; "tasks"; "edges"; "time (s)"; "nodes"; "gap"; "proven" ]
  in
  List.iter
    (fun (name, g) ->
      let r = MS.solve ~options:{ milp_options with time_limit = 30. } platform g in
      Support.Table.add_row table
        [
          name;
          string_of_int (G.n_tasks g);
          string_of_int (G.n_edges g);
          Printf.sprintf "%.2f" r.MS.solve_time;
          string_of_int r.MS.nodes;
          Printf.sprintf "%.3f" r.MS.gap;
          string_of_bool r.MS.proven_within_gap;
        ])
    (graphs ());
  Support.Table.print table;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* A1/A2 - Ablations: the paper's S7 future-work optimizations and     *)
(* the "involved heuristics" it calls for.                             *)
(* ------------------------------------------------------------------ *)

let ablation () =
  print_endline "== Ablation A1: buffer optimizations (S7 future work) ==";
  print_endline
    "   (LP mapping on a memory-tight variant, 8 SPEs, 2% gap; sharing\n\
    \    colocated buffers / tightening the pipeline frees local store,\n\
    \    letting more work leave the PPE)";
  let platform = P.qs22 () in
  let a1_options = { milp_options with rel_gap = 0.02; time_limit = 20. } in
  let table =
    Support.Table.create
      [
        "graph";
        "paper model";
        "mem (kB)";
        "+buffer sharing";
        "mem (kB)";
        "+tight pipeline";
      ]
  in
  let spe_memory ?share_colocated_buffers ?tight_pipeline g mapping =
    let l = SS.loads ?share_colocated_buffers ?tight_pipeline platform g mapping in
    List.fold_left (fun acc pe -> acc +. l.SS.memory.(pe)) 0. (P.spes platform)
    /. 1024.
  in
  List.iter
    (fun (name, mk) ->
      let g = mk 1.9 in
      let base = MS.solve ~options:a1_options platform g in
      let shared =
        MS.solve
          ~options:{ a1_options with share_colocated_buffers = true }
          platform g
      in
      (* The tight-pipeline analysis applies to a given mapping: re-evaluate
         the shared-buffer mapping with mapping-aware firstPeriods. *)
      let tight =
        1.
        /. SS.period platform
             (SS.loads ~share_colocated_buffers:true ~tight_pipeline:true
                platform g shared.MS.mapping)
      in
      Support.Table.add_row table
        [
          name;
          Printf.sprintf "%.2f inst/s" base.MS.throughput;
          Printf.sprintf "%.0f" (spe_memory g base.MS.mapping);
          Printf.sprintf "%.2f inst/s" shared.MS.throughput;
          Printf.sprintf "%.0f"
            (spe_memory ~share_colocated_buffers:true g shared.MS.mapping);
          Printf.sprintf "%.2f inst/s" tight;
        ])
    [
      ("random graph 1", fun ccr -> Daggen.Presets.random_graph_1 ~ccr ());
      ("random graph 2", fun ccr -> Daggen.Presets.random_graph_2 ~ccr ());
      ("random graph 3", fun ccr -> Daggen.Presets.random_graph_3 ~ccr ());
    ];
  Support.Table.print table;
  print_newline ();
  print_endline "== Ablation A2: involved heuristics vs the paper's greedy ==";
  print_endline
    "   (predicted throughput, 8 SPEs, CCR 0.775; the paper notes simple\n\
    \    heuristics fail and calls for better ones)";
  let table =
    Support.Table.create
      [ "graph"; "greedy-mem"; "greedy-cpu"; "density-pack"; "lp-round"; "search (LP)" ]
  in
  List.iter
    (fun (name, g) ->
      let thr m =
        if SS.feasible platform g m then SS.throughput platform g m else nan
      in
      let row =
        [
          thr (H.greedy_mem platform g);
          thr (H.greedy_cpu platform g);
          thr (H.density_pack platform g);
          thr (H.lp_rounding ~improve:true platform g);
          (solve_lp platform g).MS.throughput;
        ]
      in
      Support.Table.add_row table
        (name :: List.map (fun v -> Printf.sprintf "%.2f" v) row))
    (graphs ());
  Support.Table.print table;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* A3 - replication analysis: the paper's S3.1 argument that general   *)
(* (replicated) mappings do not pay off on the Cell.                   *)
(* ------------------------------------------------------------------ *)

let replication () =
  print_endline "== Ablation A3: task replication (the S3.1 general mappings) ==";
  print_endline
    "   (replicating every SPE-mapped stateless task on one extra SPE;
    \    peeking tasks force data duplication and buffers double, the
    \    paper's reason to restrict to simple mappings)";
  let platform = P.qs22 () in
  let table =
    Support.Table.create
      [
        "graph";
        "simple mapping";
        "replicated";
        "remote bytes x";
        "SPE mem x";
        "mem feasible";
      ]
  in
  List.iter
    (fun (name, g) ->
      let r = solve_lp platform g in
      let mapping = r.MS.mapping in
      let simple = Cellsched.Replication.of_mapping platform g mapping in
      (* Give every stateless SPE task a second replica on the next SPE. *)
      let spes = Array.of_list (P.spes platform) in
      let spec =
        Array.init (G.n_tasks g) (fun k ->
            let pe = Cellsched.Mapping.pe mapping k in
            if P.is_spe platform pe && not (G.task g k).Streaming.Task.stateful
            then begin
              let idx = pe - 1 in
              let buddy = spes.((idx + 1) mod Array.length spes) in
              if buddy = pe then [ pe ] else [ pe; buddy ]
            end
            else [ pe ])
      in
      let replicated = Cellsched.Replication.make platform g spec in
      let bytes l =
        Array.fold_left ( +. ) 0. l.SS.bytes_in +. Array.fold_left ( +. ) 0. l.SS.bytes_out
      in
      let mem l =
        List.fold_left (fun acc pe -> acc +. l.SS.memory.(pe)) 0. (P.spes platform)
      in
      let ls = Cellsched.Replication.loads platform g simple in
      let lr = Cellsched.Replication.loads platform g replicated in
      let feasible =
        not
          (List.exists
             (function SS.Memory _ -> true | _ -> false)
             (Cellsched.Replication.violations platform g replicated))
      in
      Support.Table.add_row table
        [
          name;
          Printf.sprintf "%.2f inst/s" (Cellsched.Replication.throughput platform g simple);
          Printf.sprintf "%.2f inst/s" (Cellsched.Replication.throughput platform g replicated);
          Printf.sprintf "%.2f" (bytes lr /. Float.max 1. (bytes ls));
          Printf.sprintf "%.2f" (mem lr /. Float.max 1. (mem ls));
          string_of_bool feasible;
        ])
    (graphs ());
  Support.Table.print table;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* E6 - extension: platform scaling across PS3 / QS22 / dual QS22      *)
(* (the multi-Cell deployment the paper lists as future work, S7).     *)
(* ------------------------------------------------------------------ *)

let dualcell () =
  print_endline "== Extension: platform scaling (PS3 / QS22 / dual-Cell QS22) ==";
  print_endline
    "   (LP-mapping speed-up over a single PPE, CCR 0.775; the dual-Cell
    \    QS22 is the S7 future-work platform: flat = contention-free,\n\
    \    BIF = cross-Cell traffic shares a 20 GB/s coherent interface)";
  let platforms =
    [
      ("PS3 (6 SPEs)", P.ps3 ());
      ("QS22 (8 SPEs)", P.qs22 ());
      ("QS22 dual (flat)", P.qs22_dual ~flat:true ());
      ("QS22 dual (BIF contention)", P.qs22_dual ());
    ]
  in
  let table =
    Support.Table.create
      ("graph" :: List.map (fun (name, _) -> name) platforms)
  in
  List.iter
    (fun (name, g) ->
      let base_platform = P.qs22 ~n_spe:0 () in
      let base = steady base_platform g (H.ppe_only base_platform g) ~n:5_000 in
      let cells =
        List.map
          (fun (_, platform) ->
            let lp = (solve_lp platform g).MS.mapping in
            Printf.sprintf "%.2f" (steady platform g lp ~n:5_000 /. base))
          platforms
      in
      Support.Table.add_row table (name :: cells))
    (graphs ());
  Support.Table.print table;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* M1 - micro-benchmarks (bechamel).                                   *)
(* ------------------------------------------------------------------ *)

let micro () =
  print_endline "== Micro-benchmarks (bechamel, monotonic clock) ==";
  let open Bechamel in
  let platform = P.qs22 () in
  let g = Daggen.Presets.random_graph_1 () in
  let mapping = H.density_pack platform g in
  let small_lp () =
    let p = Lp.Problem.create () in
    let x = Lp.Problem.add_var p "x" in
    let y = Lp.Problem.add_var p "y" in
    Lp.Problem.add_constr p (Lp.Expr.of_list [ (x, 1.); (y, 2.) ]) Lp.Problem.Le 14.;
    Lp.Problem.add_constr p (Lp.Expr.of_list [ (x, 3.); (y, -1.) ]) Lp.Problem.Ge 0.;
    Lp.Problem.add_constr p (Lp.Expr.of_list [ (x, 1.); (y, -1.) ]) Lp.Problem.Le 2.;
    Lp.Problem.set_objective p Lp.Problem.Maximize
      (Lp.Expr.of_list [ (x, 3.); (y, 4.) ]);
    match Lp.Simplex.solve p with
    | Lp.Simplex.Optimal _ -> ()
    | _ -> assert false
  in
  let tests =
    [
      Test.make ~name:"steady-state analysis (50 tasks)"
        (Staged.stage (fun () ->
             ignore (SS.period platform (SS.loads platform g mapping))));
      Test.make ~name:"first-periods + buffers"
        (Staged.stage (fun () ->
             let fp = SS.first_periods g in
             ignore (SS.buffer_sizes ~first_periods:fp g)));
      Test.make ~name:"greedy-mem heuristic"
        (Staged.stage (fun () -> ignore (H.greedy_mem platform g)));
      Test.make ~name:"density-pack heuristic"
        (Staged.stage (fun () -> ignore (H.density_pack platform g)));
      Test.make ~name:"simplex (tiny LP)" (Staged.stage small_lp);
      Test.make ~name:"compact formulation build"
        (Staged.stage (fun () ->
             ignore (Cellsched.Milp_formulation.build_compact platform g)));
      Test.make ~name:"simulate 100 instances"
        (Staged.stage (fun () ->
             ignore (R.run platform g mapping ~instances:100)));
    ]
  in
  let grouped = Test.make_grouped ~name:"cellstream" ~fmt:"%s/%s" tests in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] grouped in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let table = Support.Table.create [ "benchmark"; "time per run" ] in
  let rows = Hashtbl.fold (fun name v acc -> (name, v) :: acc) results [] in
  List.iter
    (fun (name, v) ->
      let time =
        match Analyze.OLS.estimates v with
        | Some [ ns ] ->
            if ns > 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
            else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
            else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
            else Printf.sprintf "%.0f ns" ns
        | _ -> "n/a"
      in
      Support.Table.add_row table [ name; time ])
    (List.sort compare rows);
  Support.Table.print table;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* E9 - Resilience: SPE fail-stop mid-stream, online recovery.         *)
(* ------------------------------------------------------------------ *)

let faults () =
  print_endline "== Resilience: SPE fail-stop mid-stream, online recovery ==";
  print_endline
    "   (best heuristic mapping on the QS22; the most-loaded SPE fail-stops\n\
    \    halfway through the stream; the controller detects the stall from\n\
    \    windowed completion rates, masks the SPE out, remaps on the\n\
    \    survivors and resumes. Measured degraded throughput should track\n\
    \    the steady-state prediction on the reduced platform, ~95% with\n\
    \    the default framework overhead.)";
  let module C = Resilience.Controller in
  let platform = P.qs22 () in
  let table =
    Support.Table.create
      [
        "graph";
        "victim";
        "detect (ms)";
        "recover (ms)";
        "moved";
        "lost";
        "degraded pred/s";
        "measured/s";
        "ratio";
      ]
  in
  List.iter
    (fun (name, g) ->
      let mapping =
        match
          H.best_feasible platform g
            (H.standard_candidates ~with_lp:true platform g)
        with
        | Some (_, m) -> m
        | None -> H.ppe_only platform g
      in
      let victim =
        List.fold_left
          (fun best pe ->
            let load pe =
              List.length (Cellsched.Mapping.tasks_on mapping pe)
            in
            match best with
            | Some b when load b >= load pe -> best
            | _ when load pe > 0 -> Some pe
            | _ -> best)
          None (P.spes platform)
      in
      match victim with
      | None ->
          Support.Table.add_row table
            [ name; "-"; "-"; "-"; "-"; "-"; "-"; "-"; "-" ]
      | Some victim ->
          let n = instances 4000 in
          let period = SS.period platform (SS.loads platform g mapping) in
          let at = float_of_int n *. period /. 2. in
          let report =
            C.run ~faults:[ Fault.fail_stop ~pe:victim ~at ] platform g
              mapping ~instances:n
          in
          let i = List.hd report.C.incidents in
          Support.Table.add_row table
            [
              name;
              P.pe_name platform victim;
              Printf.sprintf "%.1f" ((i.C.detection_time -. i.C.stall_time) *. 1e3);
              Printf.sprintf "%.1f" ((i.C.recovery_time -. i.C.stall_time) *. 1e3);
              string_of_int i.C.migrated_tasks;
              string_of_int i.C.lost_instances;
              Printf.sprintf "%.2f" (1. /. i.C.predicted_period);
              Printf.sprintf "%.2f" (1. /. report.C.final_period);
              Printf.sprintf "%.3f" (i.C.predicted_period /. report.C.final_period);
            ])
    (graphs ());
  Support.Table.print table;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* M2 - search micro-benchmark: incremental Eval engine vs scratch.    *)
(* ------------------------------------------------------------------ *)

(* Reference baseline: the pre-engine local search, one full
   Steady_state recompute per candidate move or swap. Kept verbatim so
   the engine's speedup is measured against the real historical cost;
   both searches must return the identical mapping (the engine probes
   candidates in the same order with bitwise-equal periods). *)
let local_search_scratch ?(max_passes = 50) platform g mapping =
  let module M = Cellsched.Mapping in
  let assignment = M.to_array mapping in
  let n = P.n_pes platform in
  let best_period =
    ref
      (SS.period platform
         (SS.loads platform g (M.make platform g assignment)))
  in
  let eval () =
    let candidate = M.make platform g assignment in
    if SS.feasible platform g candidate then
      Some (SS.period platform (SS.loads platform g candidate))
    else None
  in
  let improved = ref true in
  let passes = ref 0 in
  while !improved && !passes < max_passes do
    improved := false;
    incr passes;
    for k = 0 to G.n_tasks g - 1 do
      let home = assignment.(k) in
      let best_move = ref None in
      for pe = 0 to n - 1 do
        if pe <> home then begin
          assignment.(k) <- pe;
          match eval () with
          | Some t when t < !best_period -. 1e-12 ->
              best_period := t;
              best_move := Some pe
          | _ -> ()
        end
      done;
      assignment.(k) <-
        (match !best_move with Some pe -> improved := true; pe | None -> home)
    done;
    for k1 = 0 to G.n_tasks g - 1 do
      for k2 = k1 + 1 to G.n_tasks g - 1 do
        if assignment.(k1) <> assignment.(k2) then begin
          let p1 = assignment.(k1) and p2 = assignment.(k2) in
          assignment.(k1) <- p2;
          assignment.(k2) <- p1;
          match eval () with
          | Some t when t < !best_period -. 1e-12 ->
              best_period := t;
              improved := true
          | _ ->
              assignment.(k1) <- p1;
              assignment.(k2) <- p2
        end
      done
    done
  done;
  M.make platform g assignment

let time_of f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Instrumentation-overhead baseline for the observability layer: the
   engine local search on the largest preset with the metrics registry
   off vs on. Every hook is a single branch when off, so the gap must
   stay within noise (<2% target). The metrics-on reruns also populate
   the search_* counter families; the resulting registry snapshot lands
   in BENCH_obs.json alongside the timings. *)
let search_obs platform =
  print_endline "== Observability overhead: metrics registry off vs on ==";
  let name, g =
    List.fold_left
      (fun (bn, bg) (n, g) ->
        if G.n_tasks g > G.n_tasks bg then (n, g) else (bn, bg))
      (List.hd (graphs ()))
      (List.tl (graphs ()))
  in
  let start =
    match
      H.best_feasible platform g
        (H.standard_candidates ~with_lp:false platform g)
    with
    | Some (_, m) -> m
    | None -> H.ppe_only platform g
  in
  let min_of_3 f =
    let best = ref infinity in
    for _ = 1 to 3 do
      let _, t = time_of f in
      if t < !best then best := t
    done;
    !best
  in
  let ls () = ignore (H.local_search platform g start) in
  Obs.Metrics.set_enabled false;
  (* Span-tracing overhead on the solver flight-recorder path: the same
     portfolio solve with the default null context vs a live collector.
     The null path is one pattern match per site and the live path a
     few timestamp+CAS pushes per solve, so both rounds must agree
     within the 2% bar; one full re-measure (min over both rounds)
     absorbs scheduler noise before a failure is declared. *)
  let solve span = ignore (Cellsched.Portfolio.solve ~span platform g) in
  let col = Obs.Span.collector () in
  let traced () =
    Obs.Span.clear col;
    solve (Obs.Span.sub (Obs.Span.root col ~trace:"bench") "bench")
  in
  (* Interleave the paired runs so CPU-frequency drift between blocks
     cannot masquerade as overhead, and keep folding rounds of mins in
     until the verdict is clean (or three rounds say it is not). *)
  let measure_spans () =
    let off = ref infinity and on = ref infinity in
    for _ = 1 to 3 do
      let _, t = time_of (fun () -> solve Obs.Span.null) in
      if t < !off then off := t;
      let _, t = time_of traced in
      if t < !on then on := t
    done;
    (!off, !on)
  in
  let span_overhead (off, on) = (on -. off) /. off *. 100. in
  let t_span_off, t_span_on =
    let r = ref (measure_spans ()) in
    let rounds = ref 1 in
    while span_overhead !r > 2. && !rounds < 3 do
      let off', on' = measure_spans () in
      r := (Float.min (fst !r) off', Float.min (snd !r) on');
      incr rounds
    done;
    !r
  in
  let span_pct = span_overhead (t_span_off, t_span_on) in
  traced ();
  let span_count = Obs.Span.count col in
  Printf.printf
    "graph %s: portfolio %.4f s (tracing off) vs %.4f s (on, %d spans): \
     %+.2f%%\n"
    name t_span_off t_span_on span_count span_pct;
  if span_pct > 2. then
    failwith
      (Printf.sprintf
         "span tracing overhead %+.2f%% above the 2%% bar (off %.4f s, on \
          %.4f s)"
         span_pct t_span_off t_span_on);
  let t_off = min_of_3 ls in
  Obs.Metrics.set_enabled true;
  Obs.Metrics.reset Obs.Metrics.default;
  let t_on = min_of_3 ls in
  (* Same one-round re-measure as the span check: the workload is tens
     of milliseconds, where a single scheduler hiccup exceeds 2%. *)
  let t_off, t_on =
    if (t_on -. t_off) /. t_off *. 100. <= 2. then (t_off, t_on)
    else begin
      Obs.Metrics.set_enabled false;
      let off' = min_of_3 ls in
      Obs.Metrics.set_enabled true;
      (Float.min t_off off', Float.min t_on (min_of_3 ls))
    end
  in
  (* The harness's own timings go through the same registry. *)
  let timing state =
    Obs.Metrics.histogram_family
      ~help:"Engine local-search wall time by instrumentation state"
      "bench_local_search_seconds" ~labels:[ "metrics" ] [ state ]
  in
  Obs.Metrics.Histogram.observe (timing "off") t_off;
  Obs.Metrics.Histogram.observe (timing "on") t_on;
  let overhead_pct = (t_on -. t_off) /. t_off *. 100. in
  Printf.printf
    "graph %s: engine ls %.4f s (metrics off) vs %.4f s (on): %+.2f%%\n" name
    t_off t_on overhead_pct;
  if overhead_pct > 2. then
    print_endline "WARNING: instrumentation overhead above the 2% target";
  let oc = open_out "BENCH_obs.json" in
  Printf.fprintf oc
    "{\n\
    \  \"experiment\": \"obs_overhead\",\n\
    \  \"graph\": %S,\n\
    \  \"tasks\": %d,\n\
    \  \"engine_ls_metrics_off_s\": %.6f,\n\
    \  \"engine_ls_metrics_on_s\": %.6f,\n\
    \  \"overhead_pct\": %.3f,\n\
    \  \"portfolio_span_off_s\": %.6f,\n\
    \  \"portfolio_span_on_s\": %.6f,\n\
    \  \"span_overhead_pct\": %.3f,\n\
    \  \"span_count\": %d,\n\
    \  \"registry\": %s\n\
     }\n"
    name (G.n_tasks g) t_off t_on overhead_pct t_span_off t_span_on span_pct
    span_count
    (Obs.Metrics.to_json Obs.Metrics.default);
  close_out oc;
  Obs.Metrics.set_enabled false;
  print_endline "wrote BENCH_obs.json"

let search () =
  print_endline "== Search micro-benchmark: incremental engine vs scratch ==";
  print_endline
    "   (local search through Eval probes vs full per-candidate recompute;\n\
    \    identical mappings required; branch-and-bound timing for context)";
  let platform = P.qs22 () in
  let module M = Cellsched.Mapping in
  let module Search = Cellsched.Mapping_search in
  let table =
    Support.Table.create
      [ "graph"; "tasks"; "scratch ls"; "engine ls"; "speedup"; "same"; "b&b nodes"; "b&b time" ]
  in
  let json_rows = ref [] in
  let ok_94 = ref true in
  List.iter
    (fun (name, g) ->
      let start =
        match
          H.best_feasible platform g
            (H.standard_candidates ~with_lp:false platform g)
        with
        | Some (_, m) -> m
        | None -> H.ppe_only platform g
      in
      let m_scratch, t_scratch =
        time_of (fun () -> local_search_scratch platform g start)
      in
      let m_engine, t_engine =
        time_of (fun () -> H.local_search platform g start)
      in
      let period m = SS.period platform (SS.loads platform g m) in
      let same =
        M.to_array m_scratch = M.to_array m_engine
        && period m_scratch = period m_engine
      in
      let speedup = if t_engine > 0. then t_scratch /. t_engine else infinity in
      if G.n_tasks g >= 90 && (speedup < 2. || not same) then ok_94 := false;
      let bb_options = { Search.default_options with time_limit = 10. } in
      let r, t_bb =
        time_of (fun () -> Search.solve ~options:bb_options platform g)
      in
      Support.Table.add_row table
        [
          name;
          string_of_int (G.n_tasks g);
          Printf.sprintf "%.3f s" t_scratch;
          Printf.sprintf "%.3f s" t_engine;
          Printf.sprintf "%.1fx" speedup;
          (if same then "yes" else "NO");
          string_of_int r.Search.nodes;
          Printf.sprintf "%.3f s" t_bb;
        ];
      json_rows :=
        Printf.sprintf
          "    { \"graph\": %S, \"tasks\": %d, \"scratch_local_search_s\": %.6f,\n\
          \      \"engine_local_search_s\": %.6f, \"speedup\": %.3f,\n\
          \      \"same_mapping\": %b, \"period_s\": %.9g,\n\
          \      \"bb_nodes\": %d, \"bb_time_s\": %.6f, \"bb_period_s\": %.9g }"
          name (G.n_tasks g) t_scratch t_engine speedup same
          (period m_engine) r.Search.nodes t_bb r.Search.period
        :: !json_rows)
    (graphs ());
  Support.Table.print table;
  let oc = open_out "BENCH_eval.json" in
  Printf.fprintf oc
    "{\n  \"experiment\": \"search\",\n  \"platform\": \"QS22 (1 PPE + 8 SPEs)\",\n\
    \  \"rows\": [\n%s\n  ]\n}\n"
    (String.concat ",\n" (List.rev !json_rows));
  close_out oc;
  print_endline "wrote BENCH_eval.json";
  if not !ok_94 then
    print_endline
      "WARNING: engine local search under 2x (or diverged) on the 94-task preset";
  search_obs platform;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* P1 - parallel search: portfolio + B&B on a domain pool vs the       *)
(* sequential fold. Same seeds: the mapping and period must be bitwise *)
(* identical at every pool size; only the wall clock may differ.       *)
(* ------------------------------------------------------------------ *)

(* Standalone entry for the observability regression: the span-tracing
   and metrics overhead bars plus BENCH_obs.json, without the full
   search suite around it. *)
let obs () = search_obs (P.qs22 ())

let search_par () =
  let host = Domain.recommended_domain_count () in
  print_endline "== Parallel search: domain pool vs sequential ==";
  Printf.printf
    "   (portfolio and branch-and-bound; bitwise-identical results required\n\
    \    at every pool size; this host reports %d core(s))\n"
    host;
  let platform = P.qs22 () in
  let module M = Cellsched.Mapping in
  let module Search = Cellsched.Mapping_search in
  let module Pf = Cellsched.Portfolio in
  let sizes = [ 1; 2; 4 ] in
  let quick = !scale < 1. in
  let restarts = if quick then 2 else Pf.default_restarts in
  (* A node budget, not a wall-clock limit, bounds the B&B here: a
     deadline cutoff is timing-dependent and would break the
     bitwise-identity check between runs of different speeds. *)
  let bb_options =
    {
      Search.default_options with
      max_nodes = (if quick then 8_000 else 50_000);
      time_limit = 3600.;
    }
  in
  let bits = Int64.bits_of_float in
  let table =
    Support.Table.create
      [ "graph"; "strategy"; "seq"; "pool=1"; "pool=2"; "pool=4"; "best speedup"; "identical" ]
  in
  let json_rows = ref [] in
  let speedup_gauge strategy domains =
    Obs.Metrics.gauge_family
      ~help:"Measured parallel search speedup over the sequential run"
      "par_speedup" ~labels:[ "strategy"; "domains" ]
      [ strategy; string_of_int domains ]
  in
  let best_speedup = ref 0. in
  let all_identical = ref true in
  let metrics_were_on = Obs.Metrics.enabled () in
  Obs.Metrics.set_enabled true;
  List.iter
    (fun (name, g) ->
      let run_strategy strategy ~seq ~par =
        let (a0, p0), t_seq = time_of seq in
        let runs =
          List.map
            (fun n ->
              Par.Pool.with_pool ~size:n (fun p ->
                  let (a, pd), t = time_of (fun () -> par p) in
                  Par.Pool.publish_stats p;
                  let same = a = a0 && bits pd = bits p0 in
                  let speedup = if t > 0. then t_seq /. t else infinity in
                  Obs.Metrics.Gauge.set (speedup_gauge strategy n) speedup;
                  if speedup > !best_speedup then best_speedup := speedup;
                  if not same then all_identical := false;
                  (n, t, speedup, same)))
            sizes
        in
        let identical = List.for_all (fun (_, _, _, same) -> same) runs in
        let best =
          List.fold_left (fun acc (_, _, s, _) -> Float.max acc s) 0. runs
        in
        Support.Table.add_row table
          (name :: strategy
          :: Printf.sprintf "%.3f s" t_seq
          :: List.map (fun (_, t, _, _) -> Printf.sprintf "%.3f s" t) runs
          @ [
              Printf.sprintf "%.2fx" best;
              (if identical then "yes" else "NO");
            ]);
        json_rows :=
          Printf.sprintf
            "    { \"graph\": %S, \"tasks\": %d, \"strategy\": %S,\n\
            \      \"period_s\": %.9g, \"sequential_s\": %.6f, \"identical\": %b,\n\
            \      \"runs\": [ %s ] }"
            name (G.n_tasks g) strategy p0 t_seq identical
            (String.concat ", "
               (List.map
                  (fun (n, t, s, same) ->
                    Printf.sprintf
                      "{ \"domains\": %d, \"time_s\": %.6f, \"speedup\": %.3f, \
                       \"identical\": %b }"
                      n t s same)
                  runs))
          :: !json_rows
      in
      let portfolio_result r = (M.to_array r.Pf.best, r.Pf.period) in
      run_strategy "portfolio"
        ~seq:(fun () -> portfolio_result (Pf.solve ~restarts platform g))
        ~par:(fun p -> portfolio_result (Pf.solve ~pool:p ~restarts platform g));
      let bb_result (r : Search.result) =
        (M.to_array r.Search.mapping, r.Search.period)
      in
      run_strategy "bb"
        ~seq:(fun () -> bb_result (Search.solve ~options:bb_options platform g))
        ~par:(fun p ->
          bb_result (Search.solve ~options:bb_options ~pool:p platform g)))
    (graphs ());
  Support.Table.print table;
  (* Fan-out identity: the same batch of distinct misses answered
     sequentially and by [Batch.run_view ~pool] (one [parallel_map]
     task per miss). Outputs must be bitwise identical; the other
     number is the raw fiber spawn/await rate, kept while the
     per-layer benchmark still times fibers. *)
  print_endline "-- Batch miss fan-out: pooled batch vs sequential --";
  let batch_requests = if quick then 6 else 12 in
  let random_graph rng n =
    Daggen.Generator.generate ~rng
      ~shape:
        { Daggen.Generator.n; fat = 0.5; density = 0.4; regularity = 0.5; jump = 2 }
      ~costs:Daggen.Generator.default_costs
  in
  let batch_reqs =
    let rng = Support.Rng.create 77 in
    List.init batch_requests (fun i ->
        let g = random_graph rng (8 + (i mod 5)) in
        Service.Request.make
          ~label:(Printf.sprintf "batch-bench-%d" i)
          ~platform ~graph:g
          ~strategy:
            (Service.Request.Bb
               { rel_gap = 0.05; max_nodes = (if quick then 2_000 else 8_000) })
          ~deadline_ms:None ~prio:0)
  in
  let render_all responses =
    String.concat "" (List.map Service.Batch.render responses)
  in
  let batch ?pool () =
    render_all
      (Service.Batch.run_view ?pool
         ~view:(Service.Shard.view (Service.Shard.create ()))
         batch_reqs)
  in
  let out_seq = batch () in
  let out_pooled, t_pooled =
    Par.Pool.with_pool ~size:(min 4 (max 2 host)) (fun pool ->
        time_of (fun () -> batch ~pool ()))
  in
  let batch_identical = String.equal out_seq out_pooled in
  if not batch_identical then all_identical := false;
  (* scheduling-rate microbench: tiny fibers, nothing but spawn/await *)
  let spawn_rate =
    let n = if quick then 20_000 else 100_000 in
    Par.Pool.with_pool ~size:(min 4 (max 2 host)) (fun p ->
        let (), t =
          time_of (fun () ->
              Par.Fiber.run p (fun () ->
                  let fibers =
                    Array.init n (fun i -> Par.Fiber.spawn (fun () -> i + 1))
                  in
                  Array.iter (fun f -> ignore (Par.Fiber.await f)) fibers))
        in
        if t > 0. then float_of_int n /. t else 0.)
  in
  Printf.printf
    "   %d distinct misses: pooled batch %.3f s, identical to sequential: %s\n\
    \   fiber spawn+await round-trips: %.0f /s\n"
    batch_requests t_pooled
    (if batch_identical then "yes" else "NO")
    spawn_rate;
  let oc = open_out "BENCH_par.json" in
  Printf.fprintf oc
    "{\n\
    \  \"experiment\": \"par\",\n\
    \  \"host_cores\": %d,\n\
    \  \"pool_sizes\": [ %s ],\n\
    \  \"all_identical\": %b,\n\
    \  \"best_speedup\": %.3f,\n\
    \  \"pooled_batch\": { \"requests\": %d, \"pooled_s\": %.6f, \"identical\": %b },\n\
    \  \"fiber_spawn_await_per_s\": %.0f,\n\
    \  \"rows\": [\n%s\n  ]\n\
     }\n"
    host
    (String.concat ", " (List.map string_of_int sizes))
    !all_identical !best_speedup batch_requests t_pooled batch_identical
    spawn_rate
    (String.concat ",\n" (List.rev !json_rows));
  close_out oc;
  print_endline "wrote BENCH_par.json";
  if not !all_identical then
    print_endline "WARNING: a pooled run diverged from the sequential result";
  if host = 1 then
    print_endline
      "note: host_cores = 1 — pooled runs cannot beat sequential here;\n\
      \      CI skips the speedup assertions on this host (correctness\n\
      \      checks above still apply)"
  else if !best_speedup < 2. then
    Printf.printf
      "note: best speedup %.2fx below 2x (host has %d core(s); >=2x needs >=4)\n"
      !best_speedup host;
  Obs.Metrics.set_enabled metrics_were_on;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* P2 - B&B closure: the rebuilt optimality path (combinatorial        *)
(* bounds, hardest-first order, portfolio seed, sequential dive +      *)
(* threshold tightening) against the frozen PR-2 baselines, which      *)
(* burned ~2M nodes in 10 s without closing the 50-task presets.       *)
(* ------------------------------------------------------------------ *)

(* BENCH_eval.json numbers of the pre-rebuild engine (PR-2), kept as
   literals so the comparison survives the code they measured. *)
let bb_baselines =
  [
    ("random graph 1", (1_826_816, 0.0652, false));
    ("random graph 3", (2_449_408, 0.0502, false));
  ]

let search_bb () =
  print_endline "== Branch-and-bound closure: rebuilt bounds vs PR-2 baseline ==";
  print_endline
    "   (10 s budget per instance; closed = proven within the 5% default gap)";
  let platform = P.qs22 () in
  let module Search = Cellsched.Mapping_search in
  let bb_options = { Search.default_options with time_limit = 10. } in
  let g150 =
    let rng = Support.Rng.create 45 in
    let g =
      Daggen.Generator.generate ~rng
        ~shape:
          {
            Daggen.Generator.n = 150;
            fat = 0.4;
            density = 0.25;
            regularity = 0.6;
            jump = 2;
          }
        ~costs:Daggen.Generator.default_costs
    in
    Streaming.Ccr.scale_to g ~target:0.775
  in
  let instances = graphs () @ [ ("random graph 150", g150) ] in
  let table =
    Support.Table.create
      [ "graph"; "tasks"; "period"; "bound"; "gap"; "nodes"; "closed";
        "time"; "PR-2 nodes"; "PR-2 period" ]
  in
  let json_rows = ref [] in
  let closed = ref 0 in
  let g13_closed = ref true in
  List.iter
    (fun (name, g) ->
      let r, t = time_of (fun () -> Search.solve ~options:bb_options platform g) in
      if r.Search.optimal_within_gap then incr closed
      else if List.mem_assoc name bb_baselines then g13_closed := false;
      let baseline = List.assoc_opt name bb_baselines in
      Support.Table.add_row table
        [
          name;
          string_of_int (G.n_tasks g);
          Printf.sprintf "%.4g s" r.Search.period;
          Printf.sprintf "%.4g s" r.Search.lower_bound;
          Printf.sprintf "%.2f%%" (100. *. r.Search.gap);
          string_of_int r.Search.nodes;
          (if r.Search.optimal_within_gap then "yes" else "NO");
          Printf.sprintf "%.3f s" t;
          (match baseline with
          | Some (n, _, _) -> string_of_int n
          | None -> "-");
          (match baseline with
          | Some (_, p, c) ->
              Printf.sprintf "%.4g s%s" p (if c then "" else " (open)")
          | None -> "-");
        ];
      json_rows :=
        Printf.sprintf
          "    { \"graph\": %S, \"tasks\": %d, \"period_s\": %.9g,\n\
          \      \"lower_bound_s\": %.9g, \"gap\": %.6f, \"nodes\": %d,\n\
          \      \"closed\": %b, \"time_s\": %.6f%s }"
          name (G.n_tasks g) r.Search.period r.Search.lower_bound r.Search.gap
          r.Search.nodes r.Search.optimal_within_gap t
          (match baseline with
          | Some (n, p, c) ->
              Printf.sprintf
                ",\n\
                \      \"pr2_nodes\": %d, \"pr2_period_s\": %.9g, \
                 \"pr2_closed\": %b"
                n p c
          | None -> "")
        :: !json_rows)
    instances;
  Support.Table.print table;
  let oc = open_out "BENCH_bb.json" in
  Printf.fprintf oc
    "{\n\
    \  \"experiment\": \"bb\",\n\
    \  \"platform\": \"QS22 (1 PPE + 8 SPEs)\",\n\
    \  \"time_budget_s\": %g,\n\
    \  \"closed\": %d,\n\
    \  \"total\": %d,\n\
    \  \"graphs_1_and_3_closed\": %b,\n\
    \  \"rows\": [\n%s\n  ]\n\
     }\n"
    bb_options.Search.time_limit !closed (List.length instances) !g13_closed
    (String.concat ",\n" (List.rev !json_rows));
  close_out oc;
  print_endline "wrote BENCH_bb.json";
  if not !g13_closed then
    print_endline
      "WARNING: a 50-task preset the rebuilt engine must close stayed open";
  print_newline ()

(* Mapping-service latency: cache-hit path (canonicalise + probe +
   transport + validate) vs solve path (full portfolio run) on every
   preset graph. The acceptance bar is a >=10x hit-path advantage; in practice the gap
   is orders of magnitude. BENCH_service.json records both latencies,
   the speedup, and whether each hit reproduced the stored solve
   bitwise (identical resubmission => transport is the identity). *)
let service () =
  print_endline "== Mapping service: cache-hit path vs solve path ==";
  let platform = P.qs22 () in
  let module Pf = Cellsched.Portfolio in
  let quick = !scale < 1. in
  let restarts = if quick then 2 else Pf.default_restarts in
  let hit_reps = 50 in
  let table =
    Support.Table.create
      [ "graph"; "tasks"; "solve"; "hit"; "speedup"; "hit bitwise" ]
  in
  let json_rows = ref [] in
  let min_speedup = ref infinity in
  let all_bitwise = ref true in
  List.iter
    (fun (name, g) ->
      (* Built inside every repetition: the hit path's cost includes
         canonicalising the request, which happens at construction. *)
      let request () =
        Service.Request.make ~label:name ~platform ~graph:g
          ~strategy:
            (Service.Request.Portfolio
               { seed = Pf.default_seed + !seed; restarts })
          ~deadline_ms:None ~prio:0
      in
      let view = Service.Shard.view (Service.Shard.create ()) in
      let one () =
        match Service.Batch.run_view ~view [ request () ] with
        | [ r ] -> r
        | _ -> assert false
      in
      let solved, t_solve = time_of one in
      assert (solved.Service.Batch.source = Service.Batch.Solved);
      (* The hit path is microseconds; amortize over many repeats and
         keep the minimum mean as the noise-resistant estimate. *)
      let best = ref infinity in
      let last = ref solved in
      for _ = 1 to 3 do
        let t0 = Unix.gettimeofday () in
        for _ = 1 to hit_reps do
          last := one ()
        done;
        let t = (Unix.gettimeofday () -. t0) /. float_of_int hit_reps in
        if t < !best then best := t
      done;
      let t_hit = !best in
      assert ((!last).Service.Batch.source = Service.Batch.Hit);
      let bitwise =
        (!last).Service.Batch.assignment = solved.Service.Batch.assignment
        && Int64.bits_of_float (!last).Service.Batch.period
           = Int64.bits_of_float solved.Service.Batch.period
      in
      if not bitwise then all_bitwise := false;
      let speedup = if t_hit > 0. then t_solve /. t_hit else infinity in
      if speedup < !min_speedup then min_speedup := speedup;
      json_rows :=
        Printf.sprintf
          "    { \"graph\": %S, \"tasks\": %d, \"solve_s\": %.6f, \
           \"hit_s\": %.9f, \"speedup\": %.1f, \"hit_bitwise\": %b }"
          name (G.n_tasks g) t_solve t_hit speedup bitwise
        :: !json_rows;
      Support.Table.add_row table
        [
          name;
          string_of_int (G.n_tasks g);
          Printf.sprintf "%.3f s" t_solve;
          Printf.sprintf "%.1f us" (t_hit *. 1e6);
          Printf.sprintf "%.0fx" speedup;
          (if bitwise then "yes" else "NO");
        ])
    (graphs ());
  Support.Table.print table;
  let oc = open_out "BENCH_service.json" in
  Printf.fprintf oc
    "{\n\
    \  \"experiment\": \"service\",\n\
    \  \"hit_reps\": %d,\n\
    \  \"min_speedup\": %.1f,\n\
    \  \"all_hits_bitwise\": %b,\n\
    \  \"rows\": [\n%s\n  ]\n\
     }\n"
    hit_reps !min_speedup !all_bitwise
    (String.concat ",\n" (List.rev !json_rows));
  close_out oc;
  print_endline "wrote BENCH_service.json";
  if !min_speedup < 10. then
    Printf.printf "WARNING: hit-path speedup %.1fx below the 10x target\n"
      !min_speedup;
  print_newline ()

(* Daemon reply latency: a seeded 200-request stream (repeats, mixed
   priorities, a slice of tight deadlines) driven through the server
   engine in pipe discipline — handle_line, then poll — with the reply
   latencies collected by the on_reply hook. The acceptance bar is
   zero dropped replies: every request line gets exactly one reply
   (hit, solved, partial, reject or error). BENCH_daemon.json records
   the p50/p95/p99 reply latency and the reply mix. *)
let daemon () =
  print_endline "== Scheduling daemon: seeded request stream ==";
  let quick = !scale < 1. in
  let n_requests = if quick then 50 else 200 in
  let restarts = if quick then 2 else Cellsched.Portfolio.default_restarts in
  (* Request labels are whitespace-split tokens on the wire. *)
  let presets =
    List.map
      (fun (name, g) ->
        (String.map (fun c -> if c = ' ' then '-' else c) name, g))
      (graphs ())
  in
  let rng = Support.Rng.create (20100419 + !seed) in
  let lines =
    List.init n_requests (fun i ->
        let name, _ = List.nth presets (Support.Rng.int rng (List.length presets)) in
        let spes = [| 4; 6; 8 |].(Support.Rng.int rng 3) in
        let deadline =
          (* Every eighth request gets a budget far below a cold solve:
             those must come back as feasible partials, not drops. *)
          if Support.Rng.int rng 8 = 0 then " deadline=5" else ""
        in
        let prio =
          match Support.Rng.int rng 4 with
          | 0 -> " prio=2"
          | 1 -> " prio=-1"
          | _ -> ""
        in
        Printf.sprintf "%s spes=%d strategy=portfolio seed=%d restarts=%d%s%s id=r%d"
          name spes
          (Cellsched.Portfolio.default_seed + !seed)
          restarts deadline prio i)
  in
  (* Latency percentiles come out of the server's own
     daemon_reply_seconds histogram (log buckets, three per decade),
     estimated by Obs.Metrics quantile interpolation — the same numbers
     a Prometheus scrape of the live daemon would yield. *)
  Obs.Metrics.set_enabled true;
  Obs.Metrics.reset Obs.Metrics.default;
  let statuses = Hashtbl.create 8 in
  let bump k =
    Hashtbl.replace statuses k (1 + Option.value ~default:0 (Hashtbl.find_opt statuses k))
  in
  let on_reply (r : Daemon.Server.reply) =
    bump
      (match r.Daemon.Server.status with
      | `Hit -> "hit"
      | `Solved -> "solved"
      | `Partial -> "partial"
      | `Rejected -> "rejected"
      | `Error _ -> "error")
  in
  let config =
    { Daemon.Server.default_config with bound = n_requests; flush_period = 0. }
  in
  let server =
    Daemon.Server.create ~on_reply
      ~load_graph:(fun name -> List.assoc name presets)
      config
  in
  let out _ = () in
  let _, elapsed =
    time_of (fun () ->
        List.iter
          (fun line ->
            Daemon.Server.handle_line server ~out line;
            Daemon.Server.poll server)
          lines;
        Daemon.Server.finish server)
  in
  let stats = Daemon.Server.stats server in
  let dropped = stats.Daemon.Server.received - stats.Daemon.Server.replies in
  let h_latency =
    Obs.Metrics.histogram ~help:"Daemon reply latency (seconds since receipt)"
      "daemon_reply_seconds"
  in
  let percentile q =
    let v = Obs.Metrics.Histogram.quantile h_latency q in
    if Float.is_nan v then 0. else v
  in
  let p50 = percentile 0.50 and p95 = percentile 0.95 and p99 = percentile 0.99 in
  Obs.Metrics.set_enabled false;
  let count k = Option.value ~default:0 (Hashtbl.find_opt statuses k) in
  Printf.printf
    "%d request(s) in %.2f s: %d hit, %d solved, %d partial, %d rejected, %d \
     error(s); %d dropped\n"
    stats.Daemon.Server.received elapsed (count "hit") (count "solved")
    (count "partial") (count "rejected") (count "error") dropped;
  Printf.printf "reply latency: p50 %.3f ms, p95 %.3f ms, p99 %.3f ms\n"
    (p50 *. 1e3) (p95 *. 1e3) (p99 *. 1e3);
  let oc = open_out "BENCH_daemon.json" in
  Printf.fprintf oc
    "{\n\
    \  \"experiment\": \"daemon\",\n\
    \  \"requests\": %d,\n\
    \  \"replies\": %d,\n\
    \  \"dropped\": %d,\n\
    \  \"hits\": %d,\n\
    \  \"solved\": %d,\n\
    \  \"partials\": %d,\n\
    \  \"rejected\": %d,\n\
    \  \"errors\": %d,\n\
    \  \"elapsed_s\": %.3f,\n\
    \  \"latency_ms\": { \"p50\": %.6f, \"p95\": %.6f, \"p99\": %.6f }\n\
     }\n"
    stats.Daemon.Server.received stats.Daemon.Server.replies dropped
    (count "hit") (count "solved") (count "partial") (count "rejected")
    (count "error") elapsed (p50 *. 1e3) (p95 *. 1e3) (p99 *. 1e3);
  close_out oc;
  print_endline "wrote BENCH_daemon.json";
  if dropped <> 0 then
    Printf.printf "WARNING: %d request(s) never got a reply\n" dropped;
  print_newline ()

(* Traffic: the daemon engine under a seeded zipfian request stream at
   skew {0.8,1.1}. Each point replays its stream (Workload is
   deterministic) through a fresh single-threaded server. The hit-rate
   curve replays each stream against shrinking byte budgets with the
   solves pre-computed (a pure cache simulation: hit/miss
   classification does not depend on how a miss was filled), and must
   be monotone in the budget by the LRU inclusion property. *)
let traffic () =
  print_endline "== Traffic: the daemon cache under zipfian load ==";
  let quick = !scale < 1. in
  let n_requests = if quick then 240 else 1200 in
  let restarts = if quick then 2 else Cellsched.Portfolio.default_restarts in
  (* Request labels are whitespace-split tokens on the wire. The paper
     presets alone make too small a population for a cache-pressure
     sweep, so a tail of small seeded daggen graphs pads it out — the
     hot head stays dominated by the presets under zipf ranking. *)
  let presets =
    List.map
      (fun (name, g) ->
        (String.map (fun c -> if c = ' ' then '-' else c) name, g))
      (graphs ())
    @ List.init 13 (fun i ->
          let rng = Support.Rng.create (7100 + i) in
          let shape =
            {
              Daggen.Generator.n = 10 + (i mod 4);
              fat = 1.5;
              density = 0.4;
              regularity = 0.5;
              jump = 2;
            }
          in
          ( Printf.sprintf "tail-%02d" i,
            Daggen.Generator.generate ~rng ~shape
              ~costs:Daggen.Generator.default_costs ))
  in
  let spec skew =
    {
      Service.Workload.seed = 20100419 + !seed;
      requests = n_requests;
      skew;
      graphs = presets;
      spes = [ 4; 8 ];
      strategies =
        [
          Service.Request.Portfolio
            { seed = Cellsched.Portfolio.default_seed + !seed; restarts };
        ];
    }
  in
  let skews = [ 0.8; 1.1 ] in
  Obs.Metrics.set_enabled true;
  let run_point lines =
    Obs.Metrics.reset Obs.Metrics.default;
    let config =
      { Daemon.Server.default_config with bound = n_requests; flush_period = 0. }
    in
    let server =
      Daemon.Server.create
        ~load_graph:(fun name -> List.assoc name presets)
        config
    in
    let _, elapsed =
      time_of (fun () ->
          List.iter
            (fun line ->
              Daemon.Server.handle_line server ~out:ignore line;
              Daemon.Server.poll server)
            lines;
          Daemon.Server.finish server)
    in
    let stats = Daemon.Server.stats server in
    let h =
      Obs.Metrics.histogram
        ~help:"Daemon reply latency (seconds since receipt)"
        "daemon_reply_seconds"
    in
    let pct q =
      let v = Obs.Metrics.Histogram.quantile h q in
      if Float.is_nan v then 0. else v
    in
    (elapsed, stats, (pct 0.50, pct 0.95, pct 0.99))
  in
  let table =
    Support.Table.create [ "skew"; "req/s"; "p50"; "p95"; "p99"; "hit" ]
  in
  let point_rows = ref [] in
  let total_dropped = ref 0 in
  List.iter
    (fun skew ->
      let elapsed, stats, (p50, p95, p99) =
        run_point Service.Workload.(lines ~ids:true (generate (spec skew)))
      in
      let dropped =
        stats.Daemon.Server.received - stats.Daemon.Server.replies
      in
      total_dropped := !total_dropped + dropped;
      let rps = float_of_int stats.Daemon.Server.replies /. elapsed in
      let hit_rate =
        float_of_int stats.Daemon.Server.hits
        /. float_of_int (max 1 stats.Daemon.Server.received)
      in
      point_rows :=
        Printf.sprintf
          "    { \"skew\": %.2f, \"requests\": %d, \"rps\": %.1f, \
           \"latency_ms\": { \"p50\": %.6f, \"p95\": %.6f, \"p99\": %.6f \
           }, \"hits\": %d, \"solved\": %d, \"dropped\": %d }"
          skew stats.Daemon.Server.received rps (p50 *. 1e3) (p95 *. 1e3)
          (p99 *. 1e3) stats.Daemon.Server.hits stats.Daemon.Server.solved
          dropped
        :: !point_rows;
      Support.Table.add_row table
        [
          Printf.sprintf "%.2f" skew;
          Printf.sprintf "%.0f" rps;
          Printf.sprintf "%.2f ms" (p50 *. 1e3);
          Printf.sprintf "%.2f ms" (p95 *. 1e3);
          Printf.sprintf "%.2f ms" (p99 *. 1e3);
          Printf.sprintf "%.0f%%" (hit_rate *. 100.);
        ])
    skews;
  (* Hit rate vs cache bytes: replay against shrinking budgets with
     every solve pre-computed once. *)
  let curve_rows = ref [] in
  let monotone = ref true in
  List.iter
    (fun skew ->
      let stream = Service.Workload.generate (spec skew) in
      let base =
        Service.Shard.create ~max_entries:(1 lsl 20) ~max_bytes:(1 lsl 30) ()
      in
      let entries = Hashtbl.create 64 in
      Array.iter
        (fun r ->
          let fp = Service.Request.fingerprint r in
          if not (Hashtbl.mem entries fp) then begin
            ignore
              (Service.Batch.run_view ~view:(Service.Shard.view base) [ r ]);
            match Service.Shard.find base fp with
            | Some e -> Hashtbl.add entries fp e
            | None -> assert false
          end)
        stream;
      let total_bytes = Service.Shard.bytes_used base in
      let budgets =
        [
          max 256 (total_bytes / 4);
          max 256 (total_bytes / 2);
          max 256 (3 * total_bytes / 4);
          total_bytes + 1024;
        ]
      in
      let previous = ref (-1.) in
      List.iter
        (fun budget ->
          let view =
            Service.Shard.view
              (Service.Shard.create ~max_entries:(1 lsl 20) ~max_bytes:budget
                 ())
          in
          let hits = ref 0 in
          Array.iter
            (fun r ->
              let fp = Service.Request.fingerprint r in
              match view.Service.Cache.probe fp with
              | Some _ -> incr hits
              | None -> view.Service.Cache.insert (Hashtbl.find entries fp))
            stream;
          let rate = float_of_int !hits /. float_of_int (Array.length stream) in
          if rate < !previous then monotone := false;
          previous := rate;
          curve_rows :=
            Printf.sprintf
              "    { \"skew\": %.2f, \"cache_bytes\": %d, \"hit_rate\": %.4f }"
              skew budget rate
            :: !curve_rows)
        budgets)
    skews;
  Obs.Metrics.set_enabled false;
  Support.Table.print table;
  let oc = open_out "BENCH_traffic.json" in
  Printf.fprintf oc
    "{\n\
    \  \"experiment\": \"traffic\",\n\
    \  \"seed\": %d,\n\
    \  \"requests_per_point\": %d,\n\
    \  \"population\": %d,\n\
    \  \"dropped\": %d,\n\
    \  \"hit_rate_monotone\": %b,\n\
    \  \"points\": [\n%s\n  ],\n\
    \  \"hit_rate_curve\": [\n%s\n  ]\n\
     }\n"
    (20100419 + !seed) n_requests
    (Array.length (Service.Workload.population (spec 1.1)))
    !total_dropped !monotone
    (String.concat ",\n" (List.rev !point_rows))
    (String.concat ",\n" (List.rev !curve_rows));
  close_out oc;
  print_endline "wrote BENCH_traffic.json";
  if !total_dropped <> 0 then
    Printf.printf "WARNING: %d request(s) never got a reply\n" !total_dropped;
  if not !monotone then
    print_endline "WARNING: hit rate not monotone in the cache budget";
  print_newline ()
