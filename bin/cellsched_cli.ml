(* Command-line interface to the scheduling framework.

   Subcommands:
     generate   produce a random streaming application (DagGen-style)
     info       summarize a graph file (tasks, edges, CCR, depth)
     map        compute a mapping with a chosen strategy
     simulate   run a mapped stream through the Cell simulator
     compare    run every strategy side by side on one graph
     schedule   print the periodic steady-state schedule
     faults     inject faults and recover online by remapping
     batch      answer a stream of mapping requests through the mapping cache
     serve      long-lived scheduling server (stdin pipe or Unix socket)
     cache      inspect or reset a persistent mapping cache
     obs        map + simulate with metrics on, dump the registry
     dot        export a graph to Graphviz

   map, simulate and faults accept --metrics FILE to dump the metrics
   registry (JSON, or Prometheus text for .prom files); simulate also
   exports Chrome trace JSON (--trace-json) and the throughput ramp-up
   curve (--rampup-csv). map --trace-json records the solve as
   request-scoped spans (rendered by obs spans), and serve --trace-dir
   writes one such file per completed request. File-writing options
   refuse to overwrite existing files unless --force is given. *)

open Cmdliner

(* --- shared arguments ---------------------------------------------------- *)

let graph_arg =
  let doc = "Application graph file (cellstream text format)." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"GRAPH" ~doc)

let n_spe_arg =
  let doc = "Number of SPEs (0-8)." in
  Arg.(value & opt int 8 & info [ "spes" ] ~docv:"N" ~doc)

let strategy_arg =
  let strategies =
    [
      ("milp", `Milp);
      ("greedy-mem", `Greedy_mem);
      ("greedy-cpu", `Greedy_cpu);
      ("density-pack", `Density);
      ("lp-round", `Lp_round);
      ("ppe-only", `Ppe_only);
      ("portfolio", `Portfolio);
      ("bb", `Bb);
    ]
  in
  let doc =
    Printf.sprintf "Mapping strategy: %s."
      (String.concat ", " (List.map fst strategies))
  in
  Arg.(value & opt (enum strategies) `Milp & info [ "strategy"; "s" ] ~doc)

let parallel_opt doc =
  Arg.(
    value
    & opt ~vopt:(Some 0) (some int) None
    & info [ "parallel" ] ~docv:"N" ~doc)

let parallel_arg =
  parallel_opt
    "Run the search on a domain pool of $(docv) workers (0 or no value: \
     CELLSTREAM_DOMAINS, else the recommended domain count). Results are \
     bitwise identical to the sequential run."

(* Run [f] with the pool the --parallel option asks for (none by
   default); the pool's lifetime is the call, and its worker stats are
   published into the metrics registry before shutdown. *)
let with_optional_pool parallel f =
  match parallel with
  | None -> f None
  | Some n ->
      let size = if n <= 0 then Par.Pool.default_size () else n in
      Par.Pool.with_pool ~size (fun pool ->
          Fun.protect
            ~finally:(fun () -> Par.Pool.publish_stats pool)
            (fun () -> f (Some pool)))

let gap_arg =
  let doc = "Relative optimality gap for the MILP solver (paper: 0.05)." in
  Arg.(value & opt float 0.05 & info [ "gap" ] ~doc)

let time_limit_arg =
  let doc = "MILP time limit in seconds." in
  Arg.(value & opt float 30. & info [ "time-limit" ] ~doc)

let platform_of n_spe = Cell.Platform.qs22 ~n_spe ()

let load_graph path = Streaming.Serialize.of_file path

(* A solver's proof obligations alongside its mapping: the proven lower
   bound on the period, the implied gap, and whether the gap target was
   actually certified (vs a limit stopping the search early). *)
type bound_report = { lower_bound : float; bound_gap : float; proven : bool }

let compute_mapping_bounded ?(span = Obs.Span.null) strategy ~gap ~time_limit
    ?should_stop ?pool platform g =
  match strategy with
  | `Ppe_only -> (Cellsched.Heuristics.ppe_only platform g, None)
  | `Greedy_mem -> (Cellsched.Heuristics.greedy_mem platform g, None)
  | `Greedy_cpu -> (Cellsched.Heuristics.greedy_cpu platform g, None)
  | `Density -> (Cellsched.Heuristics.density_pack platform g, None)
  | `Lp_round -> (Cellsched.Heuristics.lp_rounding platform g, None)
  | `Portfolio ->
      let r = Cellsched.Portfolio.solve ~span ?pool ?should_stop platform g in
      let p = r.Cellsched.Portfolio.period in
      ( r.Cellsched.Portfolio.best,
        Some
          {
            lower_bound = r.Cellsched.Portfolio.lower_bound;
            bound_gap =
              (if p > 0. && Float.is_finite p then
                 (p -. r.Cellsched.Portfolio.lower_bound) /. p
               else 0.);
            proven = false;
          } )
  | `Bb ->
      let options =
        {
          Cellsched.Mapping_search.default_options with
          rel_gap = gap;
          time_limit;
        }
      in
      let r =
        Cellsched.Mapping_search.solve ~span ~options ?should_stop ?pool
          platform g
      in
      ( r.Cellsched.Mapping_search.mapping,
        Some
          {
            lower_bound = r.Cellsched.Mapping_search.lower_bound;
            bound_gap = r.Cellsched.Mapping_search.gap;
            proven = r.Cellsched.Mapping_search.optimal_within_gap;
          } )
  | `Milp ->
      let options =
        {
          Cellsched.Milp_solver.default_options with
          rel_gap = gap;
          time_limit;
        }
      in
      let r =
        Cellsched.Milp_solver.solve ~span ~options ?should_stop ?pool platform g
      in
      ( r.Cellsched.Milp_solver.mapping,
        Some
          {
            lower_bound = r.Cellsched.Milp_solver.lower_bound;
            bound_gap = r.Cellsched.Milp_solver.gap;
            proven = r.Cellsched.Milp_solver.proven_within_gap;
          } )

let compute_mapping strategy ~gap ~time_limit ?should_stop ?pool platform g =
  fst
    (compute_mapping_bounded strategy ~gap ~time_limit ?should_stop ?pool
       platform g)

let report_bound = function
  | None -> ()
  | Some { lower_bound; bound_gap; proven } ->
      Format.printf "lower bound: %.6g s (gap %.2f%%, %s)@." lower_bound
        (100. *. bound_gap)
        (if proven then "proven within target gap" else "not proven optimal")

let report_mapping platform g mapping =
  Format.printf "%a@." (Cellsched.Mapping.pp platform g) mapping;
  (* One engine evaluation answers violations, bottleneck and throughput. *)
  let ev = Cellsched.Eval.create platform g mapping in
  List.iter
    (fun v ->
      Format.printf "violation: %a@."
        (Cellsched.Steady_state.pp_violation platform)
        v)
    (Cellsched.Eval.violations ev);
  let resource, time = Cellsched.Eval.bottleneck ev in
  let period = Cellsched.Eval.period ev in
  Format.printf "predicted throughput: %.2f instances/s@."
    (if period <= 0. then infinity else 1. /. period);
  Format.printf "bottleneck: %a (%.4f ms per instance)@."
    (Cellsched.Steady_state.pp_resource platform)
    resource (time *. 1e3)

(* --- observability plumbing ----------------------------------------------- *)

let force_arg =
  let doc = "Overwrite output files that already exist." in
  Arg.(value & flag & info [ "force" ] ~doc)

let metrics_arg =
  let doc =
    "Enable the metrics registry and dump it to $(docv) after the run \
     (JSON, or Prometheus text exposition when $(docv) ends in .prom)."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

(* Output files refuse to clobber unless --force was given. *)
let write_file ~force path contents =
  if (not force) && Sys.file_exists path then begin
    Printf.eprintf
      "cellsched: %s exists, not overwriting (pass --force to replace)\n" path;
    exit 2
  end;
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents);
  Printf.printf "wrote %s\n" path

let enable_metrics = function
  | None -> ()
  | Some _ -> Obs.Metrics.set_enabled true

let dump_metrics ~force = function
  | None -> ()
  | Some path ->
      let render =
        if Filename.check_suffix path ".prom" then Obs.Metrics.to_prometheus
        else Obs.Metrics.to_json
      in
      write_file ~force path (render Obs.Metrics.default)

(* --- generate ------------------------------------------------------------ *)

let generate_cmd =
  let run n fat density regularity jump chain ccr seed output =
    let rng = Support.Rng.create seed in
    let costs = Daggen.Generator.default_costs in
    let g =
      if chain then Daggen.Generator.generate_chain ~rng ~n ~costs
      else
        Daggen.Generator.generate ~rng
          ~shape:{ Daggen.Generator.n; fat; density; regularity; jump }
          ~costs
    in
    let g = Streaming.Ccr.scale_to g ~target:ccr in
    (match output with
    | Some path ->
        Streaming.Serialize.to_file g path;
        Printf.printf "wrote %s (%d tasks, %d edges, CCR %.3f)\n" path
          (Streaming.Graph.n_tasks g)
          (Streaming.Graph.n_edges g)
          (Streaming.Ccr.compute g)
    | None -> print_string (Streaming.Serialize.to_string g));
    0
  in
  let n = Arg.(value & opt int 50 & info [ "n" ] ~doc:"Number of tasks.") in
  let fat = Arg.(value & opt float 0.3 & info [ "fat" ] ~doc:"Width factor.") in
  let density =
    Arg.(value & opt float 0.4 & info [ "density" ] ~doc:"Edge probability.")
  in
  let regularity =
    Arg.(value & opt float 0.6 & info [ "regularity" ] ~doc:"Layer regularity.")
  in
  let jump = Arg.(value & opt int 2 & info [ "jump" ] ~doc:"Max layer jump.") in
  let chain =
    Arg.(value & flag & info [ "chain" ] ~doc:"Generate a linear chain.")
  in
  let ccr =
    Arg.(value & opt float 0.775 & info [ "ccr" ] ~doc:"Target CCR.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"PRNG seed.") in
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~doc:"Output file.")
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a random streaming application")
    Term.(
      const run $ n $ fat $ density $ regularity $ jump $ chain $ ccr $ seed
      $ output)

(* --- info ----------------------------------------------------------------- *)

let info_cmd =
  let run path =
    let g = load_graph path in
    Format.printf "%a@." Streaming.Graph.pp g;
    Format.printf "CCR: %.3f@." (Streaming.Ccr.compute g);
    let fp = Cellsched.Steady_state.first_periods g in
    Format.printf "pipeline depth: %d periods@." (Array.fold_left max 0 fp);
    0
  in
  Cmd.v
    (Cmd.info "info" ~doc:"Summarize an application graph")
    Term.(const run $ graph_arg)

(* --- map ------------------------------------------------------------------ *)

let map_cmd =
  let run path n_spe strategy gap time_limit timeout parallel trace_json metrics
      force =
    enable_metrics metrics;
    let g = load_graph path in
    let platform = platform_of n_spe in
    (* --timeout is the daemon's deadline hook on the one-shot path: the
       solver is cancelled when the wall-clock budget expires and its
       best incumbent so far is reported, clearly marked partial. *)
    let fired = Atomic.make false in
    let should_stop =
      match timeout with
      | None -> None
      | Some ms ->
          if not (Float.is_finite ms && ms > 0.) then begin
            Printf.eprintf
              "cellsched: --timeout %g must be a positive number of ms\n" ms;
            exit 2
          end;
          let deadline = Unix.gettimeofday () +. (ms /. 1000.) in
          Some
            (fun () ->
              if Unix.gettimeofday () > deadline then begin
                Atomic.set fired true;
                true
              end
              else false)
    in
    (* One collector per run; the root "map" span covers the whole solve
       and the solver's flight-recorder spans nest under it. *)
    let trace =
      Option.map (fun file -> (file, Obs.Span.collector ())) trace_json
    in
    let solve span =
      with_optional_pool parallel (fun pool ->
          compute_mapping_bounded ~span strategy ~gap ~time_limit ?should_stop
            ?pool platform g)
    in
    let mapping, bound =
      match trace with
      | None -> solve Obs.Span.null
      | Some (_, col) ->
          Obs.Span.with_span (Obs.Span.root col ~trace:"map") "map" solve
    in
    if Atomic.get fired then
      Format.printf
        "PARTIAL: --timeout %g ms expired; showing the best incumbent found@."
        (Option.get timeout);
    report_mapping platform g mapping;
    report_bound bound;
    (match trace with
    | None -> ()
    | Some (file, col) ->
        write_file ~force file (Obs.Span.to_chrome_json (Obs.Span.spans col)));
    dump_metrics ~force metrics;
    0
  in
  let timeout =
    let doc =
      "Cancel the solve after $(docv) milliseconds of wall-clock time and \
       report the best (always feasible) incumbent found so far; the output \
       is then prefixed with a PARTIAL marker. Applies to the portfolio, bb \
       and milp strategies (the greedy heuristics are effectively instant)."
    in
    Arg.(value & opt (some float) None & info [ "timeout" ] ~docv:"MS" ~doc)
  in
  let trace_json =
    let doc =
      "Record the solve as request-scoped spans and write them as Chrome \
       trace_event JSON to $(docv) (open in chrome://tracing or Perfetto, \
       or render with $(b,cellsched obs spans)). The portfolio, bb and milp \
       strategies contribute flight-recorder spans (entrants, dives, \
       subtrees, node counts); the greedy heuristics record only the root."
    in
    Arg.(value & opt (some string) None & info [ "trace-json" ] ~docv:"FILE" ~doc)
  in
  Cmd.v
    (Cmd.info "map" ~doc:"Compute a mapping of a graph onto the Cell")
    Term.(
      const run $ graph_arg $ n_spe_arg $ strategy_arg $ gap_arg
      $ time_limit_arg $ timeout $ parallel_arg $ trace_json $ metrics_arg
      $ force_arg)

(* --- simulate -------------------------------------------------------------- *)

let simulate_cmd =
  let run path n_spe strategy gap time_limit instances gantt svg trace_json
      rampup_csv metrics force =
    enable_metrics metrics;
    let g = load_graph path in
    let platform = platform_of n_spe in
    let mapping = compute_mapping strategy ~gap ~time_limit platform g in
    report_mapping platform g mapping;
    let trace =
      if gantt || svg <> None || trace_json <> None then
        Some (Simulator.Trace.create ())
      else None
    in
    (* The runtime stamps events with simulated time, so the sink clock is
       irrelevant; a fake clock keeps the output reproducible. *)
    let sink =
      if trace_json <> None then
        Obs.Events.ring ~clock:(Obs.Events.Clock.fake ()) ()
      else Obs.Events.null
    in
    let m = Simulator.Runtime.run ?trace ~sink platform g mapping ~instances in
    Format.printf
      "simulated %d instances in %.3f s@.steady throughput: %.2f instances/s@.transfers: %d (%.1f kB)@."
      m.Simulator.Runtime.instances m.Simulator.Runtime.makespan
      m.Simulator.Runtime.steady_throughput m.Simulator.Runtime.transfers
      (m.Simulator.Runtime.bytes_transferred /. 1024.);
    (match rampup_csv with
    | None -> ()
    | Some file ->
        (* Throughput ramp-up towards the steady-state plateau (the curve
           of the paper's Fig. 6), as data. *)
        let buf = Buffer.create 1024 in
        Buffer.add_string buf "instances,time_s,throughput_per_s\n";
        List.iter
          (fun (i, tput) ->
            Buffer.add_string buf
              (Printf.sprintf "%d,%.9g,%.9g\n" i
                 m.Simulator.Runtime.completion_times.(i - 1)
                 tput))
          (Simulator.Runtime.throughput_curve m ~points:100);
        write_file ~force file (Buffer.contents buf));
    (match trace with
    | None -> ()
    | Some trace ->
        (* Show the steady-state regime: a window in the middle. *)
        let mid = m.Simulator.Runtime.makespan /. 2. in
        let span = m.Simulator.Runtime.makespan /. 50. in
        if gantt then
          print_string
            (Simulator.Trace.gantt ~from_time:mid ~to_time:(mid +. span)
               platform trace);
        (match svg with
        | Some file ->
            write_file ~force file
              (Simulator.Trace.to_svg ~from_time:mid ~to_time:(mid +. span)
                 platform trace)
        | None -> ());
        match trace_json with
        | Some file ->
            write_file ~force file
              (Simulator.Trace.to_chrome
                 ~extra:(Obs.Events.events sink)
                 platform trace)
        | None -> ());
    dump_metrics ~force metrics;
    0
  in
  let instances =
    Arg.(value & opt int 5000 & info [ "instances"; "n" ] ~doc:"Stream length.")
  in
  let gantt =
    Arg.(value & flag & info [ "gantt" ] ~doc:"Print an ASCII Gantt chart of a steady-state window.")
  in
  let svg =
    Arg.(value & opt (some string) None & info [ "svg" ] ~doc:"Write an SVG Gantt chart to this file.")
  in
  let trace_json =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-json" ] ~docv:"FILE"
          ~doc:
            "Write the full run as Chrome trace_event JSON (open in \
             chrome://tracing or Perfetto): one lane per PE plus DMA-queue, \
             buffer-occupancy and throughput counter tracks.")
  in
  let rampup_csv =
    Arg.(
      value
      & opt (some string) None
      & info [ "rampup-csv" ] ~docv:"FILE"
          ~doc:
            "Write the cumulative-throughput ramp-up timeseries \
             (instances,time,throughput) as CSV.")
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Simulate a mapped stream on the Cell")
    Term.(
      const run $ graph_arg $ n_spe_arg $ strategy_arg $ gap_arg
      $ time_limit_arg $ instances $ gantt $ svg $ trace_json $ rampup_csv
      $ metrics_arg $ force_arg)

(* --- schedule --------------------------------------------------------------- *)

let schedule_cmd =
  let run path n_spe strategy gap time_limit period =
    let g = load_graph path in
    let platform = platform_of n_spe in
    let mapping = compute_mapping strategy ~gap ~time_limit platform g in
    let sched = Cellsched.Schedule.build platform g mapping in
    Format.printf "throughput: %.2f instances/s, warmup %d periods@.@."
      (Cellsched.Schedule.throughput sched)
      (Cellsched.Schedule.warmup_periods sched);
    Cellsched.Schedule.pp_period sched g platform period Format.std_formatter ();
    Format.print_newline ();
    0
  in
  let period =
    Arg.(value & opt int 0 & info [ "period" ] ~doc:"Period index to print.")
  in
  Cmd.v
    (Cmd.info "schedule" ~doc:"Print the periodic steady-state schedule")
    Term.(
      const run $ graph_arg $ n_spe_arg $ strategy_arg $ gap_arg
      $ time_limit_arg $ period)

(* --- compare ----------------------------------------------------------------- *)

let compare_cmd =
  let run path n_spe gap time_limit instances =
    let g = load_graph path in
    let platform = platform_of n_spe in
    let strategies =
      Cellsched.Heuristics.standard_candidates ~with_lp:true platform g
      @ [
          ( "milp",
            (Cellsched.Milp_solver.solve
               ~options:
                 {
                   Cellsched.Milp_solver.default_options with
                   rel_gap = gap;
                   time_limit;
                 }
               platform g)
              .Cellsched.Milp_solver.mapping );
        ]
    in
    let base =
      Cellsched.Steady_state.throughput platform g
        (Cellsched.Heuristics.ppe_only platform g)
    in
    let table =
      Support.Table.create
        [ "strategy"; "feasible"; "predicted/s"; "simulated/s"; "speed-up"; "bottleneck" ]
    in
    List.iter
      (fun (name, mapping) ->
        let feasible = Cellsched.Steady_state.feasible platform g mapping in
        let loads = Cellsched.Steady_state.loads platform g mapping in
        let predicted = Cellsched.Steady_state.throughput platform g mapping in
        let deployable =
          List.for_all
            (function Cellsched.Steady_state.Memory _ -> false | _ -> true)
            (Cellsched.Steady_state.violations platform g mapping)
        in
        let simulated =
          if deployable then
            Printf.sprintf "%.2f"
              (Simulator.Runtime.run platform g mapping ~instances)
                .Simulator.Runtime.steady_throughput
          else "-"
        in
        let resource, _ = Cellsched.Steady_state.bottleneck platform loads in
        Support.Table.add_row table
          [
            name;
            string_of_bool feasible;
            Printf.sprintf "%.2f" predicted;
            simulated;
            Printf.sprintf "%.2f" (predicted /. base);
            Format.asprintf "%a" (Cellsched.Steady_state.pp_resource platform) resource;
          ])
      strategies;
    Support.Table.print table;
    0
  in
  let instances =
    Arg.(value & opt int 3000 & info [ "instances"; "n" ] ~doc:"Stream length.")
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:"Compare every mapping strategy on a graph (predicted + simulated)")
    Term.(const run $ graph_arg $ n_spe_arg $ gap_arg $ time_limit_arg $ instances)

(* --- faults ----------------------------------------------------------------- *)

let fail_spec_conv =
  let parse s =
    try Scanf.sscanf s "%d@%f" (fun spe t -> Ok (spe, t))
    with _ -> Error (`Msg "expected SPE@TIME, e.g. 3@0.25")
  in
  let print ppf (spe, t) = Format.fprintf ppf "%d@@%g" spe t in
  Arg.conv (parse, print)

let interval_spec_conv =
  let parse s =
    try
      Scanf.sscanf s "%d@%f:%fx%f" (fun pe t1 t2 f -> Ok (pe, t1, t2, f))
    with _ -> Error (`Msg "expected PE@FROM:UNTILxFACTOR, e.g. 2@0.1:0.5x3")
  in
  let print ppf (pe, t1, t2, f) =
    Format.fprintf ppf "%d@@%g:%gx%g" pe t1 t2 f
  in
  Arg.conv (parse, print)

let json_float v =
  if Float.is_nan v then "null" else Printf.sprintf "%.9g" v

let report_json platform (report : Resilience.Controller.report) =
  let module C = Resilience.Controller in
  let incident (i : C.incident) =
    Printf.sprintf
      "{\"failed_pes\":[%s],\"stall_time\":%s,\"detection_time\":%s,\
       \"recovery_time\":%s,\"remap_cost\":%s,\"migration_cost\":%s,\
       \"migrated_tasks\":%d,\"lost_instances\":%d,\"strategy\":\"%s\",\
       \"predicted_period\":%s}"
      (String.concat ","
         (List.map
            (fun pe -> Printf.sprintf "\"%s\"" (Cell.Platform.pe_name platform pe))
            i.C.failed_pes))
      (json_float i.C.stall_time)
      (json_float i.C.detection_time)
      (json_float i.C.recovery_time)
      (json_float i.C.remap_cost)
      (json_float i.C.migration_cost)
      i.C.migrated_tasks i.C.lost_instances i.C.strategy
      (json_float i.C.predicted_period)
  in
  Printf.sprintf
    "{\"requested\":%d,\"completed\":%d,\"recovered\":%b,\"makespan\":%s,\
     \"baseline_period\":%s,\"final_period\":%s,\"incidents\":[%s]}"
    report.C.requested report.C.completed report.C.recovered
    (json_float report.C.makespan)
    (json_float report.C.baseline_period)
    (json_float report.C.final_period)
    (String.concat "," (List.map incident report.C.incidents))

let faults_cmd =
  let module C = Resilience.Controller in
  let run path n_spe strategy gap time_limit instances fails slowdowns degrades
      random fault_seed horizon policy window threshold gantt svg json metrics
      force =
    enable_metrics metrics;
    let g = load_graph path in
    let platform = platform_of n_spe in
    let mapping = compute_mapping strategy ~gap ~time_limit platform g in
    let loads = Cellsched.Steady_state.loads platform g mapping in
    let period = Cellsched.Steady_state.period platform loads in
    let horizon =
      match horizon with
      | Some h -> h
      | None -> period *. float_of_int instances /. 2.
    in
    let spe_pe spe =
      let spes = Cell.Platform.spes platform in
      match List.nth_opt spes spe with
      | Some pe -> pe
      | None ->
          Printf.eprintf "cellsched: no SPE %d on this platform (0-%d)\n" spe
            (List.length spes - 1);
          exit 2
    in
    let plan =
      try
        let plan =
          List.map
            (fun (spe, t) -> Fault.fail_stop ~pe:(spe_pe spe) ~at:t)
            fails
          @ List.map
              (fun (pe, t1, t2, f) ->
                Fault.slowdown ~pe ~factor:f ~from_:t1 ~until:t2)
              slowdowns
          @ List.map
              (fun (pe, t1, t2, f) ->
                Fault.link_degrade ~pe ~factor:f ~from_:t1 ~until:t2)
              degrades
          @
          if random > 0 then
            Fault.random_campaign
              ~rng:(Support.Rng.create fault_seed)
              ~n_fail_stops:random ~n_slowdowns:random ~n_degrades:random
              platform ~horizon
          else []
        in
        Fault.validate platform plan;
        plan
      with Invalid_argument msg ->
        Printf.eprintf "cellsched: %s\n" msg;
        exit 2
    in
    let options = { C.default_options with policy; window; degradation_threshold = threshold } in
    let trace =
      if gantt || svg <> None then Some (Simulator.Trace.create ()) else None
    in
    if not json then begin
      report_mapping platform g mapping;
      Format.printf "@.fault plan:@.  @[<v>%a@]@.@." (Fault.pp platform) plan
    end;
    let report = C.run ~options ?trace ~faults:plan platform g mapping ~instances in
    if json then print_endline (report_json platform report)
    else Format.printf "%a@." (C.pp_report platform) report;
    (match (trace, report.C.incidents) with
    | None, _ -> ()
    | Some trace, incidents ->
        (* Window the chart around the first incident (or mid-stream). *)
        let from_time, to_time =
          match incidents with
          | i :: _ ->
              let pad = 25. *. period in
              ( Float.max 0. (i.C.stall_time -. pad),
                Float.min report.C.makespan
                  ((if Float.is_nan i.C.recovery_time then i.C.detection_time
                    else i.C.recovery_time)
                  +. (2. *. pad)) )
          | [] ->
              let mid = report.C.makespan /. 2. in
              (mid, mid +. (report.C.makespan /. 50.))
        in
        if gantt then
          print_string (Simulator.Trace.gantt ~from_time ~to_time platform trace);
        match svg with
        | Some file ->
            write_file ~force file
              (Simulator.Trace.to_svg ~from_time ~to_time platform trace)
        | None -> ());
    dump_metrics ~force metrics;
    if report.C.recovered then 0 else 1
  in
  let instances =
    Arg.(value & opt int 5000 & info [ "instances"; "n" ] ~doc:"Stream length.")
  in
  let fails =
    Arg.(
      value
      & opt_all fail_spec_conv []
      & info [ "fail-spe" ] ~docv:"SPE@TIME"
          ~doc:"Fail-stop SPE number $(i,SPE) at $(i,TIME) seconds (repeatable).")
  in
  let slowdowns =
    Arg.(
      value
      & opt_all interval_spec_conv []
      & info [ "slowdown" ] ~docv:"PE@FROM:UNTILxF"
          ~doc:"Slow PE index $(i,PE) by factor $(i,F) over the interval (repeatable).")
  in
  let degrades =
    Arg.(
      value
      & opt_all interval_spec_conv []
      & info [ "degrade" ] ~docv:"PE@FROM:UNTILxF"
          ~doc:"Divide the interface bandwidth of PE $(i,PE) by $(i,F) over the interval (repeatable).")
  in
  let random =
    Arg.(
      value & opt int 0
      & info [ "random" ] ~docv:"K"
          ~doc:"Add a random campaign: $(i,K) fail-stops, slowdowns and degradations each.")
  in
  let fault_seed =
    Arg.(value & opt int 42 & info [ "fault-seed" ] ~doc:"Campaign PRNG seed.")
  in
  let horizon =
    Arg.(
      value
      & opt (some float) None
      & info [ "horizon" ]
          ~doc:"Campaign horizon in seconds (default: half the predicted run).")
  in
  let policy =
    Arg.(
      value
      & opt (enum [ ("heuristic", C.Heuristic); ("refined", C.Refined) ]) C.Heuristic
      & info [ "policy" ] ~doc:"Recovery policy: heuristic, refined.")
  in
  let window =
    Arg.(
      value & opt int 32
      & info [ "window" ] ~doc:"Completions in the failure-detection window.")
  in
  let threshold =
    Arg.(
      value & opt float 0.5
      & info [ "threshold" ]
          ~doc:"Windowed-rate fraction below which the failure alarm fires.")
  in
  let gantt =
    Arg.(
      value & flag
      & info [ "gantt" ] ~doc:"Print an ASCII Gantt chart of the incident.")
  in
  let svg =
    Arg.(
      value
      & opt (some string) None
      & info [ "svg" ] ~doc:"Write an SVG Gantt chart of the incident to this file.")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the recovery report as JSON.")
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:"Inject faults into a simulated stream and recover online")
    Term.(
      const run $ graph_arg $ n_spe_arg $ strategy_arg $ gap_arg
      $ time_limit_arg $ instances $ fails $ slowdowns $ degrades $ random
      $ fault_seed $ horizon $ policy $ window $ threshold $ gantt $ svg
      $ json $ metrics_arg $ force_arg)

(* --- obs -------------------------------------------------------------------- *)

(* Rebuild span records from a Chrome trace file (map --trace-json or a
   daemon --trace-dir file): phase-X events of category "span" carry
   path/trace in args, ts/dur in microseconds. Ids are not serialized —
   the tree renderer works from paths alone, so dummies suffice. *)
let spans_of_chrome_json json =
  let module J = Support.Json in
  let attr_of_json = function
    | J.Bool b -> Obs.Span.Bool b
    | J.Num f ->
        if Float.is_integer f && Float.abs f < 1e15 then
          Obs.Span.Int (int_of_float f)
        else Obs.Span.Float f
    | J.Str s -> Obs.Span.String s
    | v -> Obs.Span.String (J.to_string v)
  in
  let span_of_event ev =
    match
      ( J.member "ph" ev,
        J.member "cat" ev,
        Option.bind (J.member "args" ev) (J.member "path"),
        Option.bind (J.member "ts" ev) J.to_float )
    with
    | Some (J.Str "X"), Some (J.Str "span"), Some (J.Str path), Some ts ->
        let name = Option.bind (J.member "name" ev) J.to_str in
        let trace =
          Option.bind (Option.bind (J.member "args" ev) (J.member "trace"))
            J.to_str
        in
        let dur =
          Option.value ~default:0.
            (Option.bind (J.member "dur" ev) J.to_float)
        in
        let attrs =
          match J.member "args" ev with
          | Some (J.Obj fields) ->
              List.filter_map
                (fun (k, v) ->
                  if k = "path" || k = "trace" then None
                  else Some (k, attr_of_json v))
                fields
          | _ -> []
        in
        Some
          {
            Obs.Span.trace = Option.value ~default:"" trace;
            id = 0L;
            parent = 0L;
            name = Option.value ~default:(Filename.basename path) name;
            path;
            t_start = ts /. 1e6;
            t_stop = (ts +. dur) /. 1e6;
            attrs;
          }
    | _ -> None
  in
  match Option.bind (J.member "traceEvents" json) J.to_list with
  | None -> Error "no traceEvents array (not a Chrome trace file?)"
  | Some events ->
      let spans = List.filter_map span_of_event events in
      Ok
        (List.sort
           (fun (a : Obs.Span.span) b ->
             let c = String.compare a.trace b.trace in
             if c <> 0 then c
             else
               let c = String.compare a.path b.path in
               if c <> 0 then c else Float.compare a.t_start b.t_start)
           spans)

let obs_spans_cmd =
  let run file =
    let contents =
      try In_channel.with_open_bin file In_channel.input_all
      with Sys_error m ->
        Printf.eprintf "cellsched: %s\n" m;
        exit 2
    in
    match Support.Json.parse contents with
    | Error m ->
        Printf.eprintf "cellsched: %s: %s\n" file m;
        2
    | Ok json -> (
        match spans_of_chrome_json json with
        | Error m ->
            Printf.eprintf "cellsched: %s: %s\n" file m;
            2
        | Ok [] ->
            Printf.eprintf "cellsched: %s: no span events\n" file;
            2
        | Ok spans ->
            (* One indented tree per trace id in the file. *)
            let rec by_trace = function
              | [] -> ()
              | (s : Obs.Span.span) :: _ as spans ->
                  let mine, rest =
                    List.partition
                      (fun (x : Obs.Span.span) -> x.Obs.Span.trace = s.trace)
                      spans
                  in
                  Printf.printf "trace %s (%d spans)\n" s.trace
                    (List.length mine);
                  print_string (Obs.Span.render_tree mine);
                  by_trace rest
            in
            by_trace spans;
            0)
  in
  let file =
    let doc =
      "Chrome trace_event JSON file, as written by $(b,map --trace-json) or \
       a daemon $(b,--trace-dir)."
    in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)
  in
  Cmd.v
    (Cmd.info "spans"
       ~doc:
         "Render a recorded span trace as a human-readable tree (one line \
          per span, two-space indent per depth, durations and attributes \
          inline)")
    Term.(const run $ file)

let obs_cmd =
  let run path n_spe strategy gap time_limit instances format =
    (* One instrumented map + simulate pass; the registry goes to stdout. *)
    Obs.Metrics.set_enabled true;
    let g = load_graph path in
    let platform = platform_of n_spe in
    let mapping = compute_mapping strategy ~gap ~time_limit platform g in
    let _ = Simulator.Runtime.run platform g mapping ~instances in
    let render =
      match format with
      | `Json -> Obs.Metrics.to_json
      | `Prom -> Obs.Metrics.to_prometheus
    in
    print_string (render Obs.Metrics.default);
    print_newline ();
    0
  in
  let instances =
    Arg.(value & opt int 2000 & info [ "instances"; "n" ] ~doc:"Stream length.")
  in
  let format =
    Arg.(
      value
      & opt (enum [ ("json", `Json); ("prometheus", `Prom) ]) `Json
      & info [ "format" ] ~doc:"Registry output format: json, prometheus.")
  in
  let registry =
    Term.(
      const run $ graph_arg $ n_spe_arg $ strategy_arg $ gap_arg
      $ time_limit_arg $ instances $ format)
  in
  Cmd.group ~default:registry
    (Cmd.info "obs"
       ~doc:
         "Map and simulate a graph with every metric enabled, then dump the \
          whole registry (solver, search, simulator families) to stdout; \
          the $(b,spans) sub-command renders recorded span traces")
    [ obs_spans_cmd ]

(* --- batch ------------------------------------------------------------------ *)

let batch_cmd =
  let run requests_path n_spe cache_path parallel metrics force =
    enable_metrics metrics;
    let contents =
      match requests_path with
      | "-" -> In_channel.input_all stdin
      | path -> (
          try In_channel.with_open_bin path In_channel.input_all
          with Sys_error m ->
            Printf.eprintf "cellsched: %s\n" m;
            exit 2)
    in
    (* Lines naming the same graph file share one parse. *)
    let load_graph = Service.Request.graph_loader () in
    let requests =
      try
        String.split_on_char '\n' contents
        |> List.mapi (fun i line ->
               Service.Request.parse_line ~load_graph ~default_spes:n_spe
                 (i + 1) line)
        |> List.filter_map Fun.id
      with Failure m ->
        Printf.eprintf "cellsched: %s: %s\n" requests_path m;
        exit 2
    in
    let cache =
      match cache_path with
      | Some path -> Service.Shard.load_files path
      | None -> Service.Shard.create ()
    in
    let responses =
      with_optional_pool parallel (fun pool ->
          Service.Batch.run_view ?pool ~view:(Service.Shard.view cache) requests)
    in
    List.iter (fun r -> print_string (Service.Batch.render r)) responses;
    let hits =
      List.length
        (List.filter (fun r -> r.Service.Batch.source = Service.Batch.Hit)
           responses)
    in
    Printf.eprintf "batch: %d request(s), %d from cache, %d solved\n"
      (List.length responses) hits
      (List.length responses - hits);
    (match cache_path with
    | None -> ()
    | Some path -> (
        (* Read-modify-write of the named cache file: writing back over
           the file we loaded is the contract, no --force needed. *)
        match Service.Shard.save_files ~force:true cache path with
        | Ok () -> ()
        | Error m ->
            Printf.eprintf "cellsched: %s\n" m;
            exit 2));
    dump_metrics ~force metrics;
    0
  in
  let requests =
    let doc =
      "Request file, or - for stdin. One request per line: \
       $(i,GRAPH-FILE) [spes=N] [strategy=portfolio|bb] [seed=N] \
       [restarts=N] [gap=F] [max-nodes=N]; # starts a comment."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"REQUESTS" ~doc)
  in
  let cache =
    let doc =
      "Persistent mapping cache: loaded before the batch (a missing or \
       corrupt file starts empty) and written back after. It is the same \
       file serve --cache reads and flushes. Without this \
       option the batch still deduplicates in memory. With --parallel, \
       distinct misses are solved in parallel over the pool, one task \
       per miss; the output is bitwise identical at any pool size."
    in
    Arg.(value & opt (some string) None & info [ "cache" ] ~docv:"FILE" ~doc)
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Answer a stream of mapping requests, deduplicating by canonical \
          fingerprint and solving only the distinct cache misses")
    Term.(
      const run $ requests $ n_spe_arg $ cache $ parallel_arg $ metrics_arg
      $ force_arg)

(* --- serve ------------------------------------------------------------------ *)

let serve_cmd =
  let run n_spe bound parallel socket cache_path
      cache_entries cache_bytes flush_period metrics_file
      trace_dir =
    if bound <= 0 then begin
      Printf.eprintf "cellsched: --bound must be positive\n";
      exit 2
    end;
    if flush_period < 0. then begin
      Printf.eprintf "cellsched: --flush-period must be >= 0\n";
      exit 2
    end;
    let concurrency =
      match parallel with
      | None -> 1
      | Some n -> if n <= 0 then Par.Pool.default_size () else n
    in
    let config =
      {
        Daemon.Server.default_config with
        default_spes = n_spe;
        bound;
        concurrency;
        cache_path;
        cache_entries;
        cache_bytes;
        flush_period;
        metrics_file;
        trace_dir;
      }
    in
    let t =
      match socket with
      | Some path -> Daemon.Server.serve_socket config ~path
      | None ->
          Daemon.Server.serve_fd config ~input:Unix.stdin ~output:Unix.stdout
    in
    let s = Daemon.Server.stats t in
    Printf.eprintf
      "serve: %d request(s): %d hit, %d solved, %d partial, %d rejected, %d \
       malformed\n"
      s.Daemon.Server.received s.Daemon.Server.hits s.Daemon.Server.solved
      s.Daemon.Server.partials s.Daemon.Server.rejected s.Daemon.Server.errors;
    0
  in
  let bound =
    let doc =
      "Admission bound: maximum queued plus in-flight solves. Further \
       requests are refused with REJECT <id> overload (cache hits are \
       always served)."
    in
    Arg.(value & opt int 64 & info [ "bound" ] ~docv:"N" ~doc)
  in
  let parallel =
    parallel_opt
      "Solve on a domain pool of $(docv) workers (0 or no value: \
       CELLSTREAM_DOMAINS, else the recommended domain count); without it \
       each solve runs inline on the event loop. With a pool, replies leave \
       in completion order, up to $(docv) in-flight duplicates of one \
       request may each solve, and every reply's bytes still equal the \
       inline daemon's (bar the source: line of a duplicate that solved)."
  in
  let socket =
    let doc =
      "Listen on a Unix-domain socket at $(docv) instead of serving \
       stdin/stdout; a stale socket file is replaced and the file is \
       unlinked on exit."
    in
    Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)
  in
  let cache =
    let doc =
      "Persistent mapping cache: loaded warm at start-up, flushed \
       atomically in the background and on shutdown."
    in
    Arg.(value & opt (some string) None & info [ "cache" ] ~docv:"FILE" ~doc)
  in
  let cache_entries =
    Arg.(
      value
      & opt (some int) None
      & info [ "cache-entries" ] ~docv:"N" ~doc:"Cache LRU entry bound.")
  in
  let cache_bytes =
    Arg.(
      value
      & opt (some int) None
      & info [ "cache-bytes" ] ~docv:"N" ~doc:"Cache LRU byte bound.")
  in
  let flush_period =
    let doc =
      "Seconds between background cache/metrics flushes (0 disables the \
       periodic flush; shutdown still flushes)."
    in
    Arg.(value & opt float 30. & info [ "flush-period" ] ~docv:"SEC" ~doc)
  in
  let metrics_file =
    let doc =
      "Rewrite $(docv) with the metrics registry at every flush and on \
       shutdown (Prometheus text, or JSON when $(docv) ends in .json). The \
       METRICS protocol verb serves the same registry inline."
    in
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-file" ] ~docv:"FILE" ~doc)
  in
  let trace_dir =
    let doc =
      "Write each completed request's span tree to $(docv)/<id>.json as \
       Chrome trace_event JSON (the directory is created if missing; later \
       requests reusing an id overwrite the file). The TRACE protocol verb \
       serves the same spans inline whether or not this option is set."
    in
    Arg.(value & opt (some string) None & info [ "trace-dir" ] ~docv:"DIR" ~doc)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the scheduling daemon: a long-lived server answering the batch \
          request grammar line by line, with deadlines, priorities, \
          admission control, a warm persistent cache, live metrics and \
          per-request tracing")
    Term.(
      const run $ n_spe_arg $ bound $ parallel $ socket $ cache $ cache_entries
      $ cache_bytes $ flush_period $ metrics_file $ trace_dir)

(* --- workload --------------------------------------------------------------- *)

let workload_cmd =
  let run graph_files n seed skew spes strategies restarts gap max_nodes ids =
    if graph_files = [] then begin
      Printf.eprintf "cellsched: workload needs at least one graph file\n";
      exit 2
    end;
    let graphs =
      List.map
        (fun file ->
          try (file, load_graph file)
          with Sys_error m ->
            Printf.eprintf "cellsched: %s\n" m;
            exit 2)
        graph_files
    in
    let strategy_of = function
      | "portfolio" ->
          Service.Request.Portfolio
            {
              seed = Cellsched.Portfolio.default_seed;
              restarts =
                Option.value restarts
                  ~default:Cellsched.Portfolio.default_restarts;
            }
      | "bb" ->
          Service.Request.Bb
            {
              rel_gap =
                Option.value gap
                  ~default:Cellsched.Mapping_search.default_options.rel_gap;
              max_nodes = Option.value max_nodes ~default:50_000;
            }
      | s ->
          Printf.eprintf "cellsched: unknown strategy %S (portfolio, bb)\n" s;
          exit 2
    in
    let spec =
      {
        Service.Workload.seed;
        requests = n;
        skew;
        graphs;
        spes;
        strategies = List.map strategy_of strategies;
      }
    in
    match Service.Workload.(lines ~ids (generate spec)) with
    | lines ->
        List.iter print_endline lines;
        0
    | exception Invalid_argument m ->
        Printf.eprintf "cellsched: %s\n" m;
        2
  in
  let graphs =
    let doc = "Graph files forming the request population." in
    Arg.(value & pos_all string [] & info [] ~docv:"GRAPH" ~doc)
  in
  let n =
    Arg.(
      value & opt int 200
      & info [ "n"; "requests" ] ~docv:"N" ~doc:"Stream length.")
  in
  let seed =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"N"
          ~doc:"Generator seed; equal seeds give byte-equal streams.")
  in
  let skew =
    let doc =
      "Zipf skew $(i,s): rank k is drawn with probability proportional to \
       1/(k+1)^s over the graphs x spes x strategies population (0 is \
       uniform; 1.1 is a typical hot-spot web workload)."
    in
    Arg.(value & opt float 1.1 & info [ "skew" ] ~docv:"S" ~doc)
  in
  let spes =
    Arg.(
      value
      & opt (list int) [ 8 ]
      & info [ "spes" ] ~docv:"N,.." ~doc:"SPE counts in the population.")
  in
  let strategies =
    Arg.(
      value
      & opt (list string) [ "portfolio" ]
      & info [ "strategies" ] ~docv:"S,.."
          ~doc:"Solver strategies in the population (portfolio, bb).")
  in
  let restarts =
    Arg.(
      value
      & opt (some int) None
      & info [ "restarts" ] ~docv:"N"
          ~doc:"Portfolio restart count for generated requests.")
  in
  let gap =
    Arg.(
      value
      & opt (some float) None
      & info [ "gap" ] ~docv:"F" ~doc:"B&B relative gap for generated requests.")
  in
  let max_nodes =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-nodes" ] ~docv:"N"
          ~doc:"B&B node budget for generated requests.")
  in
  let ids =
    Arg.(
      value & flag
      & info [ "ids" ]
          ~doc:"Prefix each line with id=rI for daemon-framed replay.")
  in
  Cmd.v
    (Cmd.info "workload"
       ~doc:
         "Print a seeded zipfian request stream (batch/serve grammar) to \
          stdout: the population is graphs x SPE counts x strategies, \
          popularity rank is seed-shuffled, and request I is drawn \
          zipf(skew) — deterministic, so a printed stream is a reproducible \
          load test")
    Term.(
      const run $ graphs $ n $ seed $ skew $ spes $ strategies $ restarts
      $ gap $ max_nodes $ ids)

(* --- traffic ---------------------------------------------------------------- *)

let traffic_cmd =
  let run socket requests_path clients =
    let contents =
      match requests_path with
      | "-" -> In_channel.input_all stdin
      | path -> (
          try In_channel.with_open_bin path In_channel.input_all
          with Sys_error m ->
            Printf.eprintf "cellsched: %s\n" m;
            exit 2)
    in
    (* Any existing id= token is replaced: the replayer owns reply
       correlation, and its ids encode (client, sequence). *)
    let strip_id line =
      if String.starts_with ~prefix:"id=" line then
        match String.index_opt line ' ' with
        | Some i -> String.sub line (i + 1) (String.length line - i - 1)
        | None -> ""
      else line
    in
    let payload =
      String.split_on_char '\n' contents
      |> List.filter_map (fun l ->
             let l = String.trim l in
             if l = "" || l.[0] = '#' then None else Some (strip_id l))
      |> Array.of_list
    in
    if Array.length payload = 0 then begin
      Printf.eprintf "cellsched: no requests in %s\n" requests_path;
      exit 2
    end;
    if clients <= 0 then begin
      Printf.eprintf "cellsched: --clients must be positive\n";
      exit 2
    end;
    (* One closed-loop client per domain: send a request, wait for its
       framed terminal line, measure the round trip, send the next. *)
    let run_client d (slice : string array) =
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (try Unix.connect fd (Unix.ADDR_UNIX socket)
       with Unix.Unix_error (e, _, _) ->
         Printf.eprintf "cellsched: connect %s: %s\n" socket
           (Unix.error_message e);
         exit 2);
      let ic = Unix.in_channel_of_descr fd in
      let latencies = ref [] and statuses = ref [] and dropped = ref 0 in
      (try
         Array.iteri
           (fun i line ->
             let id = Printf.sprintf "c%dr%d" d i in
             let msg = Printf.sprintf "id=%s %s\n" id line in
             let t0 = Unix.gettimeofday () in
             let rec write off =
               if off < String.length msg then
                 write (off + Unix.write_substring fd msg off
                                (String.length msg - off))
             in
             write 0;
             (* Scan to this request's terminal line; reply bodies pass by. *)
             let rec await () =
               let l = input_line ic in
               if String.starts_with ~prefix:("END " ^ id) l then "ok"
               else if String.starts_with ~prefix:("REJECT " ^ id) l then
                 "rejected"
               else if String.starts_with ~prefix:("ERROR " ^ id) l then
                 "error"
               else if
                 String.starts_with ~prefix:("BEGIN " ^ id ^ " partial") l
               then begin
                 ignore (await () : string);
                 "partial"
               end
               else await ()
             in
             let status = await () in
             latencies := (Unix.gettimeofday () -. t0) :: !latencies;
             statuses := status :: !statuses)
           slice
       with End_of_file ->
         dropped :=
           Array.length slice - List.length !latencies);
      (try Unix.close fd with Unix.Unix_error _ -> ());
      (!latencies, !statuses, !dropped)
    in
    let slices =
      Array.init clients (fun d ->
          let n = Array.length payload in
          Array.init
            ((n - d + clients - 1) / clients)
            (fun i -> payload.((i * clients) + d)))
    in
    let t0 = Unix.gettimeofday () in
    let results =
      if clients = 1 then [| run_client 0 slices.(0) |]
      else
        Array.map Domain.join
          (Array.mapi
             (fun d slice -> Domain.spawn (fun () -> run_client d slice))
             slices)
    in
    let wall = Unix.gettimeofday () -. t0 in
    let latencies =
      Array.to_list results |> List.concat_map (fun (l, _, _) -> l)
      |> List.sort compare |> Array.of_list
    in
    let statuses =
      Array.to_list results |> List.concat_map (fun (_, s, _) -> s)
    in
    let dropped =
      Array.to_list results |> List.fold_left (fun a (_, _, d) -> a + d) 0
    in
    let count name = List.length (List.filter (( = ) name) statuses) in
    let pct q =
      let n = Array.length latencies in
      if n = 0 then nan
      else latencies.(min (n - 1) (int_of_float (Float.ceil (q *. float_of_int (n - 1)))))
    in
    let replied = Array.length latencies in
    Printf.printf "traffic: %d request(s), %d client(s), %d replied, %d dropped\n"
      (Array.length payload) clients replied dropped;
    Printf.printf "  ok %d, partial %d, rejected %d, errors %d\n" (count "ok")
      (count "partial") (count "rejected") (count "error");
    Printf.printf "  wall %.3f s, %.1f req/s\n" wall
      (float_of_int replied /. wall);
    if replied > 0 then
      Printf.printf "  latency ms: p50 %.3f  p95 %.3f  p99 %.3f  max %.3f\n"
        (1000. *. pct 0.50) (1000. *. pct 0.95) (1000. *. pct 0.99)
        (1000. *. latencies.(replied - 1));
    if dropped > 0 then 1 else 0
  in
  let socket =
    Arg.(
      required
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Unix-domain socket of a running $(b,cellsched serve).")
  in
  let requests =
    let doc =
      "Request stream to replay (one request-grammar line each, e.g. the \
       output of $(b,cellsched workload)), or - for stdin."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"REQUESTS" ~doc)
  in
  let clients =
    let doc =
      "Concurrent closed-loop clients; the stream is split round-robin and \
       each client runs in its own domain with its own connection."
    in
    Arg.(value & opt int 1 & info [ "clients" ] ~docv:"N" ~doc)
  in
  Cmd.v
    (Cmd.info "traffic"
       ~doc:
         "Replay a request stream against a live daemon socket and report \
          round-trip latency percentiles and throughput (exit 1 if any \
          request went unanswered)")
    Term.(const run $ socket $ requests $ clients)

(* --- cache ------------------------------------------------------------------ *)

let cache_cmd =
  let run path json clear force =
    if clear then begin
      match Service.Cache.save_file ~force (Service.Cache.create ()) path with
      | Ok () ->
          Printf.printf "wrote %s (empty cache)\n" path;
          0
      | Error m ->
          Printf.eprintf "cellsched: %s\n" m;
          2
    end
    else if not (Sys.file_exists path) then begin
      Printf.printf "%s: no cache file (a batch run would start empty)\n" path;
      0
    end
    else begin
      let cache =
        Service.Cache.load_file path ~on_corrupt:(fun reason ->
            Printf.eprintf
              "cellsched: %s: corrupt cache (%s); treating as empty\n" path
              reason)
      in
      let entries = Service.Cache.entries cache in
      if json then print_endline (Service.Cache.entries_to_json_string entries)
      else begin
        let n = Service.Cache.length cache in
        Printf.printf "%s: %d entr%s, ~%d bytes\n" path n
          (if n = 1 then "y" else "ies")
          (Service.Cache.bytes_used cache);
        List.iter
          (fun (e : Service.Cache.entry) ->
            Printf.printf "  %s  %-28s  feasible=%b  period=%.6g s  %s\n"
              e.Service.Cache.fingerprint e.Service.Cache.strategy
              e.Service.Cache.feasible e.Service.Cache.period
              e.Service.Cache.bottleneck)
          entries
      end;
      0
    end
  in
  let path =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE"
          ~doc:"Cache file (as written by batch --cache or serve --cache).")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Dump the cache as JSON.")
  in
  let clear =
    Arg.(
      value & flag
      & info [ "clear" ]
          ~doc:
            "Write an empty cache to $(i,FILE) (refuses to overwrite an \
             existing file without --force).")
  in
  Cmd.v
    (Cmd.info "cache"
       ~doc:"Inspect or reset a persistent mapping cache (MRU first)")
    Term.(const run $ path $ json $ clear $ force_arg)

(* --- dot -------------------------------------------------------------------- *)

let dot_cmd =
  let run path output =
    let g = load_graph path in
    (match output with
    | Some out ->
        Streaming.Dot.to_file g out;
        Printf.printf "wrote %s\n" out
    | None -> print_string (Streaming.Dot.to_string g));
    0
  in
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~doc:"Output file.")
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Export a graph to Graphviz")
    Term.(const run $ graph_arg $ output)

let () =
  let doc = "Steady-state scheduling of streaming applications on the Cell" in
  let info = Cmd.info "cellsched" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            generate_cmd;
            info_cmd;
            map_cmd;
            simulate_cmd;
            schedule_cmd;
            compare_cmd;
            faults_cmd;
            batch_cmd;
            serve_cmd;
            workload_cmd;
            traffic_cmd;
            cache_cmd;
            obs_cmd;
            dot_cmd;
          ]))
