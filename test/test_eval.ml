(* Tests for the incremental evaluation engine: bitwise agreement with
   the from-scratch Steady_state analysis after arbitrary move/swap
   replays, undo/probe purity, and the heuristics' repaired to-PPE DMA
   blind spot. *)

module P = Cell.Platform
module G = Streaming.Graph
module SS = Cellsched.Steady_state
module E = Cellsched.Eval

(* --- exact (bitwise) float comparison ----------------------------------- *)

let bits_eq_arrays name a b =
  if Array.length a <> Array.length b then
    QCheck.Test.fail_reportf "%s: length %d vs %d" name (Array.length a)
      (Array.length b);
  Array.iteri
    (fun i x ->
      if Int64.bits_of_float x <> Int64.bits_of_float b.(i) then
        QCheck.Test.fail_reportf "%s.(%d): %.17g vs %.17g" name i x b.(i))
    a

let check_loads_equal (el : SS.loads) (sl : SS.loads) =
  bits_eq_arrays "compute" el.SS.compute sl.SS.compute;
  bits_eq_arrays "bytes_in" el.SS.bytes_in sl.SS.bytes_in;
  bits_eq_arrays "bytes_out" el.SS.bytes_out sl.SS.bytes_out;
  bits_eq_arrays "memory" el.SS.memory sl.SS.memory;
  bits_eq_arrays "link_out" el.SS.link_out sl.SS.link_out;
  bits_eq_arrays "link_in" el.SS.link_in sl.SS.link_in;
  if el.SS.dma_in <> sl.SS.dma_in then
    QCheck.Test.fail_reportf "dma_in differs";
  if el.SS.dma_to_ppe <> sl.SS.dma_to_ppe then
    QCheck.Test.fail_reportf "dma_to_ppe differs"

(* --- random instances ---------------------------------------------------- *)

let random_graph rng n =
  Daggen.Generator.generate ~rng
    ~shape:{ Daggen.Generator.n; fat = 0.5; density = 0.4; regularity = 0.5; jump = 2 }
    ~costs:Daggen.Generator.default_costs

(* A quarter of the cases run on a dual-Cell platform so the inter-Cell
   link rows (recomputed wholesale on colocation changes) are exercised. *)
let random_platform rng =
  if Support.Rng.int rng 4 = 0 then
    P.make ~n_ppe:2 ~n_spe:6 ~n_cells:2 ()
  else P.make ~n_ppe:1 ~n_spe:4 ()

let random_mapping rng platform g =
  let n = P.n_pes platform in
  Cellsched.Mapping.make platform g
    (Array.init (G.n_tasks g) (fun _ -> Support.Rng.int rng n))

(* Random move/swap replay through the journaled mutations. *)
let replay rng ev nops =
  let g = E.graph ev in
  let nk = G.n_tasks g in
  let npes = P.n_pes (E.platform ev) in
  for _ = 1 to nops do
    if Support.Rng.int rng 3 = 0 && nk >= 2 then begin
      let k1 = Support.Rng.int rng nk and k2 = Support.Rng.int rng nk in
      if k1 <> k2 then E.apply_swap ev k1 k2
    end
    else
      E.apply_move ev
        ~task:(Support.Rng.int rng nk)
        ~pe:(Support.Rng.int rng npes)
  done

(* --- the replay property -------------------------------------------------

   For every option combination: after a random sequence of moves and
   swaps, the engine's loads / period / violations are bitwise equal to a
   from-scratch Steady_state evaluation of the final mapping; undoing the
   whole journal restores the initial state bitwise. 4 combos x 60 cases
   = 240 random graphs. *)

let replay_case ~share ~tight (seed, n) =
  (* The qcheck shrinker can wander below the generator's range. *)
  let n = max 5 n and seed = abs seed in
  let salt = (if share then 1_000_000 else 0) + if tight then 2_000_000 else 0 in
  let rng = Support.Rng.create (seed + salt) in
  let platform = random_platform rng in
  let g = random_graph rng n in
  let m0 = random_mapping rng platform g in
  let options =
    E.make_options ~share_colocated_buffers:share ~tight_pipeline:tight ()
  in
  let scratch m =
    SS.loads ~share_colocated_buffers:share ~tight_pipeline:tight platform g m
  in
  let ev = E.create ~options platform g m0 in
  replay rng ev (5 + Support.Rng.int rng 30);
  let m = E.mapping ev in
  let sl = scratch m in
  check_loads_equal (E.loads ev) sl;
  if Int64.bits_of_float (E.period ev)
     <> Int64.bits_of_float (SS.period platform sl)
  then QCheck.Test.fail_reportf "period differs";
  if
    E.violations ev
    <> SS.violations ~share_colocated_buffers:share ~tight_pipeline:tight
         platform g m
  then QCheck.Test.fail_reportf "violations differ";
  if E.feasible ev <> (SS.violations_of_loads platform sl = []) then
    QCheck.Test.fail_reportf "feasible differs";
  (* Undo the full journal: bitwise back to the initial state. *)
  while E.undo_depth ev > 0 do
    E.undo ev
  done;
  check_loads_equal (E.loads ev) (scratch m0);
  true

let replay_matches_scratch ~share ~tight =
  QCheck.Test.make ~count:60
    ~name:
      (Printf.sprintf "replay = scratch (share=%b, tight=%b)" share tight)
    QCheck.(pair (int_bound 100_000) (int_range 5 20))
    (replay_case ~share ~tight)

(* --- probe purity -------------------------------------------------------- *)

let probe_is_pure =
  QCheck.Test.make ~count:40 ~name:"probe_move/probe_swap leave no trace"
    QCheck.(pair (int_bound 100_000) (int_range 5 15))
    (fun (seed, n) ->
      let n = max 5 n and seed = abs seed in
      let rng = Support.Rng.create (seed + 7_000_000) in
      let platform = random_platform rng in
      let g = random_graph rng n in
      let m0 = random_mapping rng platform g in
      let ev = E.create platform g m0 in
      let before = E.loads ev in
      let nk = G.n_tasks g and npes = P.n_pes platform in
      for _ = 1 to 20 do
        let k = Support.Rng.int rng nk in
        let pe = Support.Rng.int rng npes in
        let t, feas = E.probe_move ev ~task:k ~pe in
        (* The probed value is the scratch period of the mutated mapping. *)
        let arr = Cellsched.Mapping.to_array (E.mapping ev) in
        arr.(k) <- pe;
        let m' = Cellsched.Mapping.make platform g arr in
        let sl = SS.loads platform g m' in
        if Int64.bits_of_float t <> Int64.bits_of_float (SS.period platform sl)
        then QCheck.Test.fail_reportf "probe_move period differs";
        if feas <> (SS.violations_of_loads platform sl = []) then
          QCheck.Test.fail_reportf "probe_move feasibility differs";
        let k2 = Support.Rng.int rng nk in
        if k2 <> k then begin
          let t, feas = E.probe_swap ev k k2 in
          let arr = Cellsched.Mapping.to_array (E.mapping ev) in
          let pk = arr.(k) in
          arr.(k) <- arr.(k2);
          arr.(k2) <- pk;
          let m' = Cellsched.Mapping.make platform g arr in
          let sl = SS.loads platform g m' in
          if Int64.bits_of_float t <> Int64.bits_of_float (SS.period platform sl)
          then QCheck.Test.fail_reportf "probe_swap period differs";
          if feas <> (SS.violations_of_loads platform sl = []) then
            QCheck.Test.fail_reportf "probe_swap feasibility differs"
        end
      done;
      check_loads_equal (E.loads ev) before;
      if E.undo_depth ev <> 0 then
        QCheck.Test.fail_reportf "probe left journal entries";
      true)

(* --- filtered probes ------------------------------------------------------

   [probe_*_below ~cutoff] must give exactly the decision of the exact
   probe — [Some t] iff it returns [(t, true)] with [t < cutoff], with
   [t] bitwise equal — at cutoffs on and around the probed period (one
   ulp either side, 1e-12 either side, the infinities) and at the
   current period minus 1e-12, the cutoff local search uses. Platforms
   include both Cells of a QS22, where a cross-Cell edge sends the probe
   to the exact step, and [tight_pipeline], where a colocation change
   does. *)

(* The slow-bandwidth variants make the interface and link rows compete
   with compute for the period. *)
let filter_platform rng =
  match Support.Rng.int rng 4 with
  | 0 -> P.qs22_dual ~n_spe:4 ()
  | 1 -> P.make ~n_ppe:2 ~n_spe:4 ~n_cells:2 ~bw:2e7 ~inter_cell_bw:5e6 ()
  | 2 -> P.qs22 ~n_spe:8 ()
  | _ -> P.make ~n_ppe:1 ~n_spe:4 ~bw:2e7 ()

let expected (t, feas) cutoff = if feas && t < cutoff then Some t else None

let check_below name cutoff want got =
  match (want, got) with
  | None, None -> ()
  | Some a, Some b when Int64.bits_of_float a = Int64.bits_of_float b -> ()
  | _ ->
      let show = function None -> "None" | Some t -> Printf.sprintf "Some %h" t in
      QCheck.Test.fail_reportf "%s at cutoff %h: want %s, got %s" name cutoff
        (show want) (show got)

let cutoffs_around ev t =
  let cur = E.period ev in
  [
    t; Float.succ t; Float.pred t; t +. 1e-12; t -. 1e-12; infinity;
    neg_infinity; cur; cur -. 1e-12;
  ]

let filter_case ~share ~tight (seed, n) =
  let n = max 5 n and seed = abs seed in
  let salt = (if share then 1_000_000 else 0) + if tight then 2_000_000 else 0 in
  let rng = Support.Rng.create (seed + salt + 9_000_000) in
  let platform = filter_platform rng in
  let g = random_graph rng n in
  let options =
    E.make_options ~share_colocated_buffers:share ~tight_pipeline:tight ()
  in
  let ev = E.create ~options platform g (random_mapping rng platform g) in
  let nk = G.n_tasks g and npes = P.n_pes platform in
  for _ = 1 to 30 do
    (* Now and then commit a move, so probes also start from freshly
       dirtied rows. *)
    if Support.Rng.int rng 4 = 0 then
      E.apply_move ev ~task:(Support.Rng.int rng nk)
        ~pe:(Support.Rng.int rng npes);
    let k = Support.Rng.int rng nk and pe = Support.Rng.int rng npes in
    let exact = E.probe_move ev ~task:k ~pe in
    List.iter
      (fun cutoff ->
        check_below "probe_move_below" cutoff (expected exact cutoff)
          (E.probe_move_below ev ~task:k ~pe ~cutoff))
      (cutoffs_around ev (fst exact));
    let k2 = Support.Rng.int rng nk in
    if k2 <> k then begin
      let exact = E.probe_swap ev k k2 in
      List.iter
        (fun cutoff ->
          check_below "probe_swap_below" cutoff (expected exact cutoff)
            (E.probe_swap_below ev k k2 ~cutoff))
        (cutoffs_around ev (fst exact))
    end
  done;
  true

let filter_matches_exact ~share ~tight =
  QCheck.Test.make ~count:40
    ~name:
      (Printf.sprintf "probe_*_below = exact probe (share=%b, tight=%b)" share
         tight)
    QCheck.(pair (int_bound 100_000) (int_range 5 20))
    (filter_case ~share ~tight)

(* Rounding can put the canonical sum of a row below [v - before + after]
   evaluated in floats; the bound's slack must absorb it. Row SPE1 holds
   t0 = 2^-52, t1 = 1, t2 = 2^-53 and sums to 1 + 2^-51 (the last add is
   a tie rounded to even). Without t0 it sums to exactly 1, with t3 =
   2^-53 in t0's place too, while [v - before + after] gives 1 + 2^-52
   and 1 + 2^-51. At the cutoff 1 + 2^-52 both probes must answer
   [Some 1.]. *)
let test_filter_slack () =
  let platform = P.make ~n_ppe:1 ~n_spe:2 () in
  let task name w =
    Streaming.Task.make ~name ~w_ppe:1. ~w_spe:w ()
  in
  let g =
    G.of_tasks
      [|
        task "t0" (ldexp 1. (-52)); task "t1" 1.; task "t2" (ldexp 1. (-53));
        task "t3" (ldexp 1. (-53));
      |]
      []
  in
  let ev = E.create platform g (Cellsched.Mapping.make platform g [| 1; 1; 1; 2 |]) in
  let cutoff = Float.succ 1. in
  let show = function None -> "None" | Some t -> Printf.sprintf "Some %h" t in
  let check name got =
    Alcotest.(check string) name (show (Some 1.)) (show got)
  in
  check "move" (E.probe_move_below ev ~task:0 ~pe:2 ~cutoff);
  check "swap" (E.probe_swap_below ev 0 3 ~cutoff);
  Alcotest.(check string) "exact move agrees" (show (Some 1.))
    (show (expected (E.probe_move ev ~task:0 ~pe:2) cutoff))

(* Filtered probes leave the engine bitwise as they found it: same loads,
   empty journal, and the next exact probe still agrees with scratch. *)
let filter_is_pure =
  QCheck.Test.make ~count:40 ~name:"filtered probes leave no trace"
    QCheck.(pair (int_bound 100_000) (int_range 5 15))
    (fun (seed, n) ->
      let n = max 5 n and seed = abs seed in
      let rng = Support.Rng.create (seed + 8_000_000) in
      let platform = filter_platform rng in
      let g = random_graph rng n in
      let ev = E.create platform g (random_mapping rng platform g) in
      let before = E.loads ev in
      let cur = E.period ev in
      let nk = G.n_tasks g and npes = P.n_pes platform in
      for _ = 1 to 20 do
        let k = Support.Rng.int rng nk in
        let cutoff =
          match Support.Rng.int rng 3 with
          | 0 -> cur -. 1e-12
          | 1 -> infinity
          | _ -> cur *. Support.Rng.float rng 1.5
        in
        ignore
          (E.probe_move_below ev ~task:k ~pe:(Support.Rng.int rng npes) ~cutoff);
        let k2 = Support.Rng.int rng nk in
        if k2 <> k then ignore (E.probe_swap_below ev k k2 ~cutoff)
      done;
      check_loads_equal (E.loads ev) before;
      if E.undo_depth ev <> 0 then
        QCheck.Test.fail_reportf "filtered probe left journal entries";
      let k = Support.Rng.int rng nk and pe = Support.Rng.int rng npes in
      let t, feas = E.probe_move ev ~task:k ~pe in
      let arr = Cellsched.Mapping.to_array (E.mapping ev) in
      arr.(k) <- pe;
      let sl = SS.loads platform g (Cellsched.Mapping.make platform g arr) in
      if Int64.bits_of_float t <> Int64.bits_of_float (SS.period platform sl)
      then QCheck.Test.fail_reportf "exact probe after filtered ones differs";
      if feas <> (SS.violations_of_loads platform sl = []) then
        QCheck.Test.fail_reportf "exact feasibility after filtered ones differs";
      true)

(* --- the heuristics' to-PPE DMA blind spot -------------------------------

   One SPE, a tight to-PPE DMA queue (2 slots), and a fan-out source S
   whose consumers carry buffers too large for the local store. The
   consumers are forced onto the PPE; if S stays on the SPE it needs one
   to-PPE slot per consumer (4 > 2). The old incremental bookkeeping
   documented this overflow as a known blind spot; the engine-backed
   heuristics must repair it (move S to the PPE) before returning. *)

let blind_spot_graph () =
  let mk ?(read = 0.) ?(write = 0.) name =
    Streaming.Task.make ~name ~w_ppe:1e-3 ~w_spe:1e-3 ~read_bytes:read
      ~write_bytes:write ()
  in
  let tasks =
    Array.init 9 (fun i ->
        if i = 0 then mk "S"
        else if i <= 4 then mk (Printf.sprintf "C%d" i)
        else mk (Printf.sprintf "Z%d" (i - 4)))
  in
  let small = 1024. and huge = 100_000. in
  let edges =
    List.init 4 (fun i -> (0, i + 1, small))
    @ List.init 4 (fun i -> (i + 1, i + 5, huge))
  in
  G.of_tasks tasks edges

let test_no_dma_to_ppe_violation () =
  let platform =
    P.make ~n_ppe:1 ~n_spe:1 ~max_dma_to_ppe:2 ~local_store:100_000
      ~code_size:0 ()
  in
  let g = blind_spot_graph () in
  let has_dma_to_ppe m =
    List.exists
      (function SS.Dma_to_ppe _ -> true | _ -> false)
      (SS.violations platform g m)
  in
  let strategies =
    [
      ("greedy-mem", Cellsched.Heuristics.greedy_mem);
      ("greedy-cpu", Cellsched.Heuristics.greedy_cpu);
      ("density-pack", Cellsched.Heuristics.density_pack);
      ("lp-round", Cellsched.Heuristics.lp_rounding ~improve:false);
    ]
  in
  List.iter
    (fun (name, strategy) ->
      let m = strategy platform g in
      Alcotest.(check bool)
        (name ^ " returns no to-PPE DMA violation")
        false (has_dma_to_ppe m))
    strategies

(* The repair is not vacuous: on this instance the unrepaired greedy
   choice (S on the SPE, consumers forced to the PPE) does overflow. *)
let test_blind_spot_is_real () =
  let platform =
    P.make ~n_ppe:1 ~n_spe:1 ~max_dma_to_ppe:2 ~local_store:100_000
      ~code_size:0 ()
  in
  let g = blind_spot_graph () in
  let unrepaired =
    Cellsched.Mapping.make platform g [| 1; 0; 0; 0; 0; 0; 0; 0; 0 |]
  in
  Alcotest.(check bool) "naive placement overflows" true
    (List.exists
       (function SS.Dma_to_ppe _ -> true | _ -> false)
       (SS.violations platform g unrepaired))

(* --- partial assignments match the branch-and-bound expectations -------- *)

let test_partial_assignment_consistency () =
  let platform = P.make ~n_ppe:1 ~n_spe:2 () in
  let rng = Support.Rng.create 12345 in
  let g = random_graph rng 8 in
  let ev = E.create_empty platform g in
  Alcotest.(check int) "nothing assigned" 0 (E.n_assigned ev);
  Alcotest.(check (float 0.)) "empty period" 0. (E.period ev);
  (* Assign everything in topological order; the complete state coincides
     with scratch. *)
  let order = G.topological_order g in
  Array.iter (fun k -> E.assign ev ~task:k ~pe:(k mod P.n_pes platform)) order;
  let m = E.mapping ev in
  check_loads_equal (E.loads ev) (SS.loads platform g m);
  (* Unassign half and reassign elsewhere: still consistent. *)
  for k = 0 to (G.n_tasks g / 2) - 1 do
    E.unassign ev ~task:k
  done;
  for k = 0 to (G.n_tasks g / 2) - 1 do
    E.assign ev ~task:k ~pe:((k + 1) mod P.n_pes platform)
  done;
  let m' = E.mapping ev in
  check_loads_equal (E.loads ev) (SS.loads platform g m')

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "eval"
    [
      ( "replay",
        [
          qt (replay_matches_scratch ~share:false ~tight:false);
          qt (replay_matches_scratch ~share:true ~tight:false);
          qt (replay_matches_scratch ~share:false ~tight:true);
          qt (replay_matches_scratch ~share:true ~tight:true);
        ] );
      ("probe", [ qt probe_is_pure ]);
      ( "filtered probe",
        [
          qt (filter_matches_exact ~share:false ~tight:false);
          qt (filter_matches_exact ~share:true ~tight:false);
          qt (filter_matches_exact ~share:false ~tight:true);
          qt (filter_matches_exact ~share:true ~tight:true);
          qt filter_is_pure;
          Alcotest.test_case "bound slack covers rounding" `Quick
            test_filter_slack;
        ] );
      ( "blind-spot",
        [
          Alcotest.test_case "heuristics repair to-PPE overflow" `Quick
            test_no_dma_to_ppe_violation;
          Alcotest.test_case "unrepaired placement overflows" `Quick
            test_blind_spot_is_real;
        ] );
      ( "partial",
        [
          Alcotest.test_case "assign/unassign consistency" `Quick
            test_partial_assignment_consistency;
        ] );
    ]
