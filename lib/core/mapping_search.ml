module G = Streaming.Graph
module P = Cell.Platform

type options = {
  rel_gap : float;
  max_nodes : int;
  dive_nodes : int;
  time_limit : float;
  share_colocated_buffers : bool;
}

let default_options =
  {
    rel_gap = 0.05;
    max_nodes = 10_000_000;
    dive_nodes = 32_768;
    time_limit = 30.;
    share_colocated_buffers = false;
  }

type result = {
  mapping : Mapping.t;
  period : float;
  lower_bound : float;
  gap : float;
  nodes : int;
  optimal_within_gap : bool;
}

(* Branch nodes extend one incremental {!Eval} engine: [Eval.assign] on
   the way down, [Eval.unassign] on backtrack, and the engine is the
   authority on the committed resource state ([Eval.period] is the
   assigned-resources bound). The search keeps only its own relaxation
   machinery: the assignment order, effective costs, knapsack orders and
   suffix sums feeding the divisible bound. *)
type state = {
  platform : P.t;
  g : G.t;
  ev : Eval.t;
  order : int array;  (* topological order of assignment *)
  w_ppe : float array;  (* effective PPE cost (speedup applied) *)
  w_spe : float array;
  mutable used_spes : int;  (* SPEs in use are spes.(0 .. used_spes-1) *)
  by_ratio : int array;  (* tasks sorted by w_spe/w_ppe descending *)
  suffix_wspe : float array;  (* sum of w_spe over order.(pos..) *)
  mem_need : float array;  (* per-task SPE buffer footprint *)
  by_mem_ratio : int array;  (* tasks sorted by mem_need/w_ppe descending *)
  suffix_mem : float array;  (* sum of mem_need over order.(pos..), eligible *)
  spe_eligible : bool array;
      (* tasks whose buffers can fit an SPE at all; the others are
         PPE-forced, a dominance that tightens the node bound *)
  suffix_forced_wppe : float array;  (* PPE work of ineligible order.(pos..) *)
  bnd : Bounds.t;  (* closed-form §5 relaxations, shared with the MILP *)
  suffix_reads : float array;  (* interface bytes of order.(pos..) *)
  suffix_writes : float array;
  suffix_task_lb : float array;  (* max per-task bound over order.(pos..) *)
}

let make_state ~share platform g =
  let nk = G.n_tasks g in
  let fp = Steady_state.first_periods g in
  let w_ppe =
    Array.init nk (fun k ->
        (G.task g k).Streaming.Task.w_ppe /. platform.P.ppe_speedup)
  in
  let w_spe = Array.init nk (fun k -> (G.task g k).Streaming.Task.w_spe) in
  let ratio k = if w_ppe.(k) <= 0. then infinity else w_spe.(k) /. w_ppe.(k) in
  let by_ratio = Array.init nk Fun.id in
  Array.sort (fun a b -> compare (ratio b) (ratio a)) by_ratio;
  let buff = Steady_state.buffer_sizes ~first_periods:fp g in
  (* Per-task memory footprint used by the divisible relaxation. Under the
     sharing model a single buffer per edge suffices when both endpoints
     share an SPE, so half the incident mass is a valid lower bound. *)
  let mem_need =
    let factor = if share then 0.5 else 1.0 in
    Array.init nk (fun k ->
        let sum = List.fold_left (fun acc e -> acc +. buff.(e)) 0. in
        factor *. (sum (G.out_edges g k) +. sum (G.in_edges g k)))
  in
  let mem_ratio k =
    if w_ppe.(k) <= 0. then infinity else mem_need.(k) /. w_ppe.(k)
  in
  let by_mem_ratio = Array.init nk Fun.id in
  Array.sort (fun a b -> compare (mem_ratio b) (mem_ratio a)) by_mem_ratio;
  (* A task needs at least one copy of each incident buffer on its SPE,
     sharing or not; beyond the budget it can only live on a PPE. *)
  let budget = float_of_int (P.spe_memory_budget platform) in
  let spe_eligible =
    Array.init nk (fun k ->
        let sum = List.fold_left (fun acc e -> acc +. buff.(e)) 0. in
        sum (G.out_edges g k) +. sum (G.in_edges g k) <= budget +. 1e-9)
  in
  let bnd = Bounds.create platform g in
  (* Assignment order: hardest tasks first. Committing the tasks that
     dominate the binding resources (local-store footprint, then raw
     work) makes the divisible knapsacks infeasible near the root, where
     a prune cuts an exponential subtree; any fixed order is complete,
     and a deterministic one preserves the bitwise contract. *)
  let order = Array.init nk Fun.id in
  Array.sort
    (fun a b ->
      let c = compare mem_need.(b) mem_need.(a) in
      if c <> 0 then c
      else
        let c = compare (Float.min w_ppe.(b) w_spe.(b))
                  (Float.min w_ppe.(a) w_spe.(a)) in
        if c <> 0 then c else compare a b)
    order;
  let suffix_mem = Array.make (nk + 1) 0. in
  let suffix_forced_wppe = Array.make (nk + 1) 0. in
  let suffix_wspe = Array.make (nk + 1) 0. in
  let suffix_reads = Array.make (nk + 1) 0. in
  let suffix_writes = Array.make (nk + 1) 0. in
  let suffix_task_lb = Array.make (nk + 1) 0. in
  for pos = nk - 1 downto 0 do
    let k = order.(pos) in
    suffix_mem.(pos) <-
      (suffix_mem.(pos + 1) +. if spe_eligible.(k) then mem_need.(k) else 0.);
    suffix_forced_wppe.(pos) <-
      (suffix_forced_wppe.(pos + 1)
      +. if spe_eligible.(k) then 0. else w_ppe.(k));
    suffix_wspe.(pos) <-
      (suffix_wspe.(pos + 1) +. if spe_eligible.(k) then w_spe.(k) else 0.);
    suffix_reads.(pos) <- suffix_reads.(pos + 1) +. bnd.Bounds.reads.(k);
    suffix_writes.(pos) <- suffix_writes.(pos + 1) +. bnd.Bounds.writes.(k);
    suffix_task_lb.(pos) <-
      Float.max suffix_task_lb.(pos + 1) (Bounds.task_lb bnd k)
  done;
  {
    platform;
    g;
    ev =
      Eval.create_empty
        ~options:(Eval.make_options ~share_colocated_buffers:share ())
        platform g;
    order;
    w_ppe;
    w_spe;
    used_spes = 0;
    by_ratio;
    suffix_wspe;
    mem_need;
    by_mem_ratio;
    suffix_mem;
    spe_eligible;
    suffix_forced_wppe;
    bnd;
    suffix_reads;
    suffix_writes;
    suffix_task_lb;
  }

let remote_in_edges st k pe =
  List.length
    (List.filter
       (fun e ->
         let src = (G.edge st.g e).G.src in
         let p = Eval.pe_of st.ev src in
         p >= 0 && p <> pe)
       (G.in_edges st.g k))

let spe_preds st k pe =
  List.filter_map
    (fun e ->
      let src = (G.edge st.g e).G.src in
      let p = Eval.pe_of st.ev src in
      if p >= 0 && p <> pe && P.is_spe st.platform p then Some p else None)
    (G.in_edges st.g k)

let can_place st k pe =
  if P.is_spe st.platform pe then begin
    let budget = float_of_int (P.spe_memory_budget st.platform) in
    Eval.memory_on st.ev pe +. Eval.assign_memory_delta st.ev ~task:k ~pe
    <= budget +. 1e-9
    && Eval.dma_in_on st.ev pe + remote_in_edges st k pe
       <= st.platform.P.max_dma_in
  end
  else
    List.for_all
      (fun spe ->
        Eval.dma_to_ppe_on st.ev spe + 1 <= st.platform.P.max_dma_to_ppe)
      (spe_preds st k pe)

let ppe_capacity st t =
  List.fold_left
    (fun acc pe -> acc +. Float.max 0. (t -. Eval.compute_on st.ev pe))
    0. (P.ppes st.platform)

(* Shared greedy: remaining tasks hold [amount] units of some SPE-side
   resource with pool capacity [pool]; the excess must be offloaded to the
   PPEs, cheapest (largest amount-per-PPE-second) first. Returns true when
   the offload fits in [cap_ppe]. *)
let offload_fits st ~order_by ~amount ~pool ~total ~cap_ppe =
  let deficit = total -. pool in
  if deficit <= 0. then true
  else begin
    let removed = ref 0. and ppe_used = ref 0. in
    let i = ref 0 in
    let nk = Array.length order_by in
    while !removed < deficit && !i < nk do
      let k = order_by.(!i) in
      if Eval.pe_of st.ev k < 0 && st.spe_eligible.(k) && amount k > 0. then begin
        let need = deficit -. !removed in
        if amount k <= need then begin
          removed := !removed +. amount k;
          ppe_used := !ppe_used +. st.w_ppe.(k)
        end
        else begin
          let fraction = need /. amount k in
          removed := deficit;
          ppe_used := !ppe_used +. (fraction *. st.w_ppe.(k))
        end
      end;
      incr i
    done;
    !removed >= deficit -. 1e-12 && !ppe_used <= cap_ppe +. 1e-12
  end

(* Divisible relaxation check: can the tasks of order.(pos..) be
   fractionally completed within period [t]? Two necessary conditions are
   tested, each a fractional knapsack: the SPE *work* pool of capacity
   [sum_j (t - load_j)], and the SPE *local-store* pool of the remaining
   memory budgets (constraint (1i) aggregated over SPEs). *)
(* Pool-form interface bandwidth check (§5 (1c)/(1d) aggregated over
   interfaces): any completion routes each remaining task's own reads
   (writes) through its host PE's input (output) interface, so the spare
   interface capacity at period [t] — summed over every PE — must cover
   the remaining bytes. O(n_pes), monotone in [t]. *)
let interface_feasible st ~pos t =
  let bw = st.platform.P.bw in
  let spare committed =
    let cap = ref 0. in
    for pe = 0 to P.n_pes st.platform - 1 do
      cap := !cap +. Float.max 0. ((t *. bw) -. committed pe)
    done;
    !cap
  in
  let covers cap need = cap >= need -. (1e-9 *. Float.max 1. need) in
  covers (spare (Eval.bytes_in_on st.ev)) st.suffix_reads.(pos)
  && covers (spare (Eval.bytes_out_on st.ev)) st.suffix_writes.(pos)

let divisible_feasible st ~pos t =
  (* O(1): some PE must grant every remaining task its per-task bound. *)
  t +. 1e-12 >= st.suffix_task_lb.(pos)
  && interface_feasible st ~pos t
  &&
  (* Tasks whose buffers exceed the local store are PPE-bound: their work
     consumes PPE capacity before any offloading happens. *)
  let cap_ppe = ppe_capacity st t -. st.suffix_forced_wppe.(pos) in
  cap_ppe >= -1e-12
  &&
  let cap_spe =
    List.fold_left
      (fun acc pe -> acc +. Float.max 0. (t -. Eval.compute_on st.ev pe))
      0. (P.spes st.platform)
  in
  offload_fits st ~order_by:st.by_ratio
    ~amount:(fun k -> st.w_spe.(k))
    ~pool:cap_spe ~total:st.suffix_wspe.(pos) ~cap_ppe
  && begin
       let budget = float_of_int (P.spe_memory_budget st.platform) in
       let mem_pool =
         List.fold_left
           (fun acc pe ->
             acc +. Float.max 0. (budget -. Eval.memory_on st.ev pe))
           0. (P.spes st.platform)
       in
       offload_fits st ~order_by:st.by_mem_ratio
         ~amount:(fun k -> st.mem_need.(k))
         ~pool:mem_pool ~total:st.suffix_mem.(pos) ~cap_ppe
     end

(* Tight node bound via bisection (used for reporting at the root). *)
let node_bound st ~pos ~hi =
  let lo = ref (Eval.period st.ev) in
  if divisible_feasible st ~pos !lo then !lo
  else begin
    let hi = ref (Float.max hi (2. *. (!lo +. st.suffix_wspe.(pos) +. 1e-9))) in
    for _ = 1 to 50 do
      let mid = 0.5 *. (!lo +. !hi) in
      if divisible_feasible st ~pos mid then hi := mid else lo := mid
    done;
    !hi
  end

exception Limit_hit

(* Default-off observability hooks: per-solve totals, flushed once at
   the end so the node recursion pays only local ref bumps. Registered
   eagerly at module init — a [Lazy.force] from pool workers would be a
   racy lazy access. *)
let m_nodes =
  Obs.Metrics.counter ~help:"Mapping branch-and-bound nodes explored"
    "search_bb_nodes_total"

let m_pruned =
  Obs.Metrics.counter
    ~help:"Mapping branch-and-bound children cut by the divisible bound"
    "search_bb_pruned_total"

let m_incumbents =
  Obs.Metrics.counter ~help:"Mapping branch-and-bound incumbent improvements"
    "search_bb_incumbents_total"

let m_subtrees =
  Obs.Metrics.counter ~help:"Mapping branch-and-bound frontier subtree tasks"
    "search_bb_subtrees_total"

(* --- deterministic subtree-parallel branch and bound --------------------

   The tree is explored as node-budgeted subtree tasks: each task owns
   one open prefix, searches it depth-first on a private state, and when
   its budget runs out hands every still-open branch back as a fresh
   prefix instead of abandoning it — completeness never depends on the
   budget. Tasks fan out dynamically over {!Par.Pool.parallel_grow}
   (work-stealing keeps the domains saturated however lopsided the tree
   is); the sequential path drains the same tasks off an explicit LIFO
   stack. Only the *global* limits — the atomic node counter against
   [max_nodes], the deadline and [should_stop] — abandon work, and they
   mark the result as limit-hit.

   Why the result is independent of execution order (and hence bitwise
   equal between sequential and parallel runs of any pool size):

   - the incumbent cell is folded under a strict total order, so its
     final content depends only on the *set* of leaves offered;
   - a *deterministic* gap prune compares against a threshold fixed
     before the search starts ([det_thr], from the initial incumbent),
     never against the evolving best, so it cuts the same subtrees in
     every execution;
   - the *shared* prune compares against the live best strictly
     ([period > shared], or divisible-infeasible at [shared], which
     implies every completion is strictly worse than [shared]), so it
     only ever removes leaves strictly worse than the final best —
     removing such leaves cannot change the minimum. Timing changes
     which of them are skipped — and therefore where budgets run out
     and which prefixes are handed back — affecting node/prune/subtree
     counters but never the returned mapping. *)

let subtree_budget = 4096

let assignment st =
  Array.init (G.n_tasks st.g) (fun k -> Eval.pe_of st.ev k)

(* Offer the complete assignment at a leaf; the period pre-check keeps
   the per-leaf allocation off the common (losing) path. *)
let offer_leaf inc st =
  let p = Eval.period st.ev in
  if p <= Incumbent.period inc then Incumbent.offer inc ~period:p (assignment st)
  else false

(* Candidate PEs for position [pos]: symmetric SPEs collapsed to the
   ones in use plus one fresh, most promising (smallest resulting
   compute load) first; [List.sort] is stable, so ties keep the
   PPE-before-SPE base order and the ordering is deterministic. *)
let candidates st spes k =
  let base =
    P.ppes st.platform
    @ List.init (min (st.used_spes + 1) (Array.length spes)) (fun s -> spes.(s))
  in
  let key pe =
    let w = if P.is_ppe st.platform pe then st.w_ppe.(k) else st.w_spe.(k) in
    Eval.compute_on st.ev pe +. w
  in
  List.sort (fun a b -> compare (key a) (key b)) base

(* Prune test for the child just assigned (next open position [pos]).
   [p >= det_thr] and infeasibility at [det_thr] are the deterministic
   gap rules; [p > shared] and infeasibility at [shared] are the
   result-safe sharing rules. One divisible check at the min threshold
   covers both (infeasibility is monotone: harder at smaller t). *)
let child_pruned st ~pos ~det_thr ~inc =
  let p = Eval.period st.ev in
  let shared = Incumbent.period inc in
  p >= det_thr || p > shared
  || not (divisible_feasible st ~pos (Float.min det_thr shared))

let bump_used_spes st spes pe =
  if
    P.is_spe st.platform pe
    && st.used_spes < Array.length spes
    && pe = spes.(st.used_spes)
  then st.used_spes <- st.used_spes + 1

let replay st prefix =
  let spes = Array.of_list (P.spes st.platform) in
  Array.iteri
    (fun i pe ->
      bump_used_spes st spes pe;
      Eval.assign st.ev ~task:st.order.(i) ~pe)
    prefix

(* Shared, mutation-only search context: the incumbent cell, the fixed
   deterministic threshold, the global limits and the atomic counters
   every subtree task folds into. *)
type ctx = {
  inc : Incumbent.t;
  det_thr : float;
  deadline : float;
  should_stop : unit -> bool;
  max_nodes : int;
  c_nodes : int Atomic.t;
  c_pruned : int Atomic.t;
  c_incumbents : int Atomic.t;
  c_subtrees : int Atomic.t;
  c_limit : bool Atomic.t;
  sctx : Obs.Span.ctx;  (* parent span of this phase's subtree spans *)
}

(* One budgeted subtree task: fresh state, replay the prefix, depth-first
   until the local node budget runs out, then capture every still-open
   branch (the whole subtree under the current position) as a prefix to
   hand back. Local counters flush into the atomics every 1024 nodes,
   which is also when the global limits are polled. Returns the
   handed-back prefixes; [Limit_hit] abandons the remainder and flags
   [c_limit]. *)
let run_task ~share ctx platform g prefix =
  if Atomic.get ctx.c_limit then [||]
  else begin
    (* Flight-recorder span: one per subtree task, named by the prefix
       hash (unique within a phase — each open prefix is handed back at
       most once), annotated with this task's local counters. The task
       *set* of a parallel phase is timing-dependent, so these spans
       are excluded from the cross-pool determinism property. *)
    let t_start =
      if Obs.Span.active ctx.sctx then Obs.Span.now () else 0.
    in
    let st = make_state ~share platform g in
    let spes = Array.of_list (P.spes platform) in
    let nk = G.n_tasks g in
    replay st prefix;
    let nodes = ref 0 and flushed = ref 0 in
    let pruned = ref 0 and incumbents = ref 0 in
    let spill = ref [] in
    let flush_and_check () =
      ignore (Atomic.fetch_and_add ctx.c_nodes (!nodes - !flushed));
      flushed := !nodes;
      if
        Atomic.get ctx.c_nodes >= ctx.max_nodes
        || Unix.gettimeofday () > ctx.deadline
        || ctx.should_stop ()
      then begin
        Atomic.set ctx.c_limit true;
        raise Limit_hit
      end
    in
    let prefix_of pos = Array.init pos (fun i -> Eval.pe_of st.ev st.order.(i)) in
    let rec explore pos =
      if !nodes >= subtree_budget && pos < nk then
        (* Budget spent: hand the whole open subtree back as a task.
           The node is not counted here — it is counted when the new
           task re-enters it. *)
        spill := prefix_of pos :: !spill
      else begin
        incr nodes;
        if !nodes land 1023 = 0 then flush_and_check ();
        if pos = nk then begin
          if offer_leaf ctx.inc st then incr incumbents
        end
        else begin
          let k = st.order.(pos) in
          List.iter
            (fun pe ->
              if can_place st k pe then begin
                let was_used = st.used_spes in
                bump_used_spes st spes pe;
                Eval.assign st.ev ~task:k ~pe;
                if
                  child_pruned st ~pos:(pos + 1) ~det_thr:ctx.det_thr
                    ~inc:ctx.inc
                then incr pruned
                else explore (pos + 1);
                Eval.unassign st.ev ~task:k;
                st.used_spes <- was_used
              end)
            (candidates st spes k)
        end
      end
    in
    (try
       (* Poll the global limits before the first node so an expired
          deadline or a cancellation cancels on the first check, however
          small the subtree. *)
       flush_and_check ();
       explore (Array.length prefix)
     with Limit_hit -> spill := []);
    ignore (Atomic.fetch_and_add ctx.c_nodes (!nodes - !flushed));
    ignore (Atomic.fetch_and_add ctx.c_pruned !pruned);
    ignore (Atomic.fetch_and_add ctx.c_incumbents !incumbents);
    ignore (Atomic.fetch_and_add ctx.c_subtrees 1);
    if Obs.Span.active ctx.sctx then
      Obs.Span.record ctx.sctx ~t_start
        ~attrs:
          [
            ("nodes", Obs.Span.Int !nodes);
            ("pruned", Obs.Span.Int !pruned);
            ("incumbents", Obs.Span.Int !incumbents);
            ("spilled", Obs.Span.Int (List.length !spill));
          ]
        ("subtree:"
        ^ Support.Fnv.to_hex
            (Array.fold_left Support.Fnv.add_int Support.Fnv.empty prefix));
    Array.of_list !spill
  end

(* Sequential twin of {!Par.Pool.parallel_grow}: drain the task set off
   an explicit LIFO stack (depth-first overall, so memory stays bounded
   by the open prefixes of one root-to-leaf path per budget layer). *)
let sequential_grow f roots =
  let stack = Stack.create () in
  Array.iter (fun r -> Stack.push r stack) roots;
  while not (Stack.is_empty stack) do
    Array.iter (fun c -> Stack.push c stack) (f (Stack.pop stack))
  done

let solve ?(span = Obs.Span.null) ?(options = default_options)
    ?(should_stop = fun () -> false) ?incumbent ?pool platform g =
  let share = options.share_colocated_buffers in
  let st = make_state ~share platform g in
  let eval_options = Eval.make_options ~share_colocated_buffers:share () in
  let incumbent_mapping =
    match incumbent with
    | Some m ->
        if not (Eval.scratch_feasible ~options:eval_options platform g m) then
          invalid_arg "Mapping_search.solve: incumbent is infeasible";
        m
    | None ->
        (* Portfolio seed: every standard candidate plus the seeded
           restarts, each polished by local search. Every point of
           period the seed recovers shrinks [det_thr] and with it the
           whole tree — on the paper's 50-task instances the difference
           is between closing at the root and millions of open nodes.
           The portfolio is bitwise deterministic at any pool size, so
           the determinism contract is unaffected. *)
        (Portfolio.solve ~span ?pool ~should_stop
           ~share_colocated_buffers:share platform g)
          .Portfolio.best
  in
  let init_period =
    Eval.scratch_period ~options:eval_options platform g incumbent_mapping
  in
  let inc =
    Incumbent.of_option (Some (init_period, Mapping.to_array incumbent_mapping))
  in
  (* Fixed before the search: the deterministic gap-prune threshold. *)
  let det_thr = init_period *. (1. -. options.rel_gap) in
  let deadline = Unix.gettimeofday () +. options.time_limit in
  let root_bound = node_bound st ~pos:0 ~hi:init_period in
  let root_bound = Float.max root_bound (Bounds.root_bound st.bnd) in
  let ctx =
    {
      inc;
      det_thr;
      deadline;
      should_stop;
      max_nodes = min options.dive_nodes options.max_nodes;
      c_nodes = Atomic.make 0;
      c_pruned = Atomic.make 0;
      c_incumbents = Atomic.make 0;
      c_subtrees = Atomic.make 0;
      c_limit = Atomic.make false;
      sctx = Obs.Span.null;
    }
  in
  (* The combinatorial root bound can prove the (polished) incumbent
     within gap outright — then there is no tree to search. *)
  let limit_hit =
    if root_bound >= det_thr then false
    else begin
      (* Phase A — the dive: always sequential under a fixed node
         budget, so its incumbent is a pure function of the instance
         whatever the pool size. Hardest-first DFS typically lands
         within a fraction of a percent of the optimum here. *)
      Obs.Span.with_span_attrs span "dive" (fun dspan ->
          sequential_grow
            (run_task ~share { ctx with sctx = dspan } platform g)
            [| [||] |];
          ((), [ ("nodes", Obs.Span.Int (Atomic.get ctx.c_nodes)) ]));
      if not (Atomic.get ctx.c_limit) then false
      else if Unix.gettimeofday () > deadline || should_stop () then true
      else begin
        (* Phase B at the deterministically tightened threshold: the
           dive incumbent re-derives the gap rule, so when it is within
           [rel_gap] of the root bound the whole tree prunes at the
           root — gap closure expressed as exhaustion. Only a still-open
           tree is fanned out over the pool. *)
        let thr_b =
          Float.min det_thr
            (Incumbent.period inc *. (1. -. options.rel_gap))
        in
        if root_bound >= thr_b then false
        else if Atomic.get ctx.c_nodes >= options.max_nodes then true
        else begin
          Obs.Span.with_span_attrs span "fanout" (fun fspan ->
              let ctx =
                {
                  ctx with
                  det_thr = thr_b;
                  max_nodes = options.max_nodes;
                  c_limit = Atomic.make false;
                  sctx = fspan;
                }
              in
              let run prefix = run_task ~share ctx platform g prefix in
              (match pool with
              | Some p -> Par.Pool.parallel_grow p run [| [||] |]
              | None -> sequential_grow run [| [||] |]);
              ( Atomic.get ctx.c_limit,
                [
                  ("nodes", Obs.Span.Int (Atomic.get ctx.c_nodes));
                  ("subtrees", Obs.Span.Int (Atomic.get ctx.c_subtrees));
                ] ))
        end
      end
    end
  in
  let nodes = Atomic.get ctx.c_nodes in
  let pruned = Atomic.get ctx.c_pruned in
  let incumbents = Atomic.get ctx.c_incumbents in
  let optimal_within_gap = not limit_hit in
  if Obs.Metrics.enabled () then begin
    Obs.Metrics.Counter.add m_nodes nodes;
    Obs.Metrics.Counter.add m_pruned pruned;
    Obs.Metrics.Counter.add m_incumbents incumbents;
    Obs.Metrics.Counter.add m_subtrees (Atomic.get ctx.c_subtrees)
  end;
  let e = Option.get (Incumbent.best inc) in
  let mapping = Mapping.make platform g e.Incumbent.arr in
  let period = e.Incumbent.period in
  let lower_bound =
    if optimal_within_gap then
      Float.max root_bound (period *. (1. -. options.rel_gap))
    else root_bound
  in
  let lower_bound = Float.min lower_bound period in
  {
    mapping;
    period;
    lower_bound;
    gap = (if period <= 0. then 0. else (period -. lower_bound) /. period);
    nodes;
    optimal_within_gap;
  }
