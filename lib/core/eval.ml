module G = Streaming.Graph
module P = Cell.Platform

type options = { share_colocated_buffers : bool; tight_pipeline : bool }

let default_options = { share_colocated_buffers = false; tight_pipeline = false }

let make_options ?(share_colocated_buffers = false) ?(tight_pipeline = false) ()
    =
  { share_colocated_buffers; tight_pipeline }

(* Default-off observability hooks. Counters only — the instrumentation
   never touches the float state, so metrics-on runs stay bitwise equal
   to metrics-off runs (property-tested in test_obs). *)
let m_probes =
  Obs.Metrics.counter ~help:"Eval probe_move/probe_swap evaluations"
       "search_eval_probes_total"

let m_probes_exact =
  Obs.Metrics.counter
    ~help:"Filtered probes the cheap steps could not decide (exact sweep)"
    "search_eval_probes_exact_total"

let m_moves =
  Obs.Metrics.counter ~help:"Journaled apply_move mutations"
       "search_eval_moves_total"

let m_swaps =
  Obs.Metrics.counter ~help:"Journaled apply_swap mutations"
       "search_eval_swaps_total"

let m_row_recomputes =
  Obs.Metrics.counter ~help:"Dirty per-PE resource rows recomputed"
       "search_eval_dirty_rows_total"

let m_sweeps =
  Obs.Metrics.counter ~help:"Batched dirty-row recomputation sweeps"
       "search_eval_row_sweeps_total"

(* Journal entries for [apply_move]/[apply_swap]: the data needed to
   reverse the mutation. *)
type op = Move of int * int  (* task, previous PE *) | Swap of int * int

(* The four float rows of every PE. *)
type rows = {
  compute : float array;
  bytes_in : float array;
  bytes_out : float array;
  memory : float array;
}

let make_rows n =
  {
    compute = Array.make n 0.;
    bytes_in = Array.make n 0.;
    bytes_out = Array.make n 0.;
    memory = Array.make n 0.;
  }

let blit_rows src dst =
  let n = Array.length src.compute in
  Array.blit src.compute 0 dst.compute 0 n;
  Array.blit src.bytes_in 0 dst.bytes_in 0 n;
  Array.blit src.bytes_out 0 dst.bytes_out 0 n;
  Array.blit src.memory 0 dst.memory 0 n

type t = {
  platform : P.t;
  g : G.t;
  opts : options;
  assignment : int array;  (* -1 = unassigned *)
  mutable n_assigned : int;
  (* Cached resource rows. Float rows are recomputed lazily, per PE, by
     accumulating exactly the contributions [Steady_state.loads] would,
     in the same order: that recomputation — never an incremental
     add/subtract, which drifts — is what makes every accessor bitwise
     equal to a from-scratch evaluation. *)
  rows : rows;
  row_dirty : bool array;  (* the four float rows of a PE, together *)
  dma_in : int array;  (* integer counters: maintained incrementally *)
  dma_to_ppe : int array;
  link_out : float array;  (* per Cell; recomputed wholesale when dirty *)
  link_in : float array;
  mutable links_dirty : bool;
  buff : float array;  (* per-edge buffer bytes *)
  mutable buff_dirty : bool;  (* only under [tight_pipeline] *)
  mutable journal : op list;
  (* Preallocated scratch for the exact probe: a probe saves the
     validated float state, mutates, evaluates, reverses the integer
     state and blits the floats back — a bitwise restoration with no
     recomputation on the undo side. *)
  saved : rows;
  save_link_out : float array;
  save_link_in : float array;
  save_buff : float array;
  (* Scratch for the filtered probes: the terms the moved tasks add to
     the two touched rows before and after the move, and the row
     selector that restricts the accumulation to those rows. *)
  before : rows;
  after : rows;
  probe_rows : bool array;
  slack : float;  (* relative error bound of a row sum, see [lower_bound] *)
}

let options t = t.opts
let platform t = t.platform
let graph t = t.g
let pe_of t k = t.assignment.(k)
let n_assigned t = t.n_assigned
let undo_depth t = List.length t.journal

(* --- buffer sizes --------------------------------------------------- *)

(* Under [tight_pipeline] the first periods — hence the buffer sizes —
   depend on which edges are colocated. For partial assignments an edge
   counts as colocated when both endpoints are assigned to the same PE,
   which coincides with [Steady_state.first_periods ~mapping] once the
   assignment is complete. Integer arithmetic throughout: exact. *)
let recompute_buffers t =
  let g = t.g in
  let fp = Array.make (G.n_tasks g) 0 in
  let colocated e =
    let { G.src; dst; _ } = G.edge g e in
    let sp = t.assignment.(src) in
    sp >= 0 && sp = t.assignment.(dst)
  in
  let compute k =
    match G.in_edges g k with
    | [] -> fp.(k) <- 0
    | ins ->
        let peek = (G.task g k).Streaming.Task.peek in
        let over_pred acc e =
          let j = (G.edge g e).G.src in
          let comm = if colocated e then 0 else 1 in
          max acc (fp.(j) + 1 + comm + peek)
        in
        fp.(k) <- List.fold_left over_pred 0 ins
  in
  Array.iter compute (G.topological_order g);
  for e = 0 to G.n_edges g - 1 do
    let { G.src; dst; data_bytes } = G.edge g e in
    t.buff.(e) <- data_bytes *. float_of_int (fp.(dst) - fp.(src))
  done

let flush_buffers t =
  if t.buff_dirty then begin
    recompute_buffers t;
    Array.fill t.row_dirty 0 (Array.length t.row_dirty) true;
    t.buff_dirty <- false
  end

(* --- the model: what a task or an edge adds to the rows -------------- *)

(* Task [k]'s own terms on PE [pe]: its work (PPE speedup applied) and
   its read/write traffic. *)
let add_task t (r : rows) k pe =
  let p = t.platform in
  let task = G.task t.g k in
  let w = Streaming.Task.w task (P.pe_class p pe) in
  let w = if P.is_ppe p pe then w /. p.P.ppe_speedup else w in
  r.compute.(pe) <- r.compute.(pe) +. w;
  r.bytes_in.(pe) <- r.bytes_in.(pe) +. task.Streaming.Task.read_bytes;
  r.bytes_out.(pe) <- r.bytes_out.(pe) +. task.Streaming.Task.write_bytes

(* Edge [e]'s terms on the rows flagged in [sel], under the current
   assignment: the remote traffic when both endpoints are assigned to
   different PEs, and the buffer copies. Each assigned endpoint holds its
   buffer copy — also for half-assigned edges — except one copy total
   when colocated under buffer sharing. *)
let add_edge t (r : rows) sel e =
  let edge = G.edge t.g e in
  let sp = t.assignment.(edge.G.src) and dp = t.assignment.(edge.G.dst) in
  let active = sp >= 0 && dp >= 0 in
  if active && sp <> dp then begin
    if sel.(sp) then r.bytes_out.(sp) <- r.bytes_out.(sp) +. edge.G.data_bytes;
    if sel.(dp) then r.bytes_in.(dp) <- r.bytes_in.(dp) +. edge.G.data_bytes
  end;
  if active && sp = dp && t.opts.share_colocated_buffers then begin
    if sel.(sp) then r.memory.(sp) <- r.memory.(sp) +. t.buff.(e)
  end
  else begin
    if sp >= 0 && sel.(sp) then r.memory.(sp) <- r.memory.(sp) +. t.buff.(e);
    if dp >= 0 && sel.(dp) then r.memory.(dp) <- r.memory.(dp) +. t.buff.(e)
  end

(* --- canonical row recomputation ------------------------------------ *)

(* Rebuild every dirty PE's four float rows in one batched pass with the
   loop structure of [Steady_state.loads] restricted to the dirty rows:
   all per-task terms in increasing task id, then all per-edge terms in
   increasing edge id (source copy before destination copy within an
   edge). Canonical order — hence bitwise equality with a from-scratch
   evaluation — holds by construction, and a probe touching several rows
   pays one O(tasks + edges) sweep, not one per row. *)
let recompute_dirty_rows t =
  let g = t.g and r = t.rows in
  let n = P.n_pes t.platform in
  if Obs.Metrics.enabled () then begin
    Obs.Metrics.Counter.inc m_sweeps;
    let dirty = ref 0 in
    for pe = 0 to n - 1 do
      if t.row_dirty.(pe) then incr dirty
    done;
    Obs.Metrics.Counter.add m_row_recomputes !dirty
  end;
  for pe = 0 to n - 1 do
    if t.row_dirty.(pe) then begin
      r.compute.(pe) <- 0.;
      r.bytes_in.(pe) <- 0.;
      r.bytes_out.(pe) <- 0.;
      r.memory.(pe) <- 0.
    end
  done;
  for k = 0 to G.n_tasks g - 1 do
    let pe = t.assignment.(k) in
    if pe >= 0 && t.row_dirty.(pe) then add_task t r k pe
  done;
  for e = 0 to G.n_edges g - 1 do
    add_edge t r t.row_dirty e
  done;
  Array.fill t.row_dirty 0 n false

let recompute_links t =
  Array.fill t.link_out 0 (Array.length t.link_out) 0.;
  Array.fill t.link_in 0 (Array.length t.link_in) 0.;
  let p = t.platform in
  for e = 0 to G.n_edges t.g - 1 do
    let edge = G.edge t.g e in
    let sp = t.assignment.(edge.G.src) and dp = t.assignment.(edge.G.dst) in
    if sp >= 0 && dp >= 0 && sp <> dp then begin
      let sc = P.cell_of p sp and dc = P.cell_of p dp in
      if sc <> dc then begin
        t.link_out.(sc) <- t.link_out.(sc) +. edge.G.data_bytes;
        t.link_in.(dc) <- t.link_in.(dc) +. edge.G.data_bytes
      end
    end
  done;
  t.links_dirty <- false

let any_row_dirty t =
  let n = Array.length t.row_dirty in
  let rec scan i = i < n && (t.row_dirty.(i) || scan (i + 1)) in
  scan 0

let validate_rows t =
  flush_buffers t;
  if any_row_dirty t then recompute_dirty_rows t

let validate_all t =
  validate_rows t;
  if t.links_dirty then recompute_links t

(* --- mutation primitives -------------------------------------------- *)

let dirt t pe = t.row_dirty.(pe) <- true

let cross_cell t a b = P.cell_of t.platform a <> P.cell_of t.platform b

(* Remove task [k]'s contributions (it must be assigned). Only the rows
   of [k]'s PE and of its assigned neighbours' PEs can change; integer
   DMA counters are adjusted in place. *)
let detach t k =
  let pe = t.assignment.(k) in
  let handle_in e =
    let edge = G.edge t.g e in
    let sp = t.assignment.(edge.G.src) in
    if sp >= 0 then
      if sp <> pe then begin
        t.dma_in.(pe) <- t.dma_in.(pe) - 1;
        if P.is_spe t.platform sp && P.is_ppe t.platform pe then
          t.dma_to_ppe.(sp) <- t.dma_to_ppe.(sp) - 1;
        dirt t sp;
        if cross_cell t sp pe then t.links_dirty <- true
      end
      else if t.opts.tight_pipeline then t.buff_dirty <- true
  in
  let handle_out e =
    let edge = G.edge t.g e in
    let dp = t.assignment.(edge.G.dst) in
    if dp >= 0 then
      if dp <> pe then begin
        t.dma_in.(dp) <- t.dma_in.(dp) - 1;
        if P.is_spe t.platform pe && P.is_ppe t.platform dp then
          t.dma_to_ppe.(pe) <- t.dma_to_ppe.(pe) - 1;
        dirt t dp;
        if cross_cell t pe dp then t.links_dirty <- true
      end
      else if t.opts.tight_pipeline then t.buff_dirty <- true
  in
  List.iter handle_in (G.in_edges t.g k);
  List.iter handle_out (G.out_edges t.g k);
  t.assignment.(k) <- -1;
  t.n_assigned <- t.n_assigned - 1;
  dirt t pe

(* Mirror of [detach]: add task [k]'s contributions on PE [pe]. *)
let attach t k pe =
  t.assignment.(k) <- pe;
  t.n_assigned <- t.n_assigned + 1;
  dirt t pe;
  let handle_in e =
    let edge = G.edge t.g e in
    let sp = t.assignment.(edge.G.src) in
    if sp >= 0 && edge.G.src <> k then
      if sp <> pe then begin
        t.dma_in.(pe) <- t.dma_in.(pe) + 1;
        if P.is_spe t.platform sp && P.is_ppe t.platform pe then
          t.dma_to_ppe.(sp) <- t.dma_to_ppe.(sp) + 1;
        dirt t sp;
        if cross_cell t sp pe then t.links_dirty <- true
      end
      else if t.opts.tight_pipeline then t.buff_dirty <- true
  in
  let handle_out e =
    let edge = G.edge t.g e in
    let dp = t.assignment.(edge.G.dst) in
    if dp >= 0 && edge.G.dst <> k then
      if dp <> pe then begin
        t.dma_in.(dp) <- t.dma_in.(dp) + 1;
        if P.is_spe t.platform pe && P.is_ppe t.platform dp then
          t.dma_to_ppe.(pe) <- t.dma_to_ppe.(pe) + 1;
        dirt t dp;
        if cross_cell t pe dp then t.links_dirty <- true
      end
      else if t.opts.tight_pipeline then t.buff_dirty <- true
  in
  List.iter handle_in (G.in_edges t.g k);
  List.iter handle_out (G.out_edges t.g k)

(* --- construction ---------------------------------------------------- *)

let create_empty ?(options = default_options) platform g =
  let n = P.n_pes platform in
  let m = G.n_edges g in
  {
    platform;
    g;
    opts = options;
    assignment = Array.make (G.n_tasks g) (-1);
    n_assigned = 0;
    rows = make_rows n;
    row_dirty = Array.make n false;
    dma_in = Array.make n 0;
    dma_to_ppe = Array.make n 0;
    link_out = Array.make platform.P.n_cells 0.;
    link_in = Array.make platform.P.n_cells 0.;
    links_dirty = false;
    buff = Steady_state.buffer_sizes ~first_periods:(Steady_state.first_periods g) g;
    buff_dirty = false;
    journal = [];
    saved = make_rows n;
    save_link_out = Array.make platform.P.n_cells 0.;
    save_link_in = Array.make platform.P.n_cells 0.;
    save_buff = Array.make m 0.;
    before = make_rows n;
    after = make_rows n;
    probe_rows = Array.make n false;
    slack =
      float_of_int ((2 * (G.n_tasks g + (2 * m))) + 16) *. epsilon_float;
  }

let check_pe t pe =
  if pe < 0 || pe >= P.n_pes t.platform then
    invalid_arg "Eval: PE index out of range"

let assign t ~task ~pe =
  check_pe t pe;
  if t.assignment.(task) >= 0 then invalid_arg "Eval.assign: task already assigned";
  attach t task pe

let unassign t ~task =
  if t.assignment.(task) < 0 then invalid_arg "Eval.unassign: task not assigned";
  detach t task

let create ?options platform g m =
  let t = create_empty ?options platform g in
  for k = 0 to G.n_tasks g - 1 do
    attach t k (Mapping.pe m k)
  done;
  t

(* --- accessors ------------------------------------------------------- *)

let compute_on t pe = validate_rows t; t.rows.compute.(pe)
let memory_on t pe = validate_rows t; t.rows.memory.(pe)
let bytes_in_on t pe = validate_rows t; t.rows.bytes_in.(pe)
let bytes_out_on t pe = validate_rows t; t.rows.bytes_out.(pe)
let dma_in_on t pe = t.dma_in.(pe)
let dma_to_ppe_on t pe = t.dma_to_ppe.(pe)

let task_buffer_bytes t k =
  flush_buffers t;
  let sum = List.fold_left (fun acc e -> acc +. t.buff.(e)) 0. in
  sum (G.out_edges t.g k) +. sum (G.in_edges t.g k)

let assign_memory_delta t ~task ~pe =
  let base = task_buffer_bytes t task in
  if not t.opts.share_colocated_buffers then base
  else begin
    let saved e other =
      if t.assignment.(other) = pe then t.buff.(e) else 0.
    in
    let saved_in =
      List.fold_left
        (fun acc e -> acc +. saved e (G.edge t.g e).G.src)
        0. (G.in_edges t.g task)
    in
    let saved_out =
      List.fold_left
        (fun acc e -> acc +. saved e (G.edge t.g e).G.dst)
        0. (G.out_edges t.g task)
    in
    base -. (saved_in +. saved_out)
  end

let mapping t =
  if t.n_assigned <> G.n_tasks t.g then
    invalid_arg "Eval.mapping: partial assignment";
  Mapping.make t.platform t.g (Array.copy t.assignment)

(* Loads view sharing the internal arrays — valid only right after
   [validate_all] and never exposed to callers. *)
let internal_loads t =
  {
    Steady_state.compute = t.rows.compute;
    bytes_in = t.rows.bytes_in;
    bytes_out = t.rows.bytes_out;
    memory = t.rows.memory;
    dma_in = t.dma_in;
    dma_to_ppe = t.dma_to_ppe;
    link_out = t.link_out;
    link_in = t.link_in;
  }

let loads t =
  validate_all t;
  {
    Steady_state.compute = Array.copy t.rows.compute;
    bytes_in = Array.copy t.rows.bytes_in;
    bytes_out = Array.copy t.rows.bytes_out;
    memory = Array.copy t.rows.memory;
    dma_in = Array.copy t.dma_in;
    dma_to_ppe = Array.copy t.dma_to_ppe;
    link_out = Array.copy t.link_out;
    link_in = Array.copy t.link_in;
  }

let period t =
  validate_all t;
  Steady_state.period t.platform (internal_loads t)

let bottleneck t =
  validate_all t;
  Steady_state.bottleneck t.platform (internal_loads t)

let violations t =
  validate_all t;
  Steady_state.violations_of_loads t.platform (internal_loads t)

let feasible t =
  validate_all t;
  let p = t.platform in
  let budget = float_of_int (P.spe_memory_budget p) in
  let ok = ref true in
  let pe = ref 0 in
  let n = P.n_pes p in
  while !ok && !pe < n do
    if P.is_spe p !pe then
      if
        t.rows.memory.(!pe) > budget
        || t.dma_in.(!pe) > p.P.max_dma_in
        || t.dma_to_ppe.(!pe) > p.P.max_dma_to_ppe
      then ok := false;
    incr pe
  done;
  !ok

(* --- journaled mutations and probing --------------------------------- *)

let apply_move t ~task ~pe =
  check_pe t pe;
  let old_pe = t.assignment.(task) in
  if old_pe < 0 then invalid_arg "Eval.apply_move: task not assigned";
  detach t task;
  attach t task pe;
  t.journal <- Move (task, old_pe) :: t.journal;
  if Obs.Metrics.enabled () then Obs.Metrics.Counter.inc m_moves

let apply_swap t k1 k2 =
  let p1 = t.assignment.(k1) and p2 = t.assignment.(k2) in
  if p1 < 0 || p2 < 0 then invalid_arg "Eval.apply_swap: task not assigned";
  detach t k1;
  detach t k2;
  attach t k1 p2;
  attach t k2 p1;
  t.journal <- Swap (k1, k2) :: t.journal;
  if Obs.Metrics.enabled () then Obs.Metrics.Counter.inc m_swaps

let undo t =
  match t.journal with
  | [] -> invalid_arg "Eval.undo: empty journal"
  | Move (task, old_pe) :: rest ->
      t.journal <- rest;
      detach t task;
      attach t task old_pe
  | Swap (k1, k2) :: rest ->
      t.journal <- rest;
      let p1 = t.assignment.(k1) and p2 = t.assignment.(k2) in
      detach t k1;
      detach t k2;
      attach t k1 p2;
      attach t k2 p1

(* Exact probe: snapshot the validated float state, mutate, evaluate,
   reverse the integer state with the mirror detach/attach (exact:
   integer arithmetic and set operations invert perfectly), and blit the
   floats back — the restored state is bitwise the pre-probe one, with
   no recomputation spent on the way back. [save_floats] copies without
   validating: the caller validates before it mutates. *)
let save_floats t =
  blit_rows t.rows t.saved;
  let c = Array.length t.link_out in
  Array.blit t.link_out 0 t.save_link_out 0 c;
  Array.blit t.link_in 0 t.save_link_in 0 c;
  if t.opts.tight_pipeline then
    Array.blit t.buff 0 t.save_buff 0 (Array.length t.buff)

let restore_floats t =
  blit_rows t.saved t.rows;
  Array.fill t.row_dirty 0 (Array.length t.row_dirty) false;
  let c = Array.length t.link_out in
  Array.blit t.save_link_out 0 t.link_out 0 c;
  Array.blit t.save_link_in 0 t.link_in 0 c;
  t.links_dirty <- false;
  if t.opts.tight_pipeline then begin
    Array.blit t.save_buff 0 t.buff 0 (Array.length t.buff);
    t.buff_dirty <- false
  end

let probe_move t ~task ~pe =
  check_pe t pe;
  let old_pe = t.assignment.(task) in
  if old_pe < 0 then invalid_arg "Eval.probe_move: task not assigned";
  if Obs.Metrics.enabled () then Obs.Metrics.Counter.inc m_probes;
  validate_all t;
  save_floats t;
  detach t task;
  attach t task pe;
  let p = period t in
  let f = feasible t in
  detach t task;
  attach t task old_pe;
  restore_floats t;
  (p, f)

let probe_swap t k1 k2 =
  let p1 = t.assignment.(k1) and p2 = t.assignment.(k2) in
  if p1 < 0 || p2 < 0 then invalid_arg "Eval.probe_swap: task not assigned";
  if Obs.Metrics.enabled () then Obs.Metrics.Counter.inc m_probes;
  validate_all t;
  save_floats t;
  detach t k1;
  detach t k2;
  attach t k1 p2;
  attach t k2 p1;
  let p = period t in
  let f = feasible t in
  detach t k1;
  detach t k2;
  attach t k1 p1;
  attach t k2 p2;
  restore_floats t;
  (p, f)

(* --- filtered probes ---------------------------------------------------

   The decision ladder is documented on [probe_move_below] in the
   interface. Steps 1–3 never write the float rows, so reverting the
   integer state and clearing the dirty flags ([settle]) restores the
   validated pre-probe state whichever step decided. *)

(* Lower bound on the canonical float value of a row after the probe,
   from its canonical value [v] before it and the float sums [before]
   and [after] of the terms the moved tasks and their edges add to the
   row before and after. Over the reals, the new row's exact sum is the
   old exact sum minus the exact before-sum plus the exact after-sum, as
   every other term is unchanged. Each float sum — [v], [before],
   [after] and the new canonical value — is within gamma_N = N u /
   (1 - N u) (u = epsilon_float / 2) of its exact sum, relative to it,
   for N <= tasks + 2 edges terms, because every term is finite and
   >= 0 (enforced by [Streaming.Task.make], [Graph.add_edge] and the
   graph-file parser). The four errors and the rounding of this
   expression together stay under [slack (v + before + after)] with
   [slack = (2 (tasks + 2 edges) + 16) epsilon_float]. Division by the
   positive bandwidth is monotone, so the bound carries over to the
   interface terms of the period. *)
let lower_bound slack v before after =
  v -. before +. after -. (slack *. (v +. before +. after))

(* Step 1: the largest period term that a move or swap between [a] and
   [b] leaves bitwise unchanged, stopping once it reaches [cutoff]. The
   link rows are unchanged only when [a] and [b] share a Cell. *)
let untouched_reaches t a b ~cutoff =
  let p = t.platform and r = t.rows in
  let reaches = ref false in
  let pe = ref 0 and n = P.n_pes p in
  while (not !reaches) && !pe < n do
    let q = !pe in
    if q <> a && q <> b then
      reaches :=
        r.compute.(q) >= cutoff
        || r.bytes_in.(q) /. p.P.bw >= cutoff
        || r.bytes_out.(q) /. p.P.bw >= cutoff;
    incr pe
  done;
  if (not !reaches) && P.cell_of p a = P.cell_of p b then
    for c = 0 to p.P.n_cells - 1 do
      if
        t.link_out.(c) /. p.P.inter_cell_bw >= cutoff
        || t.link_in.(c) /. p.P.inter_cell_bw >= cutoff
      then reaches := true
    done;
  !reaches

(* Add to [r] what the moved tasks [k1] and [k2] ([k2 = -1] for a move)
   and their incident edges contribute to the rows flagged in
   [probe_rows], under the current assignment. The edge between the two
   tasks of a swap is counted once. *)
let add_moved t r k1 k2 =
  let add k ~skip =
    add_task t r k t.assignment.(k);
    List.iter
      (fun e -> if (G.edge t.g e).G.src <> skip then add_edge t r t.probe_rows e)
      (G.in_edges t.g k);
    List.iter
      (fun e -> if (G.edge t.g e).G.dst <> skip then add_edge t r t.probe_rows e)
      (G.out_edges t.g k)
  in
  add k1 ~skip:(-1);
  if k2 >= 0 then add k2 ~skip:k1

let clear_row r pe =
  r.compute.(pe) <- 0.;
  r.bytes_in.(pe) <- 0.;
  r.bytes_out.(pe) <- 0.;
  r.memory.(pe) <- 0.

(* Select rows [a]/[b] and accumulate the before-terms. *)
let gather_before t a b k1 k2 =
  t.probe_rows.(a) <- true;
  t.probe_rows.(b) <- true;
  clear_row t.before a;
  clear_row t.before b;
  clear_row t.after a;
  clear_row t.after b;
  add_moved t t.before k1 k2

let dma_over t =
  let p = t.platform in
  let over = ref false in
  for pe = 0 to P.n_pes p - 1 do
    if
      P.is_spe p pe
      && (t.dma_in.(pe) > p.P.max_dma_in
         || t.dma_to_ppe.(pe) > p.P.max_dma_to_ppe)
    then over := true
  done;
  !over

(* Step 3 for one touched row. *)
let row_rejects t pe ~cutoff =
  let p = t.platform and s = t.slack in
  let v = t.rows and b = t.before and a = t.after in
  lower_bound s v.compute.(pe) b.compute.(pe) a.compute.(pe) >= cutoff
  || lower_bound s v.bytes_in.(pe) b.bytes_in.(pe) a.bytes_in.(pe) /. p.P.bw
     >= cutoff
  || lower_bound s v.bytes_out.(pe) b.bytes_out.(pe) a.bytes_out.(pe) /. p.P.bw
     >= cutoff
  || P.is_spe p pe
     && lower_bound s v.memory.(pe) b.memory.(pe) a.memory.(pe)
        > float_of_int (P.spe_memory_budget p)

(* Step 4: the exact answer on the mutated state; the floats come back
   to their pre-probe values. *)
let exact_below t ~cutoff =
  if Obs.Metrics.enabled () then Obs.Metrics.Counter.inc m_probes_exact;
  save_floats t;
  let p = period t in
  let f = feasible t in
  restore_floats t;
  if f && p < cutoff then Some p else None

(* Steps 2–4 on the mutated state. *)
let decide_mutated t a b k1 k2 ~cutoff =
  if t.links_dirty || t.buff_dirty then exact_below t ~cutoff
  else if dma_over t then None
  else begin
    add_moved t t.after k1 k2;
    if row_rejects t a ~cutoff || row_rejects t b ~cutoff then None
    else exact_below t ~cutoff
  end

let settle t a b =
  Array.fill t.row_dirty 0 (Array.length t.row_dirty) false;
  t.links_dirty <- false;
  t.buff_dirty <- false;
  t.probe_rows.(a) <- false;
  t.probe_rows.(b) <- false

let probe_move_below t ~task ~pe ~cutoff =
  check_pe t pe;
  let old_pe = t.assignment.(task) in
  if old_pe < 0 then invalid_arg "Eval.probe_move_below: task not assigned";
  if Obs.Metrics.enabled () then Obs.Metrics.Counter.inc m_probes;
  validate_all t;
  if untouched_reaches t old_pe pe ~cutoff then None
  else begin
    gather_before t old_pe pe task (-1);
    detach t task;
    attach t task pe;
    let r = decide_mutated t old_pe pe task (-1) ~cutoff in
    detach t task;
    attach t task old_pe;
    settle t old_pe pe;
    r
  end

let probe_swap_below t k1 k2 ~cutoff =
  let p1 = t.assignment.(k1) and p2 = t.assignment.(k2) in
  if p1 < 0 || p2 < 0 then invalid_arg "Eval.probe_swap_below: task not assigned";
  if Obs.Metrics.enabled () then Obs.Metrics.Counter.inc m_probes;
  validate_all t;
  if untouched_reaches t p1 p2 ~cutoff then None
  else begin
    gather_before t p1 p2 k1 k2;
    detach t k1;
    detach t k2;
    attach t k1 p2;
    attach t k2 p1;
    let r = decide_mutated t p1 p2 k1 k2 ~cutoff in
    detach t k1;
    detach t k2;
    attach t k1 p1;
    attach t k2 p2;
    settle t p1 p2;
    r
  end

(* --- scratch wrappers ------------------------------------------------ *)

let scratch_period ?options platform g m = period (create ?options platform g m)

let scratch_feasible ?options platform g m =
  feasible (create ?options platform g m)
