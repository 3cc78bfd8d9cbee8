(** Combinatorial branch-and-bound over task-to-PE assignments.

    The generic MILP solver ({!Lp.Branch_bound}) is exact but re-solves a
    large LP at every node, which does not scale to the paper's 50–94-task
    graphs. This module exploits the structure of the mapping problem the
    way a commercial solver exploits the model: tasks are assigned one by
    one in topological order, identical SPEs are explored up to symmetry
    (candidate PEs are the PPEs, the SPEs already in use, and a single
    fresh SPE), infeasible placements (local store, DMA queues) are pruned
    immediately, and each node is bounded below by

    - the occupation of the resources already committed, and
    - the closed-form {!Bounds} relaxations of the remaining work — the
      O(1) per-task bound and the O(PEs) pool-form interface-bandwidth
      check — followed by a divisible-load relaxation: remaining tasks
      may be split fractionally between the PPE pool and the SPE pool
      (a valid relaxation of constraints (1e)/(1f)), evaluated greedily by
      [w_spe/w_ppe] ratio inside a bisection on the period.

    Like the paper's use of CPLEX, the search can stop once the incumbent
    is proven within [rel_gap] of optimal; when {!Bounds.root_bound}
    already proves the ({!Portfolio}-seeded) incumbent within gap, no
    node is ever explored.

    Tasks are assigned {e hardest first} (descending local-store
    footprint, then work), so the divisible knapsacks go infeasible near
    the root where a prune cuts an exponential subtree. The search runs
    in two phases: a {e dive} — always sequential, under the fixed
    [dive_nodes] budget, hence a pure function of the instance whatever
    the pool size — whose incumbent re-derives the deterministic gap
    threshold; then, only if the tightened threshold still exceeds the
    root bound, a full phase at that threshold over the pool. When the
    dive lands within [rel_gap] of the root bound (the common case on
    the paper's 50-task instances) the second phase prunes entirely at
    the root and the result is proven within gap after a few tens of
    thousands of nodes.

    The tree is explored as {e node-budgeted subtree tasks}: each task
    searches one open prefix depth-first and, when its budget runs out,
    hands every still-open branch back as a fresh task — so no work is
    ever abandoned by the budget, and {!Par.Pool.parallel_grow}
    work-steals the tasks across domains however lopsided the tree is
    (the sequential path drains the same tasks off an explicit LIFO
    stack). Incumbents live in an {!Incumbent.t} — a strict total order
    (period, fingerprint, assignment) folded by retry-CAS — and pruning
    distinguishes a {e deterministic} gap rule (fixed threshold derived
    from the initial incumbent) from a {e result-safe} sharing rule
    (strictly-worse-than-live-best only), so the returned mapping,
    period and bounds are identical whether the subtree tasks run
    sequentially or on any number of domains. Node, prune, incumbent
    and subtree {e counters} do depend on timing in parallel runs, as
    does early stopping via [max_nodes]/[time_limit]. *)

type options = {
  rel_gap : float;  (** Relative optimality gap (paper: 0.05). *)
  max_nodes : int;
  dive_nodes : int;
      (** Node budget of the sequential dive phase (see below). *)
  time_limit : float;  (** Seconds. *)
  share_colocated_buffers : bool;
      (** Model the §7 colocated-buffer sharing in the memory accounting
          (both placement checks and bounds). *)
}

val default_options : options
(** [rel_gap = 0.05], [max_nodes = 10_000_000], [dive_nodes = 32_768],
    [time_limit = 30.], [share_colocated_buffers = false]. *)

type result = {
  mapping : Mapping.t;  (** Best feasible mapping found. *)
  period : float;  (** Its period. *)
  lower_bound : float;  (** Proven lower bound on the optimal period. *)
  gap : float;  (** [(period - lower_bound) / period]. *)
  nodes : int;
  optimal_within_gap : bool;
      (** True when the tree was exhausted (incumbent proven within
          [rel_gap]), false when a node/time limit stopped the search. *)
}

val solve :
  ?span:Obs.Span.ctx ->
  ?options:options ->
  ?should_stop:(unit -> bool) ->
  ?incumbent:Mapping.t ->
  ?pool:Par.Pool.t ->
  Cell.Platform.t ->
  Streaming.Graph.t ->
  result
(** [incumbent] seeds the search (it must be feasible; default: the best
    standard heuristic). [pool] fans the root subtrees out over worker
    domains; the result is bitwise identical to the sequential run (see
    above).

    [span] (default {!Obs.Span.null}: free) records the solver flight
    recorder: the portfolio seed's spans, a ["dive"] span (phase A)
    and a ["fanout"] span (phase B), each with one ["subtree:<hash>"]
    child per budgeted subtree task annotated with its local
    nodes/pruned/incumbents/spilled counters. The phase-B task {e set}
    is timing-dependent (budgets run out at different points), so
    subtree spans — like the node counters — vary between runs even
    though the returned mapping never does.

    [should_stop] is polled periodically during the search (default:
    never): once it returns [true] the search stops like a node budget
    running out and returns the best incumbent found so far — never
    nothing, since the search is seeded with a feasible mapping before
    the first node. Cancelled results are timing-dependent and therefore
    outside the bitwise-determinism contract; callers must treat them as
    {e partial} (the daemon tags such replies explicitly). *)
