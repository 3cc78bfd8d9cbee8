(** Incremental evaluation engine: the single source of truth for the
    resource state, period and feasibility of a (possibly partial) mapping.

    Every layer that explores mappings — {!Heuristics} placement and local
    search, the {!Mapping_search} branch and bound, {!Replication} and the
    resilience controller's remap loop — needs the same three questions
    answered for a stream of closely related candidates: what is the
    period, what is the bottleneck, is the mapping feasible. This engine
    materializes the full resource state once; a mutation costs
    O(degree(task)) and marks the touched rows dirty, and the next read
    revalidates them in one O(tasks + edges) sweep (see {b Exactness}).
    The filtered probes ({!probe_move_below}, {!probe_swap_below}) decide
    most local-search candidates without that sweep.

    {b Exactness.} The engine does not keep running float sums (which
    drift under add/subtract cycles). Each per-PE resource row is cached
    and, when a mutation dirties it, recomputed over exactly the
    contributions {!Steady_state.loads} would accumulate for that PE, in
    the same order — so every accessor returns values {e bitwise equal} to
    a from-scratch [Steady_state] evaluation of the same assignment, for
    every combination of {!options}. Keeping the canonical order means
    walking every task and edge once per revalidation, however few rows
    are dirty. DMA-queue counters are integers and are maintained
    incrementally (integer arithmetic is exact).

    {b Preconditions.} Task costs, traffic and edge sizes are finite and
    non-negative; the filtered probes' error bound relies on it.
    {!Streaming.Task.make} enforces it for tasks,
    {!Streaming.Graph.add_edge} rejects negative edge sizes, and the
    graph-file parser non-finite ones.

    {b Partial mappings.} Tasks may be unassigned (PE [-1]); an edge
    contributes to communication, DMA and memory accounting only through
    its assigned endpoints. On a complete assignment the state coincides
    with [Steady_state]. This is what lets branch-and-bound nodes extend
    an engine instead of rebuilding partial loads. *)

(** {1 Options} *)

type options = {
  share_colocated_buffers : bool;
      (** The §7 memory optimization: a colocated edge occupies one buffer
          instead of separate in/out copies. Default [false], as in the
          paper. *)
  tight_pipeline : bool;
      (** Compute buffer sizes from the mapping-aware
          {!Steady_state.first_periods}, skipping the communication period
          of colocated edges (§4.2 future work). Buffer sizes then depend
          on the whole assignment, so memory rows lose the O(degree)
          locality: the engine transparently falls back to a full buffer
          recomputation when a mutation changes any edge's colocation.
          Default [false]. *)
}

val default_options : options
(** Both [false] — the paper's model. *)

val make_options :
  ?share_colocated_buffers:bool -> ?tight_pipeline:bool -> unit -> options
(** Build an options record from the historical optional arguments; the
    bridge for call sites still written against the
    [?share_colocated_buffers]/[?tight_pipeline] labels. *)

(** {1 Construction} *)

type t

val create :
  ?options:options -> Cell.Platform.t -> Streaming.Graph.t -> Mapping.t -> t
(** Engine positioned on a complete mapping. O(tasks + edges). *)

val create_empty : ?options:options -> Cell.Platform.t -> Streaming.Graph.t -> t
(** Engine with every task unassigned — the root of a placement walk or a
    branch-and-bound tree. *)

val options : t -> options

val platform : t -> Cell.Platform.t

val graph : t -> Streaming.Graph.t

(** {1 Inspection} *)

val pe_of : t -> int -> int
(** Current PE of a task, [-1] when unassigned. *)

val n_assigned : t -> int

val mapping : t -> Mapping.t
(** Snapshot of a complete assignment.
    @raise Invalid_argument if some task is unassigned. *)

val loads : t -> Steady_state.loads
(** Fresh copy of the current resource state; bitwise equal to
    [Steady_state.loads] on the same (complete) assignment. *)

val period : t -> float
(** Smallest feasible period of the current state, exactly
    [Steady_state.period platform (loads t)] without the copy. O(PEs)
    plus the lazy revalidation of dirtied rows. *)

val bottleneck : t -> Steady_state.resource * float
(** Why the period is what it is; ties broken like
    {!Steady_state.bottleneck}. *)

val violations : t -> Steady_state.violation list
(** SPE memory and DMA-queue violations of the current state, identical
    to {!Steady_state.violations} on a complete assignment. *)

val feasible : t -> bool
(** [violations t = []], without materializing the list. *)

val compute_on : t -> int -> float
(** Committed compute seconds per period on a PE. *)

val memory_on : t -> int -> float
(** Committed local-store bytes on a PE. *)

val bytes_in_on : t -> int -> float
(** Committed input-interface bytes per period on a PE (task reads plus
    incoming remote edges). *)

val bytes_out_on : t -> int -> float
(** Committed output-interface bytes per period on a PE. *)

val dma_in_on : t -> int -> int

val dma_to_ppe_on : t -> int -> int

val task_buffer_bytes : t -> int -> float
(** Sum of the buffer sizes of a task's incident edges — its local-store
    footprint before any colocation saving. *)

val assign_memory_delta : t -> task:int -> pe:int -> float
(** Memory the PE would gain by assigning the (unassigned) task to it:
    the task's incident buffers, minus one copy of every buffer shared
    with a neighbour already on [pe] when [share_colocated_buffers]. *)

(** {1 Mutation}

    [assign]/[unassign] are the branch-and-bound primitives: the caller
    owns the discipline (they are not journaled). [apply_move] and
    [apply_swap] journal their inverse; [undo] pops the journal. The two
    families can be mixed as long as every journaled mutation is undone
    before the surrounding [assign]/[unassign] frame is closed. *)

val assign : t -> task:int -> pe:int -> unit
(** Place an unassigned task. O(degree).
    @raise Invalid_argument if the task is assigned or [pe] out of range. *)

val unassign : t -> task:int -> unit
(** Remove a task's assignment. O(degree).
    @raise Invalid_argument if the task is not assigned. *)

val apply_move : t -> task:int -> pe:int -> unit
(** Reassign an assigned task, journaling the inverse for {!undo}. *)

val apply_swap : t -> int -> int -> unit
(** Exchange the PEs of two assigned tasks (one journal entry). *)

val undo : t -> unit
(** Revert the most recent un-undone {!apply_move}/{!apply_swap}.
    @raise Invalid_argument on an empty journal. *)

val undo_depth : t -> int
(** Number of journaled mutations not yet undone. *)

(** {1 Probing (evaluate without committing)} *)

val probe_move : t -> task:int -> pe:int -> float * bool
(** Period and feasibility the state would have after
    [apply_move ~task ~pe]; the state is left untouched. One
    O(tasks + edges) revalidation sweep. *)

val probe_swap : t -> int -> int -> float * bool
(** Same for {!apply_swap}. *)

val probe_move_below : t -> task:int -> pe:int -> cutoff:float -> float option
(** [Some p] iff {!probe_move} would return [(p, true)] with [p < cutoff],
    and [p] is then bitwise that period; [None] otherwise. The state is
    left untouched (bitwise, journal included).

    A move or swap between PEs [a] and [b] changes the float rows of [a]
    and [b] only, so most probes are decided without a sweep, cheapest
    step first:
    + the largest period term over the other rows (and the inter-Cell
      links when [a] and [b] share a Cell) already reaches [cutoff];
    + after the mutation, an SPE exceeds a DMA limit (exact integers);
    + a lower bound on each new [a]/[b] row value,
      [v - before + after - eps (v + before + after)] with
      [eps = (2 (tasks + 2 edges) + 16) epsilon_float], reaches [cutoff]
      or an SPE's memory budget. [before]/[after] sum what the moved
      tasks and their edges add to the row before/after the move; the
      bound holds because every term is finite and non-negative, so each
      float sum is within [N epsilon_float / 2] (to first order) of its
      exact value relative to it, for at most [N = tasks + 2 edges]
      terms;
    + otherwise the exact evaluation of {!probe_move}.
    Steps 2–3 are skipped (straight to the exact step) when the mutation
    touches a cross-Cell edge or, under [tight_pipeline], changes an
    edge's colocation: those reach beyond rows [a]/[b]. *)

val probe_swap_below : t -> int -> int -> cutoff:float -> float option
(** Same for {!apply_swap}. *)

(** {1 Scratch wrappers}

    One-shot conveniences routing the historical
    [?share_colocated_buffers]/[?tight_pipeline] plumbing through an
    {!options} record; they evaluate through a throwaway engine and are
    the recommended spelling for single evaluations. *)

val scratch_period :
  ?options:options -> Cell.Platform.t -> Streaming.Graph.t -> Mapping.t -> float

val scratch_feasible :
  ?options:options -> Cell.Platform.t -> Streaming.Graph.t -> Mapping.t -> bool
