(** A mapping request: solve one (graph, platform, solver options)
    triple. The unit of work of the batched front end ({!Batch}) and
    the key domain of the mapping cache ({!Cache}).

    Requests are keyed by a {e canonical} fingerprint — 32 hex digits
    combining {!Streaming.Canonical.fingerprint} of the graph (invariant
    under task relabeling and edge reordering) with FNV-1a hashes of
    every platform field and every solver option. Two requests with
    equal fingerprints describe the same problem up to task relabeling,
    so a cached solution can be transported between them (subject to the
    validation described in {!Batch}).

    The key travels with the request: every cache probe, recheck and
    insert reads it instead of canonicalising again. Its graph half is
    computed once per graph {e value}: {!make} memoises the
    {!Streaming.Canonical.key} of each physical [Streaming.Graph.t]
    (which is immutable once built), so a daemon that keeps a graph
    loaded refines it once, on first sight, and every later request
    for it costs a lookup. *)

type strategy =
  | Portfolio of { seed : int; restarts : int }
      (** {!Cellsched.Portfolio.solve}: deterministic for fixed seed and
          restart count at any pool size (the PR-4 contract). *)
  | Bb of { rel_gap : float; max_nodes : int }
      (** {!Cellsched.Mapping_search.solve} under a node budget — a
          deterministic cutoff, unlike a wall-clock limit. *)

type t = private {
  label : string;  (** User-facing name (e.g. the graph file); not keyed. *)
  platform : Cell.Platform.t;
  graph : Streaming.Graph.t;
  strategy : strategy;
  deadline_ms : float option;
      (** Wall-clock reply budget in milliseconds, counted by the daemon
          from admission: when it expires the solve is cancelled and the
          best incumbent so far is returned, tagged partial. [None] (the
          default, and the batch front end's behaviour) never cancels.
          Not part of the fingerprint — the problem is the same whatever
          the caller's patience. *)
  prio : int;
      (** Dispatch priority in the daemon's pending queue: higher first,
          FIFO within a level. Default [0]. Not part of the fingerprint. *)
  fingerprint : string;  (** The request key; see {!fingerprint}. *)
  order : int array;
      (** {!Streaming.Canonical.order} of [graph]: element [p] is the id of
          the task at canonical position [p]. Cached assignments are stored
          in this order and transported back through it. Shared by every
          request built on the same graph value: read it, never write it. *)
}
(** [private]: fields can be read, but a request can only be built by
    {!make} (or {!parse_line}), so its key always matches its graph,
    platform and strategy. *)

val default_strategy : strategy
(** [Portfolio] with {!Cellsched.Portfolio.default_seed} and
    {!Cellsched.Portfolio.default_restarts}. *)

val strategy_to_string : strategy -> string
(** Stable one-token rendering, e.g.
    ["portfolio:seed=24301,restarts=6"]. *)

val make :
  label:string ->
  platform:Cell.Platform.t ->
  graph:Streaming.Graph.t ->
  strategy:strategy ->
  deadline_ms:float option ->
  prio:int ->
  t
(** The one constructor. [order] and the graph fingerprint come from
    one {!Streaming.Canonical.key} refinement of [graph], made on the
    first [make] for that physical graph and memoised after it (a
    weak table: an entry lives as long as its graph; safe to call from
    any domain). A structurally equal but distinct graph value is
    refined again and gets the same key. The platform and strategy
    hashes are folded in on every call. Each call bumps
    [svc_canonical_keys_total{result="memo"|"computed"}] when metrics
    are enabled. *)

val fingerprint : t -> string
(** 32 lower-case hex digits: canonical graph hash, then a hash of
    (graph hash, platform, strategy). O(1): reads the key computed by
    {!make}. *)

val parse_line :
  load_graph:(string -> Streaming.Graph.t) ->
  ?default_spes:int ->
  ?default_strategy:strategy ->
  int ->
  string ->
  t option
(** Parse one line of a batch request file:
    {v <graph-file> [spes=N] [strategy=portfolio|bb] [seed=N]
       [restarts=N] [gap=F] [max-nodes=N] [deadline=MS] [prio=N] v}
    Blank lines and [#] comments yield [None]. The graph file is loaded
    through [load_graph] (callers may memoize). The platform is a QS22
    with [spes] SPEs (default [default_spes], itself defaulting to 8).
    [deadline] must be a positive number of milliseconds.
    @raise Failure with the line number on malformed input, including a
    graph file that [load_graph] cannot read ([Sys_error],
    [Unix.Unix_error]) or parse. *)

val max_loaded_graphs : int
(** 256: the most graphs one {!graph_loader} table keeps. *)

val max_loaded_bytes : int
(** 64 MiB: the most summed graph-file bytes one {!graph_loader} table
    keeps. *)

val graph_loader : unit -> string -> Streaming.Graph.t
(** A fresh memoizing [load_graph] for {!parse_line}. Every lookup
    makes one [Unix.stat] of the path: anything but a regular file is
    refused with [Sys_error "PATH: not a regular file"] before it is
    opened (a FIFO would block the caller), and a missing file raises
    [Unix.Unix_error]. A path whose (device, inode, size, mtime) matches
    its table entry returns the same graph value, so its key stays
    memoised; an edited or replaced file is read again with
    {!Streaming.Serialize.of_file} and becomes a new graph value with
    its own key. The table keeps at most {!max_loaded_graphs} graphs and
    {!max_loaded_bytes} of summed file sizes, dropping the least
    recently used beyond either bound.
    Not thread-safe: one loader per thread. *)
