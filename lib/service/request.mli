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

    The key is computed once, when the request is built ({!make}), from
    a single colour refinement of the graph, and travels with it: every
    later cache probe, recheck and insert reads it instead of
    canonicalising again. *)

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
          in this order and transported back through it. *)
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
(** The one constructor: computes [fingerprint] and [order] from one
    {!Streaming.Canonical.key} refinement of [graph]. *)

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
    @raise Failure with the line number on malformed input. *)

val graph_loader : unit -> string -> Streaming.Graph.t
(** A fresh memoizing [load_graph] for {!parse_line}: each path is read
    with {!Streaming.Serialize.of_file} on first sight and the same
    graph is returned after that. The table lives as long as the
    closure; it is not bounded and does not notice edited files. *)
