(** Long-lived scheduling server: {!Service.Batch} promoted to a
    persistent event loop.

    One engine drives both transports ([stdin] pipe mode and a
    Unix-domain socket): lines come in through {!handle_line}, work
    advances through {!poll}. The split keeps every policy decision
    unit-testable without a file descriptor in sight:

    - {b Hits are free}: a request answered by the warm cache replies
      inline from {!handle_line} and never queues — an
      overloaded daemon keeps serving everything it already knows.
    - {b Admission control}: misses enter a bounded priority queue
      ({!Admission}); when queued plus in-flight work reaches
      [config.bound] the daemon replies [REJECT <id> overload]
      immediately instead of queueing without bound.
    - {b Deadlines}: a request's [deadline=MS] starts a wall-clock
      budget at receipt; when it expires mid-solve the solver is
      cancelled through the [should_stop] hook and the best incumbent
      so far — always a feasible mapping — is returned tagged
      [partial]. Partial results are {e never} written to the cache
      (they are timing-dependent; the cache stays deterministic).
    - {b Concurrency}: one dispatch path. At [config.concurrency = 1]
      {!poll} runs each dispatched solve inline (deterministic
      transcript, no domains spawned — fork-safe for tests). At
      [n > 1] it hands up to [n] solves at a time to a {!Par.Pool.t}
      as fire-and-forget tasks; completions cross back to the main
      loop through a mutex-protected queue, so the cache and the
      client writers are only ever touched from the loop. A worker
      that makes that queue non-empty writes one byte to the engine's
      wake pipe ({!wake_fd}), so the loop replies as soon as a solve
      lands instead of on a timer. What changes
      at [n > 1]: replies leave in completion order, not arrival
      order; up to [n] in-flight duplicates of one fingerprint may
      each solve (a duplicate still queued when its twin lands hits
      the cache at dispatch, as inline); and each reply's bytes still
      equal the inline daemon's, except that a duplicate which solved
      says [source: solver] where inline says [source: cache].
      Warm-cache hits never queue, so at [n > 1] they overtake long
      dives still in flight.
    - {b Persistence}: the warm cache (one locked LRU,
      {!Service.Shard}) loads from [cache_path] at start-up, flushes
      periodically ([flush_period] seconds after the last flush, when
      dirty; the serve loops' [select] timeout is set to that deadline)
      and always on shutdown — atomically ({!Service.Shard.save_files}),
      so a kill mid-flush never loses the previous complete snapshot.
    - {b Shutdown}: SIGINT/SIGTERM (installed by the serve loops) and
      the [QUIT] verb set one atomic flag and write a wake byte, so a
      loop blocked with nothing to do notices at once; in-flight
      solves cancel,
      still-pending requests are dispatched and cancel on their first
      check, so {e every admitted request is replied to} (tagged
      partial) before the final flush — a SIGTERM drops nothing.

    - {b Tracing}: every submitted request owns a private
      {!Obs.Span.collector}; the engine records a span tree rooted at
      a ["request"] span (annotated with status, priority and SLO
      outcome; its start is the receipt stamp, taken before the line is
      parsed) with children for the line and graph parse ([parse]), the
      cache probe ([cache] at receipt,
      [cache@dispatch] at the queue head), the admission-queue wait
      ([queue], stamped at admission), the [solve] (whose subtree is
      the solver flight recorder of {!Service.Batch.solve_request} —
      portfolio entrants, dive/fanout/subtree tasks, [milp-bb]) and the
      [reply] rendering/write. Finished trees are retained in a
      bounded FIFO (most recent 256) and served back by the
      [TRACE <id>] verb as one [span <path> dur_ms=...] line per span,
      parents first; with [config.trace_dir] set, each request
      additionally writes [<dir>/<id>.json] in Chrome [trace_event]
      format.

    Metric families ([daemon_*]: accepted/rejected/hits/solved/partial/
    deadline-expired/errors/flushes counters, pending and in-flight
    gauges, reply-latency, deadline-slack and per-stage latency
    histograms, SLO met/missed counters by priority band) are
    registered at module initialisation; the serve loops enable the
    registry on entry. *)

type config = {
  default_spes : int;  (** For request lines without [spes=]. *)
  default_strategy : Service.Request.strategy;
  bound : int;  (** Admission bound: max queued + in-flight misses. *)
  concurrency : int;  (** [1] = inline solves; [n > 1] = pool of [n]. *)
  cache_path : string option;
      (** Warm-start load at create, flush target afterwards. *)
  cache_entries : int option;  (** LRU entry bound (default 1024). *)
  cache_bytes : int option;  (** LRU byte bound (default 16 MiB). *)
  flush_period : float;
      (** Seconds between background flushes; [0.] disables the
          periodic flush (shutdown still flushes). *)
  metrics_file : string option;
      (** Rewritten at every flush and at shutdown; Prometheus text, or
          JSON when the path ends in [.json]. *)
  trace_dir : string option;
      (** When set (created if missing), every completed request writes
          its span tree to [<dir>/<id>.json] as a Chrome trace. *)
}

val default_config : config
(** 8 SPEs, portfolio strategy, bound 64, concurrency 1, no
    persistence, 30 s flush period, no trace directory. *)

type status = [ `Hit | `Solved | `Partial | `Rejected | `Error of string ]

type reply = {
  id : string;
  status : status;
  response : Service.Batch.response option;
      (** [None] for [`Rejected] and [`Error]. *)
  latency : float;  (** Seconds from line receipt to reply. *)
}

type stats = {
  received : int;  (** Request lines (malformed included; verbs not). *)
  accepted : int;  (** Hits plus admitted misses. *)
  rejected : int;
  errors : int;
  hits : int;
  solved : int;
  partials : int;
  replies : int;  (** Every reply sent, [REJECT]/[ERROR] included. *)
}

type t

val create :
  ?on_reply:(reply -> unit) ->
  ?load_graph:(string -> Streaming.Graph.t) ->
  config ->
  t
(** [on_reply] observes every request reply (tests, bench latency
    collection). [load_graph] (default: {!Service.Request.graph_loader})
    lets tests resolve graph names
    without touching the filesystem.
    @raise Invalid_argument on non-positive [bound] or [concurrency]. *)

val cache : t -> Service.Shard.t
(** The warm cache. *)

val stats : t -> stats

val handle_line : t -> out:(string -> unit) -> string -> unit
(** Parse and act on one protocol line. Verbs, malformed lines, cache
    hits and admission rejections reply immediately through [out];
    admitted misses wait for {!poll}. A request's latency and deadline
    budget start when this is called, before the line is parsed. *)

val poll : t -> unit
(** Advance the engine: reap completed solves (replying through each
    job's own [out]), dispatch pending work up to [concurrency], and
    run the periodic flush if it is due. Never blocks on other work:
    with a pool it only hands solves out; with [concurrency = 1] it
    runs a dispatched solve inline. It does not read {!wake_fd}. *)

val wake_fd : t -> Unix.file_descr
(** Read end of the engine's wake pipe. It turns readable when a pool
    solve completes into an empty completion queue, or when
    {!request_shutdown} is called; the serve loops, {!drain} and
    {!finish} block in [select] on it (plus client fds and the flush
    deadline) — there is no fixed tick. Closed by {!finish}. *)

val idle : t -> bool
(** No pending, in-flight or unreaped work. *)

val drain : t -> unit
(** {!poll} until {!idle} — lets outstanding work complete normally.
    Between polls it sleeps on {!wake_fd} (or the flush deadline), so
    it burns no CPU while solves run on the pool. *)

val flush : t -> unit
(** Persist now: cache to [cache_path] (atomic, forced) and the
    metrics file, when configured. *)

val request_shutdown : t -> unit
(** Signal-safe: sets the atomic stop flag, which also cancels
    in-flight solves at their next check, then writes a byte to
    {!wake_fd}, so a serve loop blocked in [select] wakes at once,
    even with no client and no timer. Engine users should call
    {!shutdown}. *)

val shutdown_requested : t -> bool

val finish : t -> unit
(** Graceful end-of-input (the pipe EOF path): drain letting solves
    complete, flush, stop the pool, close both ends of the wake pipe.
    Idempotent. *)

val shutdown : t -> unit
(** Fast stop (the SIGTERM/QUIT path): cancel in-flight solves, reply
    [partial] to everything admitted, then {!finish}. *)

val max_line_bytes : int
(** The longest request line the serve loops accept (64 KiB, newline
    excluded). A longer line is answered once, as soon as it passes the
    limit, with [ERROR <qN> line too long] (counted as a malformed
    line), and its remaining bytes are dropped up to the next newline.
    Input is scanned once as it arrives, so a client never costs more
    than this per connection in buffered bytes. *)

val serve_fd :
  ?on_reply:(reply -> unit) ->
  ?load_graph:(string -> Streaming.Graph.t) ->
  config ->
  input:Unix.file_descr ->
  output:Unix.file_descr ->
  t
(** Pipe mode: read lines from [input], write replies to [output],
    until EOF (then {!finish}) or SIGINT/SIGTERM/[QUIT] (then
    {!shutdown}). Each iteration blocks in one [select] on [input]
    (until EOF) and {!wake_fd}, timed out only by a due periodic flush.
    Enables metrics and installs signal handlers. Returns the engine
    for post-mortem {!stats}. *)

val serve_socket :
  ?on_reply:(reply -> unit) ->
  ?load_graph:(string -> Streaming.Graph.t) ->
  config ->
  path:string ->
  t
(** Unix-domain-socket mode: listen on [path] (an existing socket file
    is replaced; anything else there fails), multiplex any number of
    clients with the same one-[select] wait as {!serve_fd} (listening
    socket, clients, {!wake_fd}, flush deadline), ignore SIGPIPE,
    swallow writes to disconnected clients. Signal handlers are in
    place before the socket file appears. [QUIT] or a signal stops
    the whole server ({!shutdown}); the socket file is unlinked on
    exit. *)
