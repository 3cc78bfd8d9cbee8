module Request = Service.Request
module Batch = Service.Batch
module Cache = Service.Cache
module Shard = Service.Shard

(* --- metrics -------------------------------------------------------------- *)

(* Registered eagerly at module initialisation (lazy registration from
   pool workers would race family creation) and bumped behind the
   repo-wide [Obs.Metrics.enabled] branch. The serve loops enable
   metrics on entry: a daemon's METRICS verb is part of its contract. *)
let m_requests =
  Obs.Metrics.counter ~help:"Daemon request lines received"
    "daemon_requests_total"

let m_accepted =
  Obs.Metrics.counter ~help:"Daemon requests admitted (cache hits included)"
    "daemon_accepted_total"

let m_rejected =
  Obs.Metrics.counter ~help:"Daemon requests refused by admission control"
    "daemon_rejected_total"

let m_hits =
  Obs.Metrics.counter ~help:"Daemon requests answered from the warm cache"
    "daemon_hits_total"

let m_solved =
  Obs.Metrics.counter ~help:"Daemon requests answered by a completed solve"
    "daemon_solved_total"

let m_partial =
  Obs.Metrics.counter
    ~help:"Daemon requests answered with a cancelled solve's best incumbent"
    "daemon_partial_total"

let m_deadline =
  Obs.Metrics.counter ~help:"Daemon solves cancelled by their deadline"
    "daemon_deadline_expired_total"

let m_errors =
  Obs.Metrics.counter ~help:"Daemon request lines refused as malformed"
    "daemon_errors_total"

let m_flushes =
  Obs.Metrics.counter ~help:"Daemon cache persistence flushes"
    "daemon_cache_flushes_total"

let g_pending =
  Obs.Metrics.gauge ~help:"Daemon requests admitted but not yet dispatched"
    "daemon_pending"

let g_inflight =
  Obs.Metrics.gauge ~help:"Daemon solves currently running" "daemon_inflight"

let h_latency =
  Obs.Metrics.histogram ~help:"Daemon reply latency (seconds since receipt)"
    "daemon_reply_seconds"

(* Slack can be negative (reply after the deadline), so the log-scale
   default is unusable: explicit symmetric-ish ms bounds instead. *)
let slack_buckets =
  [|
    -60000.; -30000.; -10000.; -5000.; -2000.; -1000.; -500.; -200.; -100.;
    -50.; -20.; -10.; -5.; -2.; -1.; 0.; 1.; 2.; 5.; 10.; 20.; 50.; 100.;
    200.; 500.; 1000.; 2000.; 5000.; 10000.; 30000.; 60000.;
  |]

let h_slack =
  Obs.Metrics.histogram
    ~help:
      "Milliseconds between the reply and its deadline (negative: missed)"
    ~buckets:slack_buckets "daemon_deadline_slack_ms"

(* SLO and stage families: every child hoisted eagerly at module init —
   family lookups from pool workers would contend the registry lock and
   lazy registration across domains is racy. *)
let slo_family name help =
  let child band = Obs.Metrics.counter_family ~help name ~labels:[ "band" ] [ band ] in
  (child "low", child "normal", child "high")

let slo_met =
  slo_family "daemon_slo_met_total"
    "Replies delivered within their deadline (no deadline counts as met), by priority band"

let slo_missed =
  slo_family "daemon_slo_missed_total"
    "Replies delivered after their deadline, by priority band"

let slo_counter (low, normal, high) prio =
  if prio < 0 then low else if prio > 0 then high else normal

let stage_hist stage =
  Obs.Metrics.histogram_family
    ~help:"Per-request stage latency (seconds), by stage" "daemon_stage_seconds"
    ~labels:[ "stage" ] [ stage ]

let h_stage_parse = stage_hist "parse"
let h_stage_queue = stage_hist "queue"
let h_stage_cache = stage_hist "cache"
let h_stage_solve = stage_hist "solve"
let h_stage_reply = stage_hist "reply"

(* --- configuration -------------------------------------------------------- *)

type config = {
  default_spes : int;
  default_strategy : Request.strategy;
  bound : int;
  concurrency : int;
  cache_path : string option;
  cache_entries : int option;
  cache_bytes : int option;
  flush_period : float;
  metrics_file : string option;
  trace_dir : string option;
}

let default_config =
  {
    default_spes = 8;
    default_strategy = Request.default_strategy;
    bound = 64;
    concurrency = 1;
    cache_path = None;
    cache_entries = None;
    cache_bytes = None;
    flush_period = 30.;
    metrics_file = None;
    trace_dir = None;
  }

(* --- server state --------------------------------------------------------- *)

type status = [ `Hit | `Solved | `Partial | `Rejected | `Error of string ]

type reply = {
  id : string;
  status : status;
  response : Batch.response option;
  latency : float;
}

type outcome =
  | Finished of {
      assignment : int array;
      period : float;
      bound : float;  (* proven lower bound, quoted on partial replies *)
      partial : bool;
      deadline_hit : bool;
    }
  | Crashed of string

type job = {
  id : string;
  request : Request.t;
  out : string -> unit;
  received : float;
  admitted : float;  (* after the receipt-time cache probe missed *)
  deadline : float;  (* absolute seconds; [infinity] when none *)
  trace : Obs.Span.collector;  (* this request's private span buffer *)
  span : Obs.Span.ctx;  (* position under the request root span *)
}

type done_item = { job : job; outcome : outcome }

type stats = {
  received : int;
  accepted : int;
  rejected : int;
  errors : int;
  hits : int;
  solved : int;
  partials : int;
  replies : int;
}

type t = {
  config : config;
  cache : Shard.t;
  view : Cache.view;  (* every cache touch below goes through it *)
  pool : Par.Pool.t option;
  admission : job Admission.t;
  (* Pool workers push completions; only the main loop drains. The
     cache, the admission queue and every [out] writer are therefore
     touched exclusively from the main loop. *)
  completed : done_item Queue.t;
  completed_mutex : Mutex.t;
  stop : bool Atomic.t;
  (* Self-pipe, both ends non-blocking: a byte in it means "poll has
     work that no fd shows" — a completion queued by a pool worker or a
     shutdown request from a signal handler. Only [wait] reads it. *)
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  wake_open : bool Atomic.t;
  load_graph : string -> Streaming.Graph.t;
  on_reply : reply -> unit;
  (* Completed span trees for the TRACE verb, bounded FIFO. Touched only
     from the main loop (send_reply and handle_line both run there). *)
  traces : (string, Obs.Span.span list) Hashtbl.t;
  trace_order : string Queue.t;
  mutable line_no : int;
  mutable auto_id : int;
  mutable last_flush : float;
  mutable dirty : bool;
  mutable received : int;
  mutable accepted : int;
  mutable rejected : int;
  mutable errors : int;
  mutable hits : int;
  mutable solved : int;
  mutable partials : int;
  mutable replies : int;
}

let create ?(on_reply = fun _ -> ()) ?load_graph config =
  if config.concurrency <= 0 then
    invalid_arg "Server.create: non-positive concurrency";
  if config.flush_period < 0. then
    invalid_arg "Server.create: negative flush period";
  let cache =
    match config.cache_path with
    | Some path ->
        Shard.load_files ?max_entries:config.cache_entries
          ?max_bytes:config.cache_bytes path
    | None ->
        Shard.create ?max_entries:config.cache_entries
          ?max_bytes:config.cache_bytes ()
  in
  let pool =
    if config.concurrency > 1 then
      Some (Par.Pool.create ~size:config.concurrency ())
    else None
  in
  let load_graph =
    match load_graph with Some f -> f | None -> Request.graph_loader ()
  in
  (match config.trace_dir with
  | Some dir -> ( try Unix.mkdir dir 0o755 with Unix.Unix_error _ -> ())
  | None -> ());
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  {
    config;
    cache;
    view = Shard.view cache;
    pool;
    admission = Admission.create ~bound:config.bound;
    completed = Queue.create ();
    completed_mutex = Mutex.create ();
    stop = Atomic.make false;
    wake_r;
    wake_w;
    wake_open = Atomic.make true;
    load_graph;
    on_reply;
    traces = Hashtbl.create 64;
    trace_order = Queue.create ();
    line_no = 0;
    auto_id = 0;
    last_flush = Unix.gettimeofday ();
    dirty = false;
    received = 0;
    accepted = 0;
    rejected = 0;
    errors = 0;
    hits = 0;
    solved = 0;
    partials = 0;
    replies = 0;
  }

let cache t = t.cache

let stats t =
  {
    received = t.received;
    accepted = t.accepted;
    rejected = t.rejected;
    errors = t.errors;
    hits = t.hits;
    solved = t.solved;
    partials = t.partials;
    replies = t.replies;
  }

let wake_fd t = t.wake_r

(* Safe from a signal handler and from pool workers, so it never
   raises: a full pipe (EAGAIN) already holds the byte that guarantees
   the wake, and a closed engine has no loop left to wake. *)
let wake t =
  if Atomic.get t.wake_open then
    try ignore (Unix.single_write_substring t.wake_w "!" 0 1)
    with Unix.Unix_error _ -> ()

let close_wake t =
  if Atomic.exchange t.wake_open false then begin
    Unix.close t.wake_r;
    Unix.close t.wake_w
  end

(* Stop flag first, byte second: a loop that consumes the byte then
   re-checks the flag is guaranteed to see it set. *)
let request_shutdown t =
  Atomic.set t.stop true;
  wake t

let shutdown_requested t = Atomic.get t.stop

let idle t =
  Admission.load t.admission = 0
  && begin
       Mutex.lock t.completed_mutex;
       let empty = Queue.is_empty t.completed in
       Mutex.unlock t.completed_mutex;
       empty
     end

let publish_queue t =
  if Obs.Metrics.enabled () then begin
    Obs.Metrics.Gauge.set g_pending
      (float_of_int (Admission.pending t.admission));
    Obs.Metrics.Gauge.set g_inflight
      (float_of_int (Admission.inflight t.admission))
  end

let metrics_inc c = if Obs.Metrics.enabled () then Obs.Metrics.Counter.inc c

let observe_latency latency =
  if Obs.Metrics.enabled () then Obs.Metrics.Histogram.observe h_latency latency

(* One timed stage: a child span plus the matching stage-latency
   histogram observation. *)
let stage_span span hist name f =
  let t0 = Unix.gettimeofday () in
  let v = Obs.Span.with_span span name (fun _ -> f ()) in
  if Obs.Metrics.enabled () then
    Obs.Metrics.Histogram.observe hist (Unix.gettimeofday () -. t0);
  v

(* --- persistence ---------------------------------------------------------- *)

let write_metrics_file path =
  let text =
    if Filename.check_suffix path ".json" then
      Obs.Metrics.to_json Obs.Metrics.default
    else Obs.Metrics.to_prometheus Obs.Metrics.default
  in
  match
    let oc = open_out_bin path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc text)
  with
  | () -> ()
  | exception Sys_error m -> Printf.eprintf "cellsched serve: %s\n%!" m

let flush t =
  (match t.config.cache_path with
  | Some path ->
      (match Shard.save_files ~force:true t.cache path with
      | Ok () ->
          t.dirty <- false;
          metrics_inc m_flushes
      | Error m -> Printf.eprintf "cellsched serve: cache flush: %s\n%!" m);
      (* Stamped after a failed flush too: the loop's [select] sleeps
         until the next period instead of retrying in a hot spin. *)
      t.last_flush <- Unix.gettimeofday ()
  | None -> ());
  match t.config.metrics_file with
  | Some path -> write_metrics_file path
  | None -> ()

(* Seconds until the periodic flush falls due (<= 0: due now), or
   [None] when there is nothing to flush periodically. *)
let flush_due_in t =
  if t.dirty && t.config.cache_path <> None && t.config.flush_period > 0.
  then Some (t.last_flush +. t.config.flush_period -. Unix.gettimeofday ())
  else None

let maybe_flush t =
  match flush_due_in t with Some d when d <= 0. -> flush t | _ -> ()

(* --- request lifecycle ---------------------------------------------------- *)

let next_id t =
  t.auto_id <- t.auto_id + 1;
  Printf.sprintf "q%d" t.auto_id

let max_retained_traces = 256

let write_trace_file t (job : job) spans =
  match t.config.trace_dir with
  | None -> ()
  | Some dir -> (
      let path = Filename.concat dir (job.id ^ ".json") in
      try
        let oc = open_out_bin path in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () -> output_string oc (Obs.Span.to_chrome_json spans))
      with Sys_error m -> Printf.eprintf "cellsched serve: trace: %s\n%!" m)

let store_trace t (job : job) spans =
  if not (Hashtbl.mem t.traces job.id) then begin
    Queue.push job.id t.trace_order;
    while Queue.length t.trace_order > max_retained_traces do
      Hashtbl.remove t.traces (Queue.pop t.trace_order)
    done
  end;
  (* An id reused by the client keeps its latest tree (no extra FIFO
     slot, so eviction order stays first-completion). *)
  Hashtbl.replace t.traces job.id spans

let send_reply t (job : job) ~partial ?bound response =
  stage_span job.span h_stage_reply "reply" (fun () ->
      job.out (Protocol.render_reply ~id:job.id ~partial ?bound response));
  let now = Unix.gettimeofday () in
  let latency = now -. job.received in
  t.replies <- t.replies + 1;
  observe_latency latency;
  let status : status =
    if partial then `Partial
    else match response.Batch.source with Batch.Hit -> `Hit | _ -> `Solved
  in
  (* SLO accounting: a reply with no deadline counts as met; slack is
     only meaningful (and only observed) for finite deadlines. *)
  let met = now <= job.deadline in
  if Obs.Metrics.enabled () then begin
    let prio = job.request.Request.prio in
    Obs.Metrics.Counter.inc
      (slo_counter (if met then slo_met else slo_missed) prio);
    if Float.is_finite job.deadline then
      Obs.Metrics.Histogram.observe h_slack ((job.deadline -. now) *. 1000.)
  end;
  (* Close the request root span and retain the finished tree for the
     TRACE verb and the per-request Chrome file. *)
  Obs.Span.record
    (Obs.Span.root job.trace ~trace:job.id)
    ~t_start:job.received ~t_stop:now
    ~attrs:
      [
        ( "status",
          Obs.Span.String
            (match status with
            | `Partial -> "partial"
            | `Hit -> "hit"
            | _ -> "solved") );
        ("prio", Obs.Span.Int job.request.Request.prio);
        ("slo_met", Obs.Span.Bool met);
      ]
    "request";
  let spans = Obs.Span.spans job.trace in
  store_trace t job spans;
  write_trace_file t job spans;
  t.on_reply { id = job.id; status; response = Some response; latency }

let send_error t ~id ~out reason =
  t.errors <- t.errors + 1;
  t.replies <- t.replies + 1;
  metrics_inc m_errors;
  out (Protocol.render_error ~id reason);
  t.on_reply { id; status = `Error reason; response = None; latency = 0. }

(* Runs on a pool worker (or inline when [concurrency = 1]). Touches
   nothing but the request, the stop flag and the completion queue, and
   captures every exception into [Crashed], so it is safe as a
   fire-and-forget pool task. *)
let run_job t (job : job) =
  let deadline_hit = ref false and cancelled = ref false in
  let should_stop () =
    if Unix.gettimeofday () > job.deadline then begin
      deadline_hit := true;
      cancelled := true;
      true
    end
    else if Atomic.get t.stop then begin
      cancelled := true;
      true
    end
    else false
  in
  let t0 = Unix.gettimeofday () in
  let outcome =
    match
      Obs.Span.with_span_attrs job.span "solve" (fun span ->
          let res = Batch.solve_request ~span ~should_stop job.request in
          ( res,
            [
              ("partial", Obs.Span.Bool !cancelled);
              ("deadline_hit", Obs.Span.Bool !deadline_hit);
            ] ))
    with
    | assignment, period, bound ->
        Finished
          {
            assignment;
            period;
            bound;
            partial = !cancelled;
            deadline_hit = !deadline_hit;
          }
    | exception exn -> Crashed (Printexc.to_string exn)
  in
  if Obs.Metrics.enabled () then
    Obs.Metrics.Histogram.observe h_stage_solve (Unix.gettimeofday () -. t0);
  Mutex.lock t.completed_mutex;
  let was_empty = Queue.is_empty t.completed in
  Queue.push { job; outcome } t.completed;
  Mutex.unlock t.completed_mutex;
  (* Only the empty -> non-empty edge needs a byte: the loop reaps the
     whole queue per wake, and [wait] consumes bytes before the reap,
     so a later push into a non-empty queue rides this byte's wake. *)
  if was_empty then wake t

let finish_job t { job; outcome } =
  Admission.finish t.admission;
  match outcome with
  | Crashed reason -> send_error t ~id:job.id ~out:job.out reason
  | Finished { assignment; period; bound; partial; deadline_hit } ->
      (* Partial results are timing-dependent: render them, never cache
         them (store:false), so the deterministic cache stays a pure
         function of the completed-solve history. *)
      let response =
        Batch.solved_response_view ~store:(not partial) ~view:t.view
          job.request (assignment, period)
      in
      if partial then begin
        t.partials <- t.partials + 1;
        metrics_inc m_partial;
        if deadline_hit then metrics_inc m_deadline
      end
      else begin
        t.solved <- t.solved + 1;
        t.dirty <- true;
        metrics_inc m_solved
      end;
      send_reply t job ~partial
        ?bound:(if partial then Some bound else None)
        response

let drain_completed t =
  let pending = Queue.create () in
  Mutex.lock t.completed_mutex;
  Queue.transfer t.completed pending;
  Mutex.unlock t.completed_mutex;
  Queue.iter (finish_job t) pending

let dispatch t =
  let rec go () =
    if Admission.inflight t.admission < t.config.concurrency then
      match Admission.next t.admission with
      | None -> ()
      | Some job -> (
          (* The admission-queue wait: from admission (after the parse
             and the receipt-time cache probe) to dispatch, recorded
             here because its start crossed an async boundary. *)
          let now = Unix.gettimeofday () in
          Obs.Span.record job.span ~t_start:job.admitted ~t_stop:now "queue";
          if Obs.Metrics.enabled () then
            Obs.Metrics.Histogram.observe h_stage_queue (now -. job.admitted);
          (* Re-check the cache at dispatch: a duplicate that queued
             behind its twin becomes a hit the moment the twin's solve
             lands, instead of burning a second solve. *)
          match
            stage_span job.span h_stage_cache "cache@dispatch" (fun () ->
                Batch.try_cache_view ~view:t.view job.request)
          with
          | Some response ->
              Admission.finish t.admission;
              t.hits <- t.hits + 1;
              metrics_inc m_hits;
              send_reply t job ~partial:false response;
              go ()
          | None ->
              (match t.pool with
              | Some pool -> Par.Pool.run_async pool (fun () -> run_job t job)
              | None -> run_job t job);
              go ())
  in
  go ()

let poll t =
  drain_completed t;
  dispatch t;
  drain_completed t;
  maybe_flush t;
  publish_queue t

(* A malformed request line: counted as received, answered with one
   ERROR under its own id when it had one, else the next [qN]. *)
let malformed t ~out ?id reason =
  t.received <- t.received + 1;
  metrics_inc m_requests;
  let id = match id with Some id -> id | None -> next_id t in
  send_error t ~id ~out reason

let handle_line t ~out line =
  (* Receipt is stamped before parsing: loading and parsing the graph
     file counts toward the reply latency and the deadline budget. *)
  let received = Unix.gettimeofday () in
  t.line_no <- t.line_no + 1;
  match
    Protocol.parse ~load_graph:t.load_graph
      ~default_spes:t.config.default_spes
      ~default_strategy:t.config.default_strategy t.line_no line
  with
  | Protocol.Nothing -> ()
  | Protocol.Command Protocol.Ping -> out Protocol.pong
  | Protocol.Command Protocol.Quit ->
      out Protocol.bye;
      request_shutdown t
  | Protocol.Command Protocol.Metrics ->
      out
        (Protocol.render_metrics
           (Obs.Metrics.to_prometheus Obs.Metrics.default))
  | Protocol.Command (Protocol.Trace id) -> (
      (* A read-only verb like METRICS: replies without touching the
         request counters or admission control. *)
      match Hashtbl.find_opt t.traces id with
      | Some spans ->
          out (Protocol.render_trace ~id (Obs.Span.render_flat spans))
      | None -> out (Protocol.render_error ~id "unknown or evicted trace id"))
  | Protocol.Malformed { id; reason } -> malformed t ~out ?id reason
  | Protocol.Command (Protocol.Submit { id; request }) -> (
      t.received <- t.received + 1;
      metrics_inc m_requests;
      let id = match id with Some id -> id | None -> next_id t in
      let parsed = Unix.gettimeofday () in
      (* Every request gets a private span collector rooted at its id;
         the root "request" span itself is recorded when the reply goes
         out, but children nest under it from the first probe on. *)
      let trace = Obs.Span.collector () in
      let span = Obs.Span.sub (Obs.Span.root trace ~trace:id) "request" in
      (* The parse ran before the request had an id to trace under, so
         its span is recorded retroactively from the receipt stamp. *)
      Obs.Span.record span ~t_start:received ~t_stop:parsed "parse";
      if Obs.Metrics.enabled () then
        Obs.Metrics.Histogram.observe h_stage_parse (parsed -. received);
      (* The warm-cache hit path never queues: it is answered inline,
         bypassing admission control entirely, so an overloaded daemon
         keeps serving everything it already knows. *)
      match
        stage_span span h_stage_cache "cache" (fun () ->
            Batch.try_cache_view ~view:t.view request)
      with
      | Some response ->
          t.accepted <- t.accepted + 1;
          t.hits <- t.hits + 1;
          metrics_inc m_accepted;
          metrics_inc m_hits;
          (* Never queued: [admitted] is unused on this path. *)
          send_reply t
            { id; request; out; received; admitted = received;
              deadline = infinity; trace; span }
            ~partial:false response
      | None ->
          let deadline =
            match request.Request.deadline_ms with
            | Some ms -> received +. (ms /. 1000.)
            | None -> infinity
          in
          let admitted = Unix.gettimeofday () in
          let job =
            { id; request; out; received; admitted; deadline; trace; span }
          in
          if Admission.admit t.admission ~prio:request.Request.prio job then begin
            t.accepted <- t.accepted + 1;
            metrics_inc m_accepted;
            publish_queue t
          end
          else begin
            t.rejected <- t.rejected + 1;
            t.replies <- t.replies + 1;
            metrics_inc m_rejected;
            out (Protocol.render_reject ~id);
            t.on_reply
              { id; status = `Rejected; response = None; latency = 0. }
          end)

(* --- lifecycle ------------------------------------------------------------ *)

(* The one blocking point of every loop: sleep until one of [fds] or
   the wake pipe is readable, or the next periodic flush falls due;
   don't sleep at all while {!poll} could dispatch queued work right
   away. Consumes pending wake bytes {e before} the caller's next
   [poll] reaps the completion queue (see [run_job]). Returns the
   readable members of [fds]. *)
let wait t fds =
  let timeout =
    if
      Admission.pending t.admission > 0
      && Admission.inflight t.admission < t.config.concurrency
    then 0.
    else match flush_due_in t with Some d -> Float.max 0. d | None -> -1.
  in
  match Unix.select (t.wake_r :: fds) [] [] timeout with
  | readable, _, _ ->
      if List.mem t.wake_r readable then (
        try ignore (Unix.read t.wake_r (Bytes.create 64) 0 64)
        with Unix.Unix_error _ -> ());
      List.filter (fun fd -> fd <> t.wake_r) readable
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> []

let drain t =
  while not (idle t) do
    poll t;
    if not (idle t) then ignore (wait t [])
  done

(* Pool first, then the wake pipe: once the workers are joined none
   can still be writing to it. *)
let release t =
  (match t.pool with Some pool -> Par.Pool.shutdown pool | None -> ());
  close_wake t

let finish t =
  drain t;
  flush t;
  publish_queue t;
  release t

let shutdown t =
  (* The stop flag cancels every in-flight solve; [drain] then
     dispatches the still-pending queue, whose solves cancel on their
     first check — every admitted request gets a (partial) reply before
     the flush, so a SIGTERM drops nothing. *)
  request_shutdown t;
  finish t

(* --- serve loops ---------------------------------------------------------- *)

let write_all fd s =
  let len = String.length s in
  let rec go off =
    if off < len then
      match Unix.write_substring fd s off (len - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

(* The longest request line the serve loops accept, newline excluded. *)
let max_line_bytes = 65536

(* One input stream's unfinished line. Once it passes [max_line_bytes]
   it has been answered and [overflow] drops its bytes up to the next
   newline. *)
type line_reader = { partial : Buffer.t; mutable overflow : bool }

let line_reader () = { partial = Buffer.create 1024; overflow = false }

let rec newline_at chunk i n =
  if i >= n || Bytes.get chunk i = '\n' then i else newline_at chunk (i + 1) n

(* Hand every line completed by the [n] bytes just read into [chunk] to
   {!handle_line}. Only those bytes are scanned, so a line costs linear
   time however it arrives, and a reader never holds more than
   [max_line_bytes]. An overlong line is answered once, as soon as it
   passes the limit, with [ERROR <qN> line too long]. *)
let feed_lines t ~out r chunk n =
  let rec go start =
    if start < n then begin
      let stop = newline_at chunk start n in
      if not r.overflow then
        if Buffer.length r.partial + (stop - start) > max_line_bytes then begin
          r.overflow <- true;
          Buffer.reset r.partial;
          t.line_no <- t.line_no + 1;
          malformed t ~out "line too long"
        end
        else Buffer.add_subbytes r.partial chunk start (stop - start);
      if stop < n then begin
        if not r.overflow then handle_line t ~out (Buffer.contents r.partial);
        Buffer.clear r.partial;
        r.overflow <- false;
        go (stop + 1)
      end
    end
  in
  go 0

(* At end of input, a final line without a newline still gets a reply. *)
let finish_lines t ~out r =
  if Buffer.length r.partial > 0 && not r.overflow then
    handle_line t ~out (Buffer.contents r.partial)

let install_signals t =
  let handler = Sys.Signal_handle (fun _ -> request_shutdown t) in
  List.iter
    (fun signal ->
      try Sys.set_signal signal handler
      with Invalid_argument _ | Sys_error _ -> ())
    [ Sys.sigint; Sys.sigterm ]

let serve_fd ?on_reply ?load_graph config ~input ~output =
  Obs.Metrics.set_enabled true;
  let t = create ?on_reply ?load_graph config in
  install_signals t;
  let out = write_all output in
  let reader = line_reader () in
  let chunk = Bytes.create 65536 in
  let eof = ref false in
  while (not (shutdown_requested t)) && not (!eof && idle t) do
    (* After EOF only the wake pipe and the flush timer are left. *)
    if wait t (if !eof then [] else [ input ]) <> [] then begin
      match Unix.read input chunk 0 (Bytes.length chunk) with
      | 0 -> eof := true
      | n -> feed_lines t ~out reader chunk n
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    end;
    poll t
  done;
  if not (shutdown_requested t) then finish_lines t ~out reader;
  if shutdown_requested t then shutdown t else finish t;
  t

let serve_socket ?on_reply ?load_graph config ~path =
  Obs.Metrics.set_enabled true;
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  (match Unix.lstat path with
  | st ->
      if st.Unix.st_kind = Unix.S_SOCK then Unix.unlink path
      else failwith (path ^ " exists and is not a socket")
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
  let t = create ?on_reply ?load_graph config in
  (* Handlers go in before the socket file appears, so a supervisor
     may signal as soon as it sees the path. *)
  install_signals t;
  let srv = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind srv (Unix.ADDR_UNIX path);
     Unix.listen srv 16
   with e ->
     Unix.close srv;
     release t;
     raise e);
  let clients : (Unix.file_descr, line_reader) Hashtbl.t = Hashtbl.create 8 in
  let close_client fd =
    (try Unix.close fd with Unix.Unix_error _ -> ());
    Hashtbl.remove clients fd
  in
  (* A job's reply may outlive its client: swallow write failures so a
     disconnect never kills the daemon (SIGPIPE is already ignored). *)
  let client_out fd s =
    try write_all fd s with Unix.Unix_error _ | Sys_error _ -> ()
  in
  let chunk = Bytes.create 65536 in
  while not (shutdown_requested t) do
    let fds = Hashtbl.fold (fun fd _ acc -> fd :: acc) clients [ srv ] in
    List.iter
      (fun fd ->
        if fd == srv then (
          match Unix.accept srv with
          | cfd, _ -> Hashtbl.replace clients cfd (line_reader ())
          | exception Unix.Unix_error _ -> ())
        else
          match Hashtbl.find_opt clients fd with
          | None -> ()
          | Some reader -> (
              match Unix.read fd chunk 0 (Bytes.length chunk) with
              | 0 ->
                  finish_lines t ~out:(client_out fd) reader;
                  close_client fd
              | n -> feed_lines t ~out:(client_out fd) reader chunk n
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
              | exception Unix.Unix_error _ -> close_client fd))
      (wait t fds);
    poll t
  done;
  shutdown t;
  Hashtbl.iter (fun fd _ -> try Unix.close fd with Unix.Unix_error _ -> ()) clients;
  (try Unix.close srv with Unix.Unix_error _ -> ());
  (try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ());
  t
