(* Tests for the scheduling daemon (lib/daemon): protocol round-trips
   and hostile-line handling, the bounded priority admission queue,
   engine-level request lifecycles (reject at the bound, hits bypassing
   admission, deadline-expired partials validated feasible), graceful-
   shutdown cache flushes with bitwise warm restarts, pool-vs-inline
   differential runs, the wake pipe (a pool completion wakes the loop;
   engines leak no descriptors), the cache gauges, the two serve loops
   end to end (pipe fds and a forked Unix-domain-socket server,
   including a 10 MB line and SIGTERM of a busy and of an idle server),
   and pool mode: inline cache hits
   overtaking long dives, duplicate storms bounded by the pool size,
   deadline partials never cached. *)

module P = Cell.Platform
module G = Streaming.Graph
module M = Cellsched.Mapping
module Eval = Cellsched.Eval
module Req = Service.Request
module Cache = Service.Cache
module Batch = Service.Batch
module Proto = Daemon.Protocol
module Admission = Daemon.Admission
module Server = Daemon.Server

let random_graph rng n =
  Daggen.Generator.generate ~rng
    ~shape:{ Daggen.Generator.n; fat = 0.5; density = 0.4; regularity = 0.5; jump = 2 }
    ~costs:Daggen.Generator.default_costs

(* Named graphs resolved in memory: daemon tests never touch graph
   files. Unknown names raise Sys_error exactly like a missing file. *)
let graph_table =
  lazy
    (let rng = Support.Rng.create 11 in
     [ ("gA", random_graph rng 10); ("gB", random_graph rng 14);
       ("gC", random_graph rng 8) ])

let load_graph name =
  match List.assoc_opt name (Lazy.force graph_table) with
  | Some g -> g
  | None -> raise (Sys_error (name ^ ": no such graph"))

let graph name = load_graph name

(* A fast deterministic strategy for solver-touching tests. *)
let bb_attrs = "strategy=bb max-nodes=200"
let bb_strategy = Req.Bb { rel_gap = 0.05; max_nodes = 200 }

let request ?(label = "gA") ?(spes = 6) ?deadline_ms ?(prio = 0) () =
  Req.make ~label ~platform:(P.qs22 ~n_spe:spes ()) ~graph:(graph label)
    ~strategy:bb_strategy ~deadline_ms ~prio

let parse line =
  Proto.parse ~load_graph ~default_spes:8 ~default_strategy:bb_strategy 1 line

let config ?(bound = 8) ?(concurrency = 1) ?cache_path ?metrics_file
    ?trace_dir ?(flush_period = 0.) () =
  {
    Server.default_config with
    Server.bound;
    concurrency;
    cache_path;
    metrics_file;
    trace_dir;
    flush_period;
    default_strategy = bb_strategy;
  }

type harness = {
  server : Server.t;
  out : Buffer.t;
  replies : Server.reply list ref;  (** Reverse arrival order. *)
}

let harness ?bound ?concurrency ?cache_path ?metrics_file ?trace_dir () =
  let replies = ref [] in
  let server =
    Server.create
      ~on_reply:(fun r -> replies := r :: !replies)
      ~load_graph
      (config ?bound ?concurrency ?cache_path ?metrics_file ?trace_dir ())
  in
  { server; out = Buffer.create 256; replies }

let feed h line = Server.handle_line h.server ~out:(Buffer.add_string h.out) line
let output h = Buffer.contents h.out

let reply_of h id =
  match List.find_opt (fun (r : Server.reply) -> r.Server.id = id) !(h.replies) with
  | Some r -> r
  | None -> Alcotest.failf "no reply for id %s" id

let with_metrics f =
  let was = Obs.Metrics.enabled () in
  Obs.Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.Metrics.set_enabled was) f

let contains sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* Ask the server for the span tree of [id] and parse the flat body into
   (path, rest-of-line) pairs, checking the BEGIN/END framing. *)
let trace_spans h id =
  Buffer.clear h.out;
  feed h (Printf.sprintf "TRACE %s" id);
  let body = output h in
  Alcotest.(check bool)
    (Printf.sprintf "trace %s framed" id)
    true
    (String.starts_with ~prefix:(Printf.sprintf "BEGIN trace %s\n" id) body
    && String.ends_with ~suffix:(Printf.sprintf "END trace %s\n" id) body);
  String.split_on_char '\n' body
  |> List.filter_map (fun line ->
         if String.starts_with ~prefix:"span " line then
           let rest = String.sub line 5 (String.length line - 5) in
           match String.index_opt rest ' ' with
           | Some i ->
               Some
                 ( String.sub rest 0 i,
                   String.sub rest i (String.length rest - i) )
           | None -> Some (rest, "")
         else None)

let check_well_parented spans =
  let paths = List.map fst spans in
  List.iter
    (fun p ->
      match String.rindex_opt p '/' with
      | Some 0 | None -> ()  (* a root like "/request" *)
      | Some i ->
          let parent = String.sub p 0 i in
          if not (List.mem parent paths) then
            Alcotest.failf "span %s has no parent %s in the trace" p parent)
    paths

(* ====================================================================== *)
(* Protocol: round-trips                                                  *)
(* ====================================================================== *)

let strategy_equal a b =
  match (a, b) with
  | ( Req.Portfolio { seed = s1; restarts = r1 },
      Req.Portfolio { seed = s2; restarts = r2 } ) -> s1 = s2 && r1 = r2
  | ( Req.Bb { rel_gap = g1; max_nodes = n1 },
      Req.Bb { rel_gap = g2; max_nodes = n2 } ) ->
      n1 = n2 && Int64.bits_of_float g1 = Int64.bits_of_float g2
  | _ -> false

let request_roundtrip =
  QCheck.Test.make ~count:200 ~name:"render_request -> parse is the identity"
    QCheck.(
      quad (int_range 0 8)
        (option (int_range 1 1_000_000))
        (pair bool (int_range (-3) 3))
        (option (int_range 1 5)))
    (fun (spes, deadline_us, (portfolio, prio), id_num) ->
      let label = [| "gA"; "gB"; "gC" |].(spes mod 3) in
      let strategy =
        if portfolio then Req.Portfolio { seed = 42 + spes; restarts = 2 + abs prio }
        else Req.Bb { rel_gap = 0.01 *. float_of_int (spes + 1); max_nodes = 500 }
      in
      let r =
        Req.make ~label ~platform:(P.qs22 ~n_spe:spes ()) ~graph:(graph label)
          ~strategy
          ~deadline_ms:(Option.map (fun us -> float_of_int us /. 1000.) deadline_us)
          ~prio
      in
      let id = Option.map (Printf.sprintf "req-%d") id_num in
      match parse (Proto.render_request ?id r) with
      | Proto.Command (Proto.Submit { id = id'; request }) ->
          id' = id && request.Req.label = r.Req.label
          && request.Req.platform = r.Req.platform
          && strategy_equal request.Req.strategy r.Req.strategy
          && request.Req.deadline_ms = r.Req.deadline_ms
          && request.Req.prio = r.Req.prio
      | _ -> QCheck.Test.fail_report "did not parse back to a request")

let test_parse_verbs () =
  let command = function
    | Proto.Command c -> c
    | _ -> Alcotest.fail "expected a command"
  in
  Alcotest.(check bool) "PING" true (command (parse "PING") = Proto.Ping);
  Alcotest.(check bool) "padded METRICS" true
    (command (parse "  METRICS  ") = Proto.Metrics);
  Alcotest.(check bool) "QUIT with CR" true
    (command (parse "QUIT\r") = Proto.Quit);
  Alcotest.(check bool) "blank" true (parse "" = Proto.Nothing);
  Alcotest.(check bool) "comment" true (parse "  # hello" = Proto.Nothing);
  (match parse "QUIT now" with
  | Proto.Malformed _ -> ()
  | _ -> Alcotest.fail "verb with arguments must be malformed");
  (* Verbs are case-sensitive: lowercase is a graph name. *)
  match parse "ping" with
  | Proto.Malformed _ -> ()
  | _ -> Alcotest.fail "lowercase ping should fail as a missing graph"

let test_parse_trace () =
  (match parse "TRACE r1" with
  | Proto.Command (Proto.Trace "r1") -> ()
  | _ -> Alcotest.fail "TRACE r1 must parse");
  (match parse "  TRACE job.7:a-b \r" with
  | Proto.Command (Proto.Trace "job.7:a-b") -> ()
  | _ -> Alcotest.fail "padded TRACE with a token id must parse");
  let malformed line =
    match parse line with
    | Proto.Malformed _ -> ()
    | _ -> Alcotest.failf "%S must be malformed" line
  in
  malformed "TRACE";
  malformed "TRACE a b";
  malformed "TRACE a/b";
  malformed (Printf.sprintf "TRACE %s" (String.make 65 'x'));
  (* Lowercase is a graph name, like the other verbs. *)
  malformed "trace r1";
  Alcotest.(check string) "trace framing" "BEGIN trace t\nbody\nEND trace t\n"
    (Proto.render_trace ~id:"t" "body\n")

let test_parse_hostile () =
  let malformed ?id line =
    match parse line with
    | Proto.Malformed m ->
        Alcotest.(check (option string))
          (Printf.sprintf "id echoed for %S" line)
          id m.id
    | Proto.Nothing -> Alcotest.failf "%S parsed as blank" line
    | Proto.Command _ -> Alcotest.failf "%S parsed as a command" line
  in
  malformed "gA spes=99";
  malformed "gA spes=";
  malformed "gA spes=six";
  malformed "gA strategy=magic";
  malformed "gA deadline=0";
  malformed "gA deadline=-3";
  malformed "gA deadline=nan";
  malformed "gA deadline=inf";
  malformed "gA prio=2.5";
  malformed "nosuch spes=4";
  malformed "gA seed=1";  (* portfolio-only attr under a bb default *)
  malformed ~id:"x1" "id=x1";  (* id without a request *)
  malformed ~id:"x1" "gA id=x1 id=x2";
  malformed ~id:"x1" "gA id=x1 spes=";
  malformed "gA id=";
  malformed "gA id=a/b";
  malformed (Printf.sprintf "gA id=%s" (String.make 65 'x'));
  malformed "gA stray";
  malformed "\xff\xfe garbage";
  (* Truncated frames must never crash the parser either. *)
  List.iter
    (fun line ->
      match parse line with
      | Proto.Nothing | Proto.Malformed _ -> ()
      | Proto.Command (Proto.Submit _) -> ()
      | Proto.Command _ -> Alcotest.failf "%S became a verb" line)
    [ "g"; "gA spe"; "gA spes=4 strat"; "METRIC"; "QUI" ]

let test_render_error_flattens () =
  Alcotest.(check string)
    "newlines flattened" "ERROR x a b c\n"
    (Proto.render_error ~id:"x" "a\nb\rc")

let test_reply_framing () =
  let r = request () in
  let view = Service.Shard.view (Service.Shard.create ()) in
  let response =
    match Batch.run_view ~view [ r ] with [ x ] -> x | _ -> assert false
  in
  Alcotest.(check string)
    "ok frame" ("BEGIN j7 ok\n" ^ Batch.render response ^ "END j7\n")
    (Proto.render_reply ~id:"j7" ~partial:false response);
  Alcotest.(check string)
    "partial frame" ("BEGIN j7 partial\n" ^ Batch.render response ^ "END j7\n")
    (Proto.render_reply ~id:"j7" ~partial:true response);
  Alcotest.(check string) "reject frame" "REJECT j7 overload\n"
    (Proto.render_reject ~id:"j7")

(* ====================================================================== *)
(* Admission queue                                                        *)
(* ====================================================================== *)

let test_admission_bound () =
  let q = Admission.create ~bound:3 in
  Alcotest.(check bool) "1" true (Admission.admit q ~prio:0 "a");
  Alcotest.(check bool) "2" true (Admission.admit q ~prio:0 "b");
  Alcotest.(check bool) "3" true (Admission.admit q ~prio:0 "c");
  Alcotest.(check bool) "over" false (Admission.admit q ~prio:9 "d");
  (* Dispatching does not free capacity: in-flight still counts. *)
  Alcotest.(check (option string)) "pop" (Some "a") (Admission.next q);
  Alcotest.(check int) "load" 3 (Admission.load q);
  Alcotest.(check bool) "still full" false (Admission.admit q ~prio:0 "d");
  Admission.finish q;
  Alcotest.(check bool) "freed" true (Admission.admit q ~prio:0 "d")

let test_admission_priority () =
  let q = Admission.create ~bound:8 in
  List.iter
    (fun (prio, name) -> assert (Admission.admit q ~prio name))
    [ (0, "a"); (5, "b"); (5, "c"); (1, "d"); (-2, "e") ];
  let order = List.init 5 (fun _ -> Option.get (Admission.next q)) in
  Alcotest.(check (list string))
    "priority order, FIFO within a level" [ "b"; "c"; "d"; "a"; "e" ] order;
  Alcotest.(check (option string)) "drained" None (Admission.next q)

(* Model-based property: against a naive reference (a plain list of
   (prio, seq) pairs), the queue's admit/next/finish must agree on
   every step of a random trace — acceptance exactly while
   pending + inflight < bound, pops exactly the (-prio, seq)
   lexicographic minimum, load always the model's. *)
let admission_lexicographic =
  QCheck.Test.make ~count:1000
    ~name:"admission: pops are (-prio, seq) lexicographic (random traces)"
    QCheck.(
      pair (int_range 1 5) (list_of_size Gen.(int_range 5 40) (int_range 0 9)))
    (fun (bound, ops) ->
      let q = Admission.create ~bound in
      let pending = ref [] in
      let inflight = ref 0 in
      let seq = ref 0 in
      let ok = ref true in
      let expect () =
        match !pending with
        | [] -> None
        | x :: rest ->
            Some
              (List.fold_left
                 (fun (bp, bs) (p, s) ->
                   if p > bp || (p = bp && s < bs) then (p, s) else (bp, bs))
                 x rest)
      in
      List.iter
        (fun op ->
          (if op <= 5 then (
             (* enqueue, prios -2..3 so levels collide and FIFO shows *)
             let prio = op - 2 in
             let accepted = Admission.admit q ~prio !seq in
             let should = List.length !pending + !inflight < bound in
             if accepted <> should then ok := false;
             if accepted then pending := (prio, !seq) :: !pending;
             incr seq)
           else if op <= 7 then
             match (Admission.next q, expect ()) with
             | None, None -> ()
             | Some v, Some ((_, s) as item) ->
                 if v <> s then ok := false;
                 pending := List.filter (fun it -> it <> item) !pending;
                 incr inflight
             | Some _, None | None, Some _ -> ok := false
           else if !inflight = 0 then
             match Admission.finish q with
             | exception Invalid_argument _ -> ()
             | () -> ok := false
           else (
             Admission.finish q;
             decr inflight));
          if Admission.load q <> List.length !pending + !inflight then
            ok := false)
        ops;
      !ok)

let test_admission_invalid () =
  Alcotest.check_raises "bound 0" (Invalid_argument "Admission.create: non-positive bound")
    (fun () -> ignore (Admission.create ~bound:0));
  let q = Admission.create ~bound:1 in
  Alcotest.check_raises "finish on empty"
    (Invalid_argument "Admission.finish: nothing in flight") (fun () ->
      Admission.finish q)

(* ====================================================================== *)
(* Server engine                                                          *)
(* ====================================================================== *)

let submit h ?(attrs = bb_attrs) ~id label =
  feed h (Printf.sprintf "%s %s id=%s" label attrs id)

let test_reject_at_bound () =
  let h = harness ~bound:2 () in
  (* Three distinct misses before any dispatch: the third must be
     refused immediately and explicitly. *)
  submit h ~id:"r1" "gA";
  submit h ~id:"r2" "gB";
  submit h ~id:"r3" "gC";
  Alcotest.(check bool) "reject on the wire" true
    (String.ends_with ~suffix:"REJECT r3 overload\n" (output h));
  Alcotest.(check bool) "reject observed" true
    ((reply_of h "r3").Server.status = `Rejected);
  Server.drain h.server;
  let s = Server.stats h.server in
  Alcotest.(check int) "received" 3 s.Server.received;
  Alcotest.(check int) "accepted" 2 s.Server.accepted;
  Alcotest.(check int) "rejected" 1 s.Server.rejected;
  Alcotest.(check int) "every request replied" 3 s.Server.replies;
  Server.finish h.server

let test_hits_bypass_admission () =
  let h = harness ~bound:2 () in
  submit h ~id:"w" "gA";
  Server.drain h.server;
  (* Queue full of misses... *)
  submit h ~id:"m1" "gB";
  submit h ~id:"m2" "gC";
  (* ...yet the known request is answered inline, not rejected. *)
  Buffer.clear h.out;
  submit h ~id:"h1" "gA";
  Alcotest.(check bool) "hit served under overload" true
    (String.starts_with ~prefix:"BEGIN h1 ok\n" (output h));
  Alcotest.(check bool) "hit observed" true
    ((reply_of h "h1").Server.status = `Hit);
  (* And one more distinct miss is still refused. *)
  Buffer.clear h.out;
  submit h ~id:"m3" "gB" ~attrs:("spes=4 " ^ bb_attrs);
  Alcotest.(check bool) "distinct miss rejected" true
    (String.ends_with ~suffix:"REJECT m3 overload\n" (output h));
  Server.drain h.server;
  let s = Server.stats h.server in
  Alcotest.(check int) "hits" 1 s.Server.hits;
  Alcotest.(check int) "rejected" 1 s.Server.rejected;
  Server.finish h.server

let test_duplicate_becomes_hit_at_dispatch () =
  let h = harness () in
  (* Two identical misses queued in the same burst: the second must be
     answered from the cache entry the first one writes, not re-solved. *)
  submit h ~id:"d1" "gA";
  submit h ~id:"d2" "gA";
  Server.drain h.server;
  let s = Server.stats h.server in
  Alcotest.(check int) "one solve" 1 s.Server.solved;
  Alcotest.(check int) "one dispatch-time hit" 1 s.Server.hits;
  let b1 = Batch.render (Option.get (reply_of h "d1").Server.response)
  and b2 = Batch.render (Option.get (reply_of h "d2").Server.response) in
  let strip s =
    (* The source line differs (solver vs cache) by design. *)
    String.concat "\n"
      (List.filter
         (fun l -> not (String.starts_with ~prefix:"source:" l))
         (String.split_on_char '\n' s))
  in
  Alcotest.(check string) "same mapping bitwise" (strip b1) (strip b2);
  Server.finish h.server

let test_deadline_partial_feasible () =
  let h = harness () in
  (* A 1 us budget is always expired by dispatch time: the solver must
     cancel on its first check and return its seeded incumbent. *)
  feed h (Printf.sprintf "gB spes=6 %s deadline=0.001 id=p1" bb_attrs);
  Server.drain h.server;
  let reply = reply_of h "p1" in
  Alcotest.(check bool) "status partial" true (reply.Server.status = `Partial);
  Alcotest.(check bool) "framed partial" true
    (String.starts_with ~prefix:"BEGIN p1 partial\n" (output h));
  let response = Option.get reply.Server.response in
  Alcotest.(check bool) "feasible" true response.Batch.feasible;
  (* Validate the partial mapping end to end with the engine. *)
  let platform = P.qs22 ~n_spe:6 () in
  let ev =
    Eval.create platform (graph "gB")
      (M.make platform (graph "gB") response.Batch.assignment)
  in
  Alcotest.(check bool) "no violations" true (Eval.feasible ev);
  Alcotest.(check bool) "finite period" true (Float.is_finite (Eval.period ev));
  (* Timing-dependent results must never enter the deterministic cache. *)
  Alcotest.(check (option reject)) "not cached" None
    (Option.map ignore
       (Service.Shard.find (Server.cache h.server)
          (Req.fingerprint response.Batch.request)));
  let s = Server.stats h.server in
  Alcotest.(check int) "counted partial" 1 s.Server.partials;
  Alcotest.(check int) "not counted solved" 0 s.Server.solved;
  Server.finish h.server

let temp_file suffix =
  let path = Filename.temp_file "cellsched_daemon" suffix in
  Sys.remove path;
  path

let cleanup paths =
  List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) paths

let test_shutdown_flush_warm_restart () =
  let cache_path = temp_file ".json" in
  Fun.protect ~finally:(fun () -> cleanup [ cache_path; Cache.temp_path cache_path ])
    (fun () ->
      let h = harness ~cache_path () in
      submit h ~id:"a" "gA" ~attrs:("spes=6 " ^ bb_attrs);
      Server.drain h.server;
      let first = Option.get (reply_of h "a").Server.response in
      Alcotest.(check bool) "no flush yet (period 0)" false
        (Sys.file_exists cache_path);
      Server.shutdown h.server;
      Alcotest.(check bool) "flushed on shutdown" true
        (Sys.file_exists cache_path);
      (* A restarted daemon answers the same request from the warm
         cache, and the reply body is bitwise what batch would print. *)
      let h2 = harness ~cache_path () in
      Buffer.clear h2.out;
      submit h2 ~id:"a" "gA" ~attrs:("spes=6 " ^ bb_attrs);
      Alcotest.(check bool) "warm hit" true
        ((reply_of h2 "a").Server.status = `Hit);
      let view = Service.Shard.view (Service.Shard.load_files cache_path) in
      let batch_hit =
        match Batch.run_view ~view [ request () ] with
        | [ r ] -> r
        | _ -> assert false
      in
      Alcotest.(check bool) "batch sees a hit" true
        (batch_hit.Batch.source = Batch.Hit);
      Alcotest.(check string) "daemon reply = BEGIN + batch render + END"
        ("BEGIN a ok\n" ^ Batch.render batch_hit ^ "END a\n")
        (output h2);
      let hit = Option.get (reply_of h2 "a").Server.response in
      Alcotest.(check bool) "period bitwise across restart" true
        (Int64.bits_of_float first.Batch.period
        = Int64.bits_of_float hit.Batch.period);
      Alcotest.(check bool) "assignment equal across restart" true
        (first.Batch.assignment = hit.Batch.assignment);
      Server.finish h2.server)

(* The unlabelled cache gauges track the one locked LRU: after N
   distinct solves a METRICS scrape reports its exact size. *)
let test_cache_gauges () =
  with_metrics (fun () ->
      let h = harness () in
      submit h ~id:"g1" "gA" ~attrs:("spes=4 " ^ bb_attrs);
      submit h ~id:"g2" "gB" ~attrs:("spes=5 " ^ bb_attrs);
      submit h ~id:"g3" "gC" ~attrs:("spes=4 " ^ bb_attrs);
      Server.drain h.server;
      Buffer.clear h.out;
      feed h "METRICS";
      let gauge name =
        let prefix = name ^ " " in
        match
          List.find_opt
            (String.starts_with ~prefix)
            (String.split_on_char '\n' (output h))
        with
        | Some line ->
            float_of_string
              (String.sub line (String.length prefix)
                 (String.length line - String.length prefix))
        | None -> Alcotest.failf "%s missing from METRICS" name
      in
      let cache = Server.cache h.server in
      Alcotest.(check int) "three distinct solves cached" 3
        (Service.Shard.length cache);
      Alcotest.(check (float 0.)) "svc_cache_entries = Shard.length"
        (float_of_int (Service.Shard.length cache))
        (gauge "svc_cache_entries");
      Alcotest.(check (float 0.)) "svc_cache_bytes = Shard.bytes_used"
        (float_of_int (Service.Shard.bytes_used cache))
        (gauge "svc_cache_bytes");
      Server.finish h.server)

let test_verbs_and_metrics () =
  with_metrics (fun () ->
      let metrics_file = temp_file ".prom" in
      Fun.protect ~finally:(fun () -> cleanup [ metrics_file ])
        (fun () ->
          let h = harness ~metrics_file () in
          feed h "PING";
          Alcotest.(check string) "pong" "PONG\n" (output h);
          Buffer.clear h.out;
          submit h ~id:"m" "gC";
          Server.drain h.server;
          Buffer.clear h.out;
          feed h "METRICS";
          let body = output h in
          Alcotest.(check bool) "framed" true
            (String.starts_with ~prefix:"BEGIN metrics\n" body
            && String.ends_with ~suffix:"END metrics\n" body);
          let contains sub s =
            let n = String.length s and m = String.length sub in
            let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
            go 0
          in
          List.iter
            (fun family ->
              Alcotest.(check bool) (family ^ " exported") true
                (contains family body))
            [
              "daemon_requests_total"; "daemon_accepted_total";
              "daemon_solved_total"; "daemon_inflight"; "daemon_reply_seconds";
            ];
          Buffer.clear h.out;
          feed h "QUIT";
          Alcotest.(check string) "bye" "BYE\n" (output h);
          Alcotest.(check bool) "quit requests shutdown" true
            (Server.shutdown_requested h.server);
          Server.shutdown h.server;
          Alcotest.(check bool) "metrics file written" true
            (Sys.file_exists metrics_file);
          let text = In_channel.with_open_bin metrics_file In_channel.input_all in
          Alcotest.(check bool) "metrics file has daemon families" true
            (contains "daemon_accepted_total" text)))

(* [(path, (start_us, stop_us))] of every span in a per-request Chrome
   trace file, read back through the JSON parser. *)
let span_windows file =
  let json =
    match Support.Json.parse (In_channel.with_open_bin file In_channel.input_all)
    with
    | Ok j -> j
    | Error m -> Alcotest.failf "%s: %s" file m
  in
  let get key conv v = Option.get (Option.bind (Support.Json.member key v) conv) in
  List.map
    (fun ev ->
      let ts = get "ts" Support.Json.to_float ev in
      ( get "path" Support.Json.to_str (get "args" Option.some ev),
        (ts, ts +. get "dur" Support.Json.to_float ev) ))
    (get "traceEvents" Support.Json.to_list json)

(* The serving stages of a queued miss follow one another: each ends
   before the next starts, and all lie inside the request span. The
   queue wait starts at admission, after the receipt-time cache probe,
   so it overlaps neither [parse] nor [cache]. *)
let check_stage_order file =
  let windows = span_windows file in
  let window name =
    match List.assoc_opt ("/request" ^ name) windows with
    | Some w -> w
    | None -> Alcotest.failf "%s: no /request%s span" file name
  in
  (* ts and dur are printed to 1 ns; their rounding may add up to 2 ns *)
  let eps = 2e-3 in
  let r_start, r_stop = window "" in
  let stages =
    List.map
      (fun s -> (s, window ("/" ^ s)))
      [ "parse"; "cache"; "queue"; "cache@dispatch"; "solve"; "reply" ]
  in
  List.iteri
    (fun i (a, (a_start, a_stop)) ->
      Alcotest.(check bool)
        (a ^ " inside the request span")
        true
        (r_start <= a_start +. eps && a_stop <= r_stop +. eps);
      List.iteri
        (fun j (b, (b_start, _)) ->
          if j > i then
            Alcotest.(check bool)
              (Printf.sprintf "%s ends before %s starts" a b)
              true
              (a_stop <= b_start +. eps))
        stages)
    stages

let test_trace_verb () =
  let trace_dir = temp_file ".traces" in
  Sys.mkdir trace_dir 0o755;
  let h = harness ~trace_dir () in
  submit h ~id:"t1" "gA";
  Server.drain h.server;
  check_stage_order (Filename.concat trace_dir "t1.json");
  (* A solved request's tree covers every serving stage, parents first. *)
  let spans = trace_spans h "t1" in
  check_well_parented spans;
  Alcotest.(check bool) "non-trivial tree" true (List.length spans >= 4);
  Alcotest.(check bool) "root span" true (List.mem_assoc "/request" spans);
  List.iter
    (fun stage ->
      Alcotest.(check bool) (stage ^ " stage present") true
        (List.mem_assoc ("/request/" ^ stage) spans))
    [ "parse"; "queue"; "solve"; "reply" ];
  Alcotest.(check bool) "cache probe present" true
    (List.mem_assoc "/request/cache" spans
    || List.mem_assoc "/request/cache@dispatch" spans);
  let root = List.assoc "/request" spans in
  Alcotest.(check bool) "root status" true (contains "status=solved" root);
  Alcotest.(check bool) "root slo" true (contains "slo_met=true" root);
  List.iter
    (fun (path, rest) ->
      Alcotest.(check bool) (path ^ " has a duration") true
        (contains "dur_ms=" rest))
    spans;
  (* A hit's tree is just probe + reply under the root, marked as a hit. *)
  submit h ~id:"t2" "gA";
  let spans2 = trace_spans h "t2" in
  check_well_parented spans2;
  Alcotest.(check bool) "hit cache probe" true
    (List.mem_assoc "/request/cache" spans2);
  Alcotest.(check bool) "hit parse stage" true
    (List.mem_assoc "/request/parse" spans2);
  Alcotest.(check bool) "hit has no solve stage" false
    (List.mem_assoc "/request/solve" spans2);
  Alcotest.(check bool) "hit status" true
    (contains "status=hit" (List.assoc "/request" spans2));
  (* Unknown and evicted ids get a plain ERROR, not a frame. *)
  Buffer.clear h.out;
  feed h "TRACE nosuch";
  Alcotest.(check string) "unknown id"
    "ERROR nosuch unknown or evicted trace id\n" (output h);
  Server.finish h.server;
  Array.iter
    (fun f -> Sys.remove (Filename.concat trace_dir f))
    (Sys.readdir trace_dir);
  Sys.rmdir trace_dir

let test_trace_deadline () =
  let h = harness () in
  (* The 1 us budget expires before dispatch: the trace must say which
     stage ate it — the solve span carries the deadline_hit marker. *)
  feed h (Printf.sprintf "gB spes=6 %s deadline=0.001 id=p9" bb_attrs);
  Server.drain h.server;
  let spans = trace_spans h "p9" in
  check_well_parented spans;
  let root = List.assoc "/request" spans in
  Alcotest.(check bool) "partial status on the root" true
    (contains "status=partial" root);
  Alcotest.(check bool) "slo missed on the root" true
    (contains "slo_met=false" root);
  let solve = List.assoc "/request/solve" spans in
  Alcotest.(check bool) "deadline hit on the solve stage" true
    (contains "deadline_hit=true" solve);
  Alcotest.(check bool) "solve marked partial" true
    (contains "partial=true" solve);
  Server.finish h.server

let test_slo_metrics () =
  with_metrics (fun () ->
      (* Zero the process-wide registry so the per-band counts below are
         exact; handles stay registered (reset keeps them live). *)
      Obs.Metrics.reset Obs.Metrics.default;
      let h = harness () in
      feed h (Printf.sprintf "gA spes=6 %s deadline=60000 prio=2 id=s1" bb_attrs);
      feed h (Printf.sprintf "gB spes=6 %s deadline=0.001 prio=-1 id=s2" bb_attrs);
      submit h ~id:"s3" "gC";  (* no deadline counts as met, normal band *)
      Server.drain h.server;
      Buffer.clear h.out;
      feed h "METRICS";
      let body = output h in
      List.iter
        (fun sub ->
          Alcotest.(check bool) (sub ^ " present") true (contains sub body))
        [
          "daemon_slo_met_total{band=\"high\"} 1";
          "daemon_slo_met_total{band=\"normal\"} 1";
          "daemon_slo_missed_total{band=\"low\"} 1";
          "daemon_slo_missed_total{band=\"high\"} 0";
          "daemon_deadline_slack_ms_bucket";
          "daemon_stage_seconds_bucket{stage=\"parse\"";
          "daemon_stage_seconds_bucket{stage=\"solve\"";
          "daemon_stage_seconds_bucket{stage=\"queue\"";
          "daemon_stage_seconds_bucket{stage=\"reply\"";
        ];
      (* Slack observed only for the two finite deadlines. *)
      Alcotest.(check bool) "slack count is 2" true
        (contains "daemon_deadline_slack_ms_count 2" body);
      Server.finish h.server)

(* The graph load happens inside [Protocol.parse]; a slow one must show
   up in the reply latency and in a [parse] span, or that time would be
   invisible to every latency metric and to the deadline budget. *)
let test_receipt_before_parse () =
  let delay = 0.05 in
  let replies = ref [] in
  let server =
    Server.create
      ~on_reply:(fun r -> replies := r :: !replies)
      ~load_graph:(fun name ->
        Unix.sleepf delay;
        load_graph name)
      (config ())
  in
  let h = { server; out = Buffer.create 256; replies } in
  submit h ~id:"miss" "gA";
  Server.drain h.server;
  submit h ~id:"hit" "gA";
  List.iter
    (fun id ->
      Alcotest.(check bool)
        (id ^ ": latency covers the graph load")
        true
        ((reply_of h id).Server.latency >= delay);
      let spans = trace_spans h id in
      check_well_parented spans;
      match List.assoc_opt "/request/parse" spans with
      | None -> Alcotest.failf "%s: no parse span" id
      | Some rest ->
          let ms = Scanf.sscanf rest " dur_ms=%f" Fun.id in
          Alcotest.(check bool)
            (Printf.sprintf "%s: parse span %.3f ms covers the load" id ms)
            true
            (ms >= delay *. 1000.))
    [ "miss"; "hit" ];
  Server.finish h.server

(* Every engine owns a wake pipe; the daemon suite builds dozens of
   engines in one process, so finish and shutdown must close it, and a
   second finish must be harmless. *)
let test_wake_fd_hygiene () =
  if not (Sys.file_exists "/proc/self/fd") then Alcotest.skip ();
  let open_fds () = Array.length (Sys.readdir "/proc/self/fd") in
  let cycle i =
    let h = harness () in
    submit h ~id:"f" "gC";
    if i mod 2 = 0 then Server.finish h.server else Server.shutdown h.server;
    Server.finish h.server
  in
  cycle 0;
  let before = open_fds () in
  for i = 1 to 40 do
    cycle i
  done;
  Alcotest.(check int) "open descriptors after 40 engines" before (open_fds ())

let test_pool_matches_inline () =
  let ids = [ "x1"; "x2"; "x3"; "x4" ] in
  let labels = [ "gA"; "gB"; "gC"; "gB" ] in
  let spes = [ 4; 5; 6; 7 ] in
  let run concurrency =
    let h = harness ~concurrency ~bound:8 () in
    List.iteri
      (fun i id ->
        feed h
          (Printf.sprintf "%s spes=%d %s id=%s" (List.nth labels i)
             (List.nth spes i) bb_attrs id))
      ids;
    Server.drain h.server;
    Server.finish h.server;
    List.map
      (fun id -> (id, Batch.render (Option.get (reply_of h id).Server.response)))
      ids
  in
  let inline = run 1 in
  List.iter
    (fun size ->
      List.iter2
        (fun (id, a) (_, b) ->
          Alcotest.(check string)
            (Printf.sprintf "%s bitwise equal at pool %d" id size)
            a b)
        inline (run size))
    [ 2; 4 ]

(* No timer wakes the loop: the pool worker's completion byte
   is the only thing that can make the wake fd readable here. Without
   it the select below waits its full 10 s and the check fails. *)
let test_pool_completion_wakes () =
  let h = harness ~concurrency:2 () in
  submit h ~id:"w1" "gB";
  Server.poll h.server;
  let readable, _, _ = Unix.select [ Server.wake_fd h.server ] [] [] 10. in
  Alcotest.(check bool) "wake fd readable once the solve lands" true
    (readable <> []);
  Server.poll h.server;
  Alcotest.(check bool) "the next poll delivers the reply" true
    (List.exists (fun (r : Server.reply) -> r.Server.id = "w1") !(h.replies));
  Server.finish h.server

(* With a pool the main loop never runs a solve, so a warm-cache hit
   submitted after a long dive replies inline — zero poll ticks — while
   the dive is still in flight. The inline daemon (concurrency 1)
   blocks its loop on the same dive, reversing the order. *)
let long_bb_attrs = "strategy=bb gap=0 max-nodes=4000"

let test_hit_overtakes_long_dive () =
  let line label spes id =
    Printf.sprintf "%s spes=%d %s id=%s" label spes long_bb_attrs id
  in
  let replied h id =
    List.exists (fun (r : Server.reply) -> r.Server.id = id) !(h.replies)
  in
  let pos sub s =
    let n = String.length s and m = String.length sub in
    let rec go i =
      if i + m > n then -1 else if String.sub s i m = sub then i else go (i + 1)
    in
    go 0
  in
  let h = harness ~concurrency:2 ~bound:32 () in
  (* warm the cache with gC *)
  feed h (line "gC" 4 "warm");
  Server.drain h.server;
  Alcotest.(check bool) "warmed" true (replied h "warm");
  (* a long dive: handed to the pool by the first poll *)
  feed h (line "gA" 6 "slow");
  Server.poll h.server;
  Alcotest.(check bool) "dive still in flight" false (replied h "slow");
  (* the hit replies inline, before any further poll *)
  feed h (line "gC" 4 "fast");
  Alcotest.(check bool) "hit replied with zero poll ticks" true
    (replied h "fast");
  Alcotest.(check bool) "dive still unreplied" false (replied h "slow");
  Server.drain h.server;
  Server.finish h.server;
  Alcotest.(check bool) "dive eventually replied" true (replied h "slow");
  let transcript = output h in
  let fast = pos "BEGIN fast" transcript and slow = pos "BEGIN slow" transcript in
  Alcotest.(check bool) "transcript: fast before slow" true
    (fast >= 0 && slow >= 0 && fast < slow);
  (* contrast: the inline daemon solves in poll, so the same driving
     sequence replies to the dive first *)
  let h = harness ~concurrency:1 ~bound:32 () in
  feed h (line "gC" 4 "warm");
  Server.drain h.server;
  feed h (line "gA" 6 "slow");
  Server.poll h.server;
  Alcotest.(check bool) "inline daemon finished the dive in poll" true
    (replied h "slow");
  feed h (line "gC" 4 "fast");
  Server.finish h.server;
  let transcript = output h in
  let fast = pos "BEGIN fast" transcript and slow = pos "BEGIN slow" transcript in
  Alcotest.(check bool) "transcript: slow before fast inline" true
    (fast >= 0 && slow >= 0 && slow < fast)

(* Eight queued duplicates on a 2-worker pool: at most one solve per
   worker is in flight before the first lands, and every later
   duplicate hits the stored entry at dispatch. *)
let test_pool_duplicate_storm () =
  let concurrency = 2 in
  let h = harness ~concurrency ~bound:32 () in
  for i = 1 to 8 do
    feed h (Printf.sprintf "gB spes=6 id=dup%d" i)
  done;
  Server.drain h.server;
  Server.finish h.server;
  let s = Server.stats h.server in
  Alcotest.(check bool) "solves <= concurrency" true
    (s.Server.solved >= 1 && s.Server.solved <= concurrency);
  Alcotest.(check int) "hits + solved = 8" 8 (s.Server.hits + s.Server.solved);
  Alcotest.(check int) "every duplicate replied" 8 s.Server.replies;
  for i = 1 to 8 do
    ignore (reply_of h (Printf.sprintf "dup%d" i))
  done

(* Deadline-expired partials come back from the pool like any other
   outcome — replied, tagged partial, never cached. *)
let test_pool_deadline_partial () =
  let h = harness ~concurrency:2 ~bound:32 () in
  feed h "gB spes=6 deadline=0.001 id=p1";
  Server.drain h.server;
  Server.finish h.server;
  let r = reply_of h "p1" in
  Alcotest.(check bool) "partial status" true (r.Server.status = `Partial);
  let response = Option.get r.Server.response in
  Alcotest.(check bool) "feasible incumbent" true response.Batch.feasible;
  Alcotest.(check (option reject)) "never cached" None
    (Option.map ignore
       (Service.Shard.find (Server.cache h.server)
          (Req.fingerprint response.Batch.request)));
  let s = Server.stats h.server in
  Alcotest.(check int) "counted partial" 1 s.Server.partials;
  Alcotest.(check int) "not counted solved" 0 s.Server.solved

(* ====================================================================== *)
(* Serve loops                                                            *)
(* ====================================================================== *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let count_sub sub s =
  let n = String.length s and m = String.length sub in
  let rec go i acc =
    if i + m > n then acc
    else go (i + 1) (if String.sub s i m = sub then acc + 1 else acc)
  in
  go 0 0

(* Serve [input] (raw bytes) in pipe mode through temp files; returns
   the engine's stats and everything written to the output fd. *)
let serve_pipe input =
  let input_path = temp_file ".in" and output_path = temp_file ".out" in
  Fun.protect ~finally:(fun () -> cleanup [ input_path; output_path ])
    (fun () ->
      Out_channel.with_open_bin input_path (fun oc -> output_string oc input);
      let input = Unix.openfile input_path [ Unix.O_RDONLY ] 0 in
      let output =
        Unix.openfile output_path [ Unix.O_WRONLY; Unix.O_CREAT ] 0o600
      in
      let t =
        Fun.protect
          ~finally:(fun () -> Unix.close input; Unix.close output)
          (fun () ->
            Server.serve_fd ~load_graph (config ~bound:8 ()) ~input ~output)
      in
      (Server.stats t, read_file output_path))

let test_serve_pipe () =
  with_metrics (fun () ->
      let s, out =
        serve_pipe
          (String.concat ""
             (List.map
                (fun l -> l ^ "\n")
                [
                  "PING";
                  Printf.sprintf "gA spes=5 %s id=e1" bb_attrs;
                  Printf.sprintf "gA spes=5 %s id=e2" bb_attrs;  (* dup -> hit *)
                  "broken line=";
                  Printf.sprintf "gC spes=4 %s id=e3" bb_attrs;
                ]))
      in
      Alcotest.(check int) "requests" 4 s.Server.received;
      Alcotest.(check int) "replies" 4 s.Server.replies;
      Alcotest.(check int) "hit" 1 s.Server.hits;
      Alcotest.(check int) "solved" 2 s.Server.solved;
      Alcotest.(check int) "error" 1 s.Server.errors;
      Alcotest.(check bool) "pong first" true
        (String.starts_with ~prefix:"PONG\n" out);
      Alcotest.(check int) "framed replies" 3 (count_sub "BEGIN e" out);
      Alcotest.(check int) "error reply" 1 (count_sub "ERROR " out))

(* A 10 MB line with no newline, then a valid request. *)
let long_line = String.make 10_000_000 'x'

let test_serve_pipe_long_line () =
  with_metrics (fun () ->
      let s, out =
        serve_pipe
          (long_line ^ Printf.sprintf "\ngA spes=5 %s id=v1\n" bb_attrs)
      in
      Alcotest.(check int) "both lines counted" 2 s.Server.received;
      Alcotest.(check int) "one malformed" 1 s.Server.errors;
      Alcotest.(check int) "one solved" 1 s.Server.solved;
      Alcotest.(check bool) "one ERROR, then the normal reply" true
        (String.starts_with ~prefix:"ERROR q1 line too long\nBEGIN v1 ok\n" out);
      Alcotest.(check int) "exactly one ERROR" 1 (count_sub "ERROR " out))

(* Fork a socket server, wait for its socket file (which appears only
   once its signal handlers are installed), run [f ~pid ~path], then
   kill the child if it is still alive and remove its files. The child
   runs concurrency=1, so no domains are alive at fork time in that
   process. *)
let with_forked_server ?cache_path f =
  let dir = temp_file ".d" in
  Unix.mkdir dir 0o700;
  let path = Filename.concat dir "daemon.sock" in
  let was = Obs.Metrics.enabled () in
  match Unix.fork () with
  | 0 ->
      (try ignore (Server.serve_socket ~load_graph (config ?cache_path ()) ~path)
       with _ -> ());
      Unix._exit 0
  | pid ->
      Obs.Metrics.set_enabled was;
      Fun.protect
        ~finally:(fun () ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
          (try Sys.remove path with Sys_error _ -> ());
          (try Unix.rmdir dir with Unix.Unix_error _ | Sys_error _ -> ()))
        (fun () ->
          let deadline = Unix.gettimeofday () +. 10. in
          while (not (Sys.file_exists path)) && Unix.gettimeofday () < deadline do
            Unix.sleepf 0.02
          done;
          f ~pid ~path)

(* Drive a forked socket server: connect, run [dialogue], then stop the
   child with [stop] (QUIT or a signal) and return (captured bytes,
   child exit status). *)
let with_socket_server ?cache_path ~stop dialogue =
  with_forked_server ?cache_path (fun ~pid ~path ->
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Fun.protect ~finally:(fun () -> try Unix.close fd with _ -> ())
      (fun () ->
        Unix.connect fd (Unix.ADDR_UNIX path);
        let send s =
          ignore (Unix.write_substring fd s 0 (String.length s))
        in
        let buf = Buffer.create 1024 in
        let chunk = Bytes.create 4096 in
        let read_until pred =
          let deadline = Unix.gettimeofday () +. 20. in
          while
            (not (pred (Buffer.contents buf)))
            && Unix.gettimeofday () < deadline
          do
            match Unix.select [ fd ] [] [] 0.2 with
            | [ _ ], _, _ -> (
                match Unix.read fd chunk 0 (Bytes.length chunk) with
                | 0 -> raise Exit
                | n -> Buffer.add_subbytes buf chunk 0 n)
            | _ -> ()
          done;
          if not (pred (Buffer.contents buf)) then
            Alcotest.failf "socket dialogue timed out with %S"
              (Buffer.contents buf)
        in
        dialogue ~send ~read_until;
        stop ~send ~pid;
        let _, status = Unix.waitpid [] pid in
        (Buffer.contents buf, status)))

let test_serve_socket_quit () =
  let captured, status =
    with_socket_server
      ~stop:(fun ~send ~pid:_ -> send "QUIT\n")
      (fun ~send ~read_until ->
        send "PING\n";
        send (Printf.sprintf "gA spes=4 %s id=s1\n" bb_attrs);
        read_until (fun s -> count_sub "END s1\n" s = 1))
  in
  Alcotest.(check bool) "clean exit" true (status = Unix.WEXITED 0);
  Alcotest.(check bool) "pong" true (String.starts_with ~prefix:"PONG\n" captured);
  Alcotest.(check int) "one ok frame" 1 (count_sub "BEGIN s1 ok\n" captured)

let test_serve_socket_long_line () =
  let captured, status =
    with_socket_server
      ~stop:(fun ~send ~pid:_ -> send "QUIT\n")
      (fun ~send ~read_until ->
        send long_line;
        send (Printf.sprintf "\ngA spes=4 %s id=v1\n" bb_attrs);
        read_until (fun s -> count_sub "END v1\n" s = 1))
  in
  Alcotest.(check bool) "clean exit" true (status = Unix.WEXITED 0);
  Alcotest.(check bool) "one ERROR, then the normal reply" true
    (String.starts_with ~prefix:"ERROR q1 line too long\nBEGIN v1 ok\n"
       captured);
  Alcotest.(check int) "exactly one ERROR" 1 (count_sub "ERROR " captured)

let test_serve_socket_sigterm_flush () =
  let cache_path = temp_file ".json" in
  Fun.protect ~finally:(fun () -> cleanup [ cache_path; Cache.temp_path cache_path ])
    (fun () ->
      let captured, status =
        with_socket_server ~cache_path
          ~stop:(fun ~send:_ ~pid -> Unix.kill pid Sys.sigterm)
          (fun ~send ~read_until ->
            send (Printf.sprintf "gB spes=5 %s id=k1\n" bb_attrs);
            read_until (fun s -> count_sub "END k1\n" s = 1))
      in
      Alcotest.(check bool) "clean exit on SIGTERM" true
        (status = Unix.WEXITED 0);
      (* The SIGTERM flush persisted the solve; a restarted daemon must
         serve it as a hit whose body is bitwise the reply we captured. *)
      Alcotest.(check bool) "cache flushed" true (Sys.file_exists cache_path);
      let h = harness ~cache_path () in
      Buffer.clear h.out;
      submit h ~id:"k1" "gB" ~attrs:(Printf.sprintf "spes=5 %s" bb_attrs);
      Alcotest.(check bool) "warm hit after SIGTERM restart" true
        ((reply_of h "k1").Server.status = `Hit);
      (* The batch render block between "BEGIN k1 ..." and "END k1". *)
      let extract s =
        let start =
          match String.index_opt s '\n' with
          | Some i -> i + 1
          | None -> Alcotest.fail "no frame"
        in
        let fin =
          let marker = "END k1\n" in
          let rec find i =
            if i + String.length marker > String.length s then
              Alcotest.fail "no END"
            else if String.sub s i (String.length marker) = marker then i
            else find (i + 1)
          in
          find start
        in
        String.sub s start (fin - start)
      in
      let live_body = extract captured in
      let hit_body = extract (output h) in
      let strip_source s =
        String.concat "\n"
          (List.filter
             (fun l -> not (String.starts_with ~prefix:"source:" l))
             (String.split_on_char '\n' s))
      in
      Alcotest.(check string) "bitwise identical mapping across restart"
        (strip_source live_body) (strip_source hit_body);
      Server.finish h.server)

(* An idle server with no client blocks in a select with no timeout:
   only the signal itself can end it, so SIGTERM must still bring it
   down promptly, unlinking its socket and flushing its cache. *)
let test_serve_socket_sigterm_idle () =
  let cache_path = temp_file ".json" in
  Fun.protect ~finally:(fun () -> cleanup [ cache_path; Cache.temp_path cache_path ])
    (fun () ->
      with_forked_server ~cache_path (fun ~pid ~path ->
          Unix.kill pid Sys.sigterm;
          let deadline = Unix.gettimeofday () +. 2. in
          let rec reap () =
            match Unix.waitpid [ Unix.WNOHANG ] pid with
            | 0, _ ->
                if Unix.gettimeofday () > deadline then
                  Alcotest.fail "idle server still running 2 s after SIGTERM";
                Unix.sleepf 0.01;
                reap ()
            | _, status -> status
          in
          Alcotest.(check bool) "clean exit on SIGTERM" true
            (reap () = Unix.WEXITED 0);
          Alcotest.(check bool) "socket unlinked" false (Sys.file_exists path);
          Alcotest.(check bool) "cache flushed" true
            (Sys.file_exists cache_path)))

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "daemon"
    [
      ( "protocol",
        [
          qt request_roundtrip;
          Alcotest.test_case "verbs" `Quick test_parse_verbs;
          Alcotest.test_case "TRACE parse + framing" `Quick test_parse_trace;
          Alcotest.test_case "hostile lines" `Quick test_parse_hostile;
          Alcotest.test_case "error flattening" `Quick
            test_render_error_flattens;
          Alcotest.test_case "reply framing" `Quick test_reply_framing;
        ] );
      ( "admission",
        [
          Alcotest.test_case "bound covers queued + in-flight" `Quick
            test_admission_bound;
          Alcotest.test_case "priority then FIFO" `Quick
            test_admission_priority;
          Alcotest.test_case "invalid arguments" `Quick test_admission_invalid;
          qt admission_lexicographic;
        ] );
      ( "engine",
        [
          Alcotest.test_case "reject at the bound" `Quick test_reject_at_bound;
          Alcotest.test_case "hits bypass admission" `Quick
            test_hits_bypass_admission;
          Alcotest.test_case "queued duplicate becomes a hit" `Quick
            test_duplicate_becomes_hit_at_dispatch;
          Alcotest.test_case "deadline expiry yields a feasible partial"
            `Quick test_deadline_partial_feasible;
          Alcotest.test_case "shutdown flush + bitwise warm restart" `Quick
            test_shutdown_flush_warm_restart;
          Alcotest.test_case "verbs + daemon_* metrics" `Quick
            test_verbs_and_metrics;
          Alcotest.test_case "TRACE returns the span tree" `Quick
            test_trace_verb;
          Alcotest.test_case "expired deadline shows up in the trace" `Quick
            test_trace_deadline;
          Alcotest.test_case "SLO accounting by priority band" `Quick
            test_slo_metrics;
          Alcotest.test_case "cache gauges match the cache" `Quick
            test_cache_gauges;
          Alcotest.test_case "receipt is stamped before parsing" `Quick
            test_receipt_before_parse;
          Alcotest.test_case "finish and shutdown close the wake pipe" `Quick
            test_wake_fd_hygiene;
        ] );
      (* Socket tests fork, and OCaml 5 forbids Unix.fork once any domain
         has ever been spawned in the process, so they must run before
         every pool-mode group ("pool" and "daemon" below). *)
      ( "serve",
        [
          Alcotest.test_case "pipe fds end to end" `Quick test_serve_pipe;
          Alcotest.test_case "pipe: a 10 MB line gets one ERROR" `Quick
            test_serve_pipe_long_line;
          Alcotest.test_case "socket: PING/solve/QUIT" `Quick
            test_serve_socket_quit;
          Alcotest.test_case "socket: a 10 MB line gets one ERROR" `Quick
            test_serve_socket_long_line;
          Alcotest.test_case "socket: SIGTERM flushes, restart is bitwise"
            `Quick test_serve_socket_sigterm_flush;
          Alcotest.test_case "socket: SIGTERM wakes an idle server" `Quick
            test_serve_socket_sigterm_idle;
        ] );
      ( "pool",
        [
          Alcotest.test_case "pool replies bitwise equal inline" `Quick
            test_pool_matches_inline;
          Alcotest.test_case "a pool completion wakes the loop" `Quick
            test_pool_completion_wakes;
        ] );
      (* Pool mode end to end: spawns domains, so also after "serve". *)
      ( "daemon",
        [
          Alcotest.test_case "hit overtakes a long dive" `Quick
            test_hit_overtakes_long_dive;
          Alcotest.test_case "duplicate storm: solves <= pool" `Quick
            test_pool_duplicate_storm;
          Alcotest.test_case "deadline partial in pool mode" `Quick
            test_pool_deadline_partial;
        ] );
    ]
