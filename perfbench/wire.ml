(* Client side of the daemon's line protocol: framed replies parsed as
   they arrive, and the closed-loop sender. Every latency is taken here,
   per request, on the monotonic clock. *)

type status = Ok | Partial | Reject | Error | Pong | Metrics

type reply = { id : string; status : status; body : string }

type conn = {
  fd : Unix.file_descr;
  pending : Buffer.t;  (* bytes after the last complete line *)
  mutable frame : (string * status * Buffer.t) option;
}

let conn fd = { fd; pending = Buffer.create 4096; frame = None }

let send c s =
  let n = String.length s in
  let rec go off =
    if off < n then go (off + Unix.write_substring c.fd s off (n - off))
  in
  go 0

let protocol_error l = failwith ("unexpected daemon line: " ^ l)

let word_after prefix l =
  let p = String.length prefix in
  match String.index_from_opt l p ' ' with
  | Some i -> String.sub l p (i - p)
  | None -> String.sub l p (String.length l - p)

let line c deliver l =
  match c.frame with
  | Some (id, status, body) ->
      if String.length l = String.length id + 4 && String.starts_with ~prefix:"END " l
         && String.ends_with ~suffix:id l
      then begin
        c.frame <- None;
        deliver { id; status; body = Buffer.contents body }
      end
      else begin
        Buffer.add_string body l;
        Buffer.add_char body '\n'
      end
  | None -> (
      match String.split_on_char ' ' l with
      | [ "BEGIN"; "metrics" ] ->
          c.frame <- Some ("metrics", Metrics, Buffer.create 8192)
      | [ "BEGIN"; id; "ok" ] -> c.frame <- Some (id, Ok, Buffer.create 1024)
      | [ "BEGIN"; id; "partial" ] ->
          c.frame <- Some (id, Partial, Buffer.create 1024)
      | [ "PONG" ] -> deliver { id = ""; status = Pong; body = "" }
      | "REJECT" :: id :: _ -> deliver { id; status = Reject; body = l }
      | "ERROR" :: _ :: _ ->
          deliver { id = word_after "ERROR " l; status = Error; body = l }
      | _ -> protocol_error l)

let chunk = Bytes.create 65536

(* Read what is available and deliver every completed reply; false at
   end of stream. *)
let receive c deliver =
  match Unix.read c.fd chunk 0 (Bytes.length chunk) with
  | 0 -> false
  | n ->
      Buffer.add_subbytes c.pending chunk 0 n;
      let s = Buffer.contents c.pending in
      Buffer.clear c.pending;
      let len = String.length s in
      let rec go start =
        if start < len then
          match String.index_from_opt s start '\n' with
          | Some i ->
              line c deliver (String.sub s start (i - start));
              go (i + 1)
          | None -> Buffer.add_substring c.pending s start (len - start)
      in
      go 0;
      true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> true
  | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> false

(* Block until [c] has delivered [n] replies; they come back in order. *)
let collect c ~timeout n =
  let give_up = Clock.now () +. timeout in
  let got = ref [] in
  while List.length !got < n do
    if Clock.now () > give_up then failwith "daemon reply timed out";
    match Unix.select [ c.fd ] [] [] 0.05 with
    | [], _, _ -> ()
    | _ ->
        if not (receive c (fun r -> got := r :: !got)) then
          failwith "daemon closed the connection"
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  List.rev !got

let await c ~timeout want =
  match collect c ~timeout 1 with
  | [ r ] when want r -> r
  | _ -> protocol_error "unexpected reply"

let ping c =
  send c "PING\n";
  ignore (await c ~timeout:60. (fun r -> r.status = Pong))

let scrape c =
  send c "METRICS\n";
  (await c ~timeout:60. (fun r -> r.status = Metrics)).body

(* One measured request: what was sent, when it was due, and what came
   back. *)
type sample = {
  problem : int;
  due : float;
  mutable latency : float;  (* seconds; nan until answered *)
  mutable reply : reply option;
}

(* Request ids, unique over the whole run. *)
let issued = ref 0

let fresh_id ~conn =
  incr issued;
  Printf.sprintf "c%dr%d" conn !issued

(* Closed loop: each connection keeps [depth] requests in flight and
   sends the next as soon as a reply lands, until [next] runs dry or
   [until] passes; then it collects the replies still in flight. *)
let closed_loop ~depth conns ~next ~until =
  let n = Array.length conns in
  let samples = ref [] in
  let inflight = Array.init n (fun _ -> Hashtbl.create 8) in
  let issue i =
    if Clock.now () < until then
      match next () with
      | None -> ()
      | Some (problem, text) ->
          let id = fresh_id ~conn:i in
          let s = { problem; due = Clock.now (); latency = nan; reply = None } in
          Hashtbl.replace inflight.(i) id s;
          send conns.(i) (Printf.sprintf "id=%s %s\n" id text)
  in
  Array.iteri (fun i _ -> for _ = 1 to depth do issue i done) conns;
  let busy () = Array.exists (fun t -> Hashtbl.length t > 0) inflight in
  while busy () do
    let fds =
      List.filter_map
        (fun i -> if Hashtbl.length inflight.(i) > 0 then Some conns.(i).fd else None)
        (List.init n Fun.id)
    in
    match Unix.select fds [] [] 1.0 with
    | ready, _, _ ->
        List.iter
          (fun fd ->
            let i =
              let rec find k = if conns.(k).fd == fd then k else find (k + 1) in
              find 0
            in
            let deliver r =
              match Hashtbl.find_opt inflight.(i) r.id with
              | Some s ->
                  s.latency <- Clock.now () -. s.due;
                  s.reply <- Some r;
                  samples := s :: !samples;
                  Hashtbl.remove inflight.(i) r.id;
                  issue i
              | None -> protocol_error ("reply for " ^ r.id)
            in
            if not (receive conns.(i) deliver) then
              failwith "daemon closed a client connection")
          ready
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  List.rev !samples
