(* The daemon under test as a child process: spawn, readiness, CPU and
   peak-memory readings from /proc, and a clean stop. *)

type t = { pid : int; socket : string }

let spawn ~exe ~socket ~log args =
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let out =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let argv = Array.of_list (exe :: "serve" :: "--socket" :: socket :: args) in
  let pid = Unix.create_process exe argv null out out in
  Unix.close null;
  Unix.close out;
  { pid; socket }

let exited t =
  match Unix.waitpid [ Unix.WNOHANG ] t.pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true

(* Connect once the daemon listens; it binds before loading its cache,
   so readiness is the PONG, not the connect. *)
let connect t ~timeout =
  let give_up = Clock.now () +. timeout in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX t.socket) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
        Unix.close fd;
        if exited t then failwith "daemon exited during start-up";
        if Clock.now () > give_up then failwith "daemon never listened";
        Unix.sleepf 0.001;
        go ()
  in
  go ()

(* utime + stime of the process, in seconds (/proc reports USER_HZ =
   100 ticks per second on every Linux ABI). *)
let cpu_seconds t =
  let line =
    In_channel.with_open_bin (Printf.sprintf "/proc/%d/stat" t.pid)
      In_channel.input_all
  in
  (* Fields after the parenthesised command name, which may hold spaces. *)
  let rest =
    let i = String.rindex line ')' in
    String.sub line (i + 2) (String.length line - i - 2)
  in
  let fields = Array.of_list (String.split_on_char ' ' rest) in
  (* utime and stime are fields 14 and 15 of the full line. *)
  (float_of_string fields.(11) +. float_of_string fields.(12)) /. 100.

let peak_rss_mb t =
  In_channel.with_open_bin (Printf.sprintf "/proc/%d/status" t.pid)
    In_channel.input_lines
  |> List.find_map (fun l ->
         match String.split_on_char ':' l with
         | [ "VmHWM"; v ] ->
             Scanf.sscanf (String.trim v) "%d kB" (fun kb ->
                 Some (float_of_int kb /. 1024.))
         | _ -> None)
  |> Option.get

let stop t =
  if not (exited t) then begin
    (try Unix.kill t.pid Sys.sigterm with Unix.Unix_error _ -> ());
    let give_up = Clock.now () +. 10. in
    let rec wait () =
      match Unix.waitpid [ Unix.WNOHANG ] t.pid with
      | 0, _ when Clock.now () < give_up ->
          Unix.sleepf 0.002;
          wait ()
      | 0, _ ->
          (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] t.pid)
      | _ -> ()
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
    in
    wait ()
  end

(* Values of a Prometheus text exposition, keyed by "name{labels}". *)
let parse_metrics body =
  let table = Hashtbl.create 64 in
  String.split_on_char '\n' body
  |> List.iter (fun l ->
         if l <> "" && l.[0] <> '#' then
           match String.rindex_opt l ' ' with
           | Some i -> (
               let key = String.sub l 0 i
               and v = String.sub l (i + 1) (String.length l - i - 1) in
               match float_of_string_opt v with
               | Some f -> Hashtbl.replace table key f
               | None -> ())
           | None -> ());
  table

(* Ticks the virtual machine lost to its host (steal) and all ticks,
   from the aggregate line of /proc/stat: a measured phase reports the
   share it lost, so host contention is visible beside the timings. *)
let host_ticks () =
  let line =
    In_channel.with_open_bin "/proc/stat" In_channel.input_line |> Option.get
  in
  let fields =
    String.split_on_char ' ' line |> List.filter (( <> ) "") |> List.tl
    |> List.map float_of_string |> Array.of_list
  in
  (* user nice system idle iowait irq softirq steal *)
  (fields.(7), Array.fold_left ( +. ) 0. (Array.sub fields 0 8))
