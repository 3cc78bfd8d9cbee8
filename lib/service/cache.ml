module Json = Support.Json

type entry = {
  fingerprint : string;
  strategy : string;
  canonical_assignment : int array;
  period : float;
  feasible : bool;
  throughput : float;
  bottleneck : string;
}

type view = {
  probe : string -> entry option;
  insert : entry -> unit;
}

type node = { entry : entry; mutable last_used : int }

type t = {
  max_entries : int;
  max_bytes : int;
  tbl : (string, node) Hashtbl.t;
  mutable tick : int;
  mutable bytes : int;
}

let version = 1

(* Counts {e entries leaving the cache under LRU pressure} — an
   update-in-place overwrite of a resident fingerprint is not an
   eviction and must not bump this (overwrite-heavy streams used to be
   indistinguishable from thrashing in the exported counters). *)
let m_evictions =
  Obs.Metrics.counter
    ~help:
      "Mapping-cache entries evicted by the LRU bounds (update-in-place \
       overwrites excluded)"
    "svc_cache_evicted_total"

let m_recovered =
  Obs.Metrics.counter
    ~help:"Persisted caches that failed to load and recovered to empty"
    "svc_cache_recovered_total"

let create ?(max_entries = 1024) ?(max_bytes = 16 * 1024 * 1024) () =
  if max_entries <= 0 || max_bytes <= 0 then
    invalid_arg "Cache.create: non-positive bound";
  {
    max_entries;
    max_bytes;
    tbl = Hashtbl.create 64;
    tick = 0;
    bytes = 0;
  }

let length t = Hashtbl.length t.tbl
let bytes_used t = t.bytes

(* Approximate resident size: words for the record and array plus the
   string payloads. Only relative accuracy matters — the bound exists
   to keep a long-lived service from growing without limit. *)
let entry_bytes e =
  96
  + (8 * Array.length e.canonical_assignment)
  + String.length e.fingerprint
  + String.length e.strategy
  + String.length e.bottleneck

let touch t node =
  t.tick <- t.tick + 1;
  node.last_used <- t.tick

let find t fingerprint =
  match Hashtbl.find_opt t.tbl fingerprint with
  | None -> None
  | Some node ->
      touch t node;
      Some node.entry

let remove t fingerprint =
  match Hashtbl.find_opt t.tbl fingerprint with
  | None -> ()
  | Some node ->
      t.bytes <- t.bytes - entry_bytes node.entry;
      Hashtbl.remove t.tbl fingerprint

let evict_lru t =
  let victim =
    Hashtbl.fold
      (fun fp node acc ->
        match acc with
        | Some (_, best) when best.last_used <= node.last_used -> acc
        | _ -> Some (fp, node))
      t.tbl None
  in
  match victim with
  | None -> ()
  | Some (fp, _) ->
      remove t fp;
      if Obs.Metrics.enabled () then Obs.Metrics.Counter.inc m_evictions

let add t entry =
  remove t entry.fingerprint;
  let size = entry_bytes entry in
  if size <= t.max_bytes then begin
    while Hashtbl.length t.tbl >= t.max_entries do
      evict_lru t
    done;
    let node = { entry; last_used = 0 } in
    touch t node;
    Hashtbl.add t.tbl entry.fingerprint node;
    t.bytes <- t.bytes + size;
    while t.bytes > t.max_bytes do
      evict_lru t
    done
  end

let entries t =
  Hashtbl.fold (fun _ node acc -> node :: acc) t.tbl []
  |> List.sort (fun a b -> compare b.last_used a.last_used)
  |> List.map (fun node -> node.entry)

(* --- persistence ---------------------------------------------------------- *)

(* Floats persist as hex-float strings ("%h"): bitwise exact, and inf
   survives (JSON itself has no non-finite token). *)
let float_to_json f = Json.Str (Printf.sprintf "%h" f)

let entry_to_json e =
  Json.Obj
    [
      ("fingerprint", Json.Str e.fingerprint);
      ("strategy", Json.Str e.strategy);
      ( "assignment",
        Json.Arr
          (Array.to_list
             (Array.map (fun pe -> Json.Num (float_of_int pe))
                e.canonical_assignment)) );
      ("period", float_to_json e.period);
      ("feasible", Json.Bool e.feasible);
      ("throughput", float_to_json e.throughput);
      ("bottleneck", Json.Str e.bottleneck);
    ]

let entries_to_json_string entries =
  (* Oldest first, so reloading replays insertions in LRU order. *)
  Json.to_string
    (Json.Obj
       [
         ("cellsched_cache", Json.Num (float_of_int version));
         ("entries", Json.Arr (List.rev_map entry_to_json entries));
       ])

let to_json_string t = entries_to_json_string (entries t)

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun m -> raise (Corrupt m)) fmt

let require what = function Some v -> v | None -> corrupt "missing/invalid %s" what

let float_of_json what v =
  match v with
  | Json.Str s -> (
      match float_of_string_opt s with
      | Some f -> f
      | None -> corrupt "invalid float for %s: %S" what s)
  | _ -> corrupt "missing/invalid %s" what

let is_hex c = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')

let entry_of_json v =
  let member what = require what (Json.member what v) in
  let fingerprint = require "fingerprint" (Json.to_str (member "fingerprint")) in
  if String.length fingerprint <> 32 || not (String.for_all is_hex fingerprint)
  then corrupt "malformed fingerprint %S" fingerprint;
  let assignment =
    require "assignment" (Json.to_list (member "assignment"))
    |> List.map (fun v ->
           match Json.to_int v with
           | Some pe when pe >= 0 -> pe
           | _ -> corrupt "invalid assignment element")
    |> Array.of_list
  in
  {
    fingerprint;
    strategy = require "strategy" (Json.to_str (member "strategy"));
    canonical_assignment = assignment;
    period = float_of_json "period" (member "period");
    feasible = require "feasible" (Json.to_bool (member "feasible"));
    throughput = float_of_json "throughput" (member "throughput");
    bottleneck = require "bottleneck" (Json.to_str (member "bottleneck"));
  }

let load_string ?max_entries ?max_bytes s =
  let empty () = create ?max_entries ?max_bytes () in
  match
    let doc =
      match Json.parse s with Ok v -> v | Error m -> corrupt "%s" m
    in
    (match Json.member "cellsched_cache" doc with
    | Some v -> (
        match Json.to_int v with
        | Some v when v = version -> ()
        | Some v -> corrupt "format version %d (supported: %d)" v version
        | None -> corrupt "malformed version field")
    | None -> corrupt "not a cellsched cache file");
    let entries =
      require "entries" (Option.bind (Json.member "entries" doc) Json.to_list)
    in
    let t = empty () in
    List.iter (fun v -> add t (entry_of_json v)) entries;
    t
  with
  | t -> Ok t
  | exception Corrupt reason ->
      if Obs.Metrics.enabled () then Obs.Metrics.Counter.inc m_recovered;
      Error (empty (), reason)

let load_file ?max_entries ?max_bytes ?(on_corrupt = ignore) path =
  if not (Sys.file_exists path) then create ?max_entries ?max_bytes ()
  else
    match
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> In_channel.input_all ic)
    with
    | contents -> (
        match load_string ?max_entries ?max_bytes contents with
        | Ok t -> t
        | Error (t, reason) ->
            on_corrupt reason;
            t)
    | exception Sys_error m ->
        if Obs.Metrics.enabled () then Obs.Metrics.Counter.inc m_recovered;
        on_corrupt m;
        create ?max_entries ?max_bytes ()

module For_testing = struct
  let crash_after_bytes : int option ref = ref None
end

let temp_path path = path ^ ".tmp"

(* Crash-window-free persistence: the document is written to a sibling
   temp file and atomically renamed over [path], so a process killed at
   any point leaves either the previous complete file or the new
   complete file — never a truncated one (recovery-to-empty used to
   silently drop every entry of a cache whose flush was interrupted).
   A stale [.tmp] from an earlier crash is simply overwritten. *)
let save_file ?(force = false) t path =
  if (not force) && Sys.file_exists path then
    Error (Printf.sprintf "%s exists, not overwriting (use force)" path)
  else
    let tmp = temp_path path in
    match
      let contents = to_json_string t in
      let oc = open_out_bin tmp in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          match !For_testing.crash_after_bytes with
          | Some n when n < String.length contents ->
              (* Simulated kill mid-write: part of the temp file is on
                 disk, the rename never happens. *)
              output_substring oc contents 0 n;
              raise (Sys_error "simulated crash during cache flush")
          | _ -> output_string oc contents);
      Sys.rename tmp path
    with
    | () -> Ok ()
    | exception Sys_error m -> Error m
