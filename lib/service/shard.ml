(* Fingerprint-sharded mapping cache: N independent {!Cache.t} shards,
   each behind its own mutex, so concurrent client domains probing and
   inserting different fingerprints never serialize on one lock. The
   shard of a fingerprint is a pure function of the fingerprint alone
   (never of the shard count's history), so lookups are bitwise
   equivalent to a single cache at any shard count — only the lock and
   the LRU budget are partitioned. *)

module Metrics = Obs.Metrics

type t = {
  caches : Cache.t array;
  locks : Mutex.t array;
  per_entries : int;  (* per-shard LRU entry budget *)
  per_bytes : int;  (* per-shard LRU byte budget *)
  g_entries : Metrics.Gauge.t array;
  g_bytes : Metrics.Gauge.t array;
  c_probes : Metrics.Counter.t array;
}

let max_shards = 256

(* Per-shard metric children are hoisted at create: family lookups from
   hammering client domains would contend the registry lock. *)
let shard_gauges name help n =
  Array.init n (fun i ->
      Metrics.gauge_family ~help name ~labels:[ "shard" ] [ string_of_int i ])

let create ?(shards = 1) ?(max_entries = 1024)
    ?(max_bytes = 16 * 1024 * 1024) () =
  if shards <= 0 || shards > max_shards then
    invalid_arg
      (Printf.sprintf "Shard.create: shard count %d out of range (1-%d)"
         shards max_shards);
  if max_entries <= 0 || max_bytes <= 0 then
    invalid_arg "Shard.create: non-positive bound";
  (* The budgets are totals, split evenly: a 4-shard map holds at most
     what the single cache it replaces would (remainders are dropped,
     never doubled). *)
  let per_entries = max 1 (max_entries / shards) in
  let per_bytes = max 1 (max_bytes / shards) in
  {
    caches =
      Array.init shards (fun _ ->
          Cache.create ~max_entries:per_entries ~max_bytes:per_bytes ());
    locks = Array.init shards (fun _ -> Mutex.create ());
    per_entries;
    per_bytes;
    g_entries =
      shard_gauges "svc_shard_entries" "Resident entries per cache shard"
        shards;
    g_bytes =
      shard_gauges "svc_shard_bytes"
        "Approximate resident bytes per cache shard" shards;
    c_probes =
      Array.init shards (fun i ->
          Metrics.counter_family ~help:"Cache probes routed to each shard"
            "svc_shard_probes_total" ~labels:[ "shard" ] [ string_of_int i ]);
  }

let shards t = Array.length t.caches
let per_shard_entries t = t.per_entries
let per_shard_bytes t = t.per_bytes

(* Route by a byte-wise FNV-1a of the whole fingerprint, reduced by
   modulus. The fingerprint is itself a hex digest, but re-hashing
   costs nothing measurable and keeps the routing uniform even for the
   synthetic single-letter fingerprints tests like to use. *)
let shard_of_fingerprint t fp =
  let h = Support.Fnv.of_string fp in
  Int64.to_int (Int64.rem (Int64.logand h Int64.max_int) (Int64.of_int (shards t)))

let locked t i f =
  Mutex.lock t.locks.(i);
  Fun.protect ~finally:(fun () -> Mutex.unlock t.locks.(i)) (fun () -> f t.caches.(i))

let publish_shard t i c =
  if Metrics.enabled () then begin
    Metrics.Gauge.set t.g_entries.(i) (float_of_int (Cache.length c));
    Metrics.Gauge.set t.g_bytes.(i) (float_of_int (Cache.bytes_used c))
  end

let find t fp =
  let i = shard_of_fingerprint t fp in
  if Metrics.enabled () then Metrics.Counter.inc t.c_probes.(i);
  locked t i (fun c -> Cache.find c fp)

let add t entry =
  let i = shard_of_fingerprint t entry.Cache.fingerprint in
  locked t i (fun c ->
      Cache.add c entry;
      publish_shard t i c)

let length t =
  let n = ref 0 in
  for i = 0 to shards t - 1 do
    n := !n + locked t i Cache.length
  done;
  !n

let bytes_used t =
  let n = ref 0 in
  for i = 0 to shards t - 1 do
    n := !n + locked t i Cache.bytes_used
  done;
  !n

let shard_stats t =
  Array.init (shards t) (fun i ->
      locked t i (fun c -> (Cache.length c, Cache.bytes_used c)))

let entries t = List.concat (List.init (shards t) (fun i -> locked t i Cache.entries))

let view t = { Cache.probe = find t; insert = add t }

(* --- persistence ---------------------------------------------------------- *)

(* One file per shard, each written through {!Cache.save_file}'s
   temp-file+rename discipline — a kill at any point leaves every shard
   file either the previous complete document or the new one, never
   torn. Shard count 1 keeps the historical single-file name, so an
   unsharded daemon's cache file round-trips unchanged. *)

let shard_path path ~shards i =
  if shards = 1 then path else Printf.sprintf "%s.shard%d" path i

(* The [path.shardI] files on disk from index [from] up. Files are
   created densely from 0, so scanning until the first gap is total. *)
let shard_files path ~from =
  let rec go i acc =
    let f = Printf.sprintf "%s.shard%d" path i in
    if i <= max_shards && Sys.file_exists f then go (i + 1) (f :: acc)
    else List.rev acc
  in
  go from []

let save_files ?(force = false) t path =
  let n = shards t in
  (* Shard files written by a previous, larger shard count would be
     silently resurrected by the next load; saving removes them (and,
     like {!Cache.save_file}, refuses to without [force]). A 1-shard
     save writes the plain [path], so even [.shard0] is stale then. *)
  let stale = shard_files path ~from:(if n = 1 then 0 else n) in
  let rec go i =
    if i >= n then Ok ()
    else
      match locked t i (fun c -> Cache.save_file ~force c (shard_path path ~shards:n i)) with
      | Ok () -> go (i + 1)
      | Error _ as e -> e
  in
  match stale with
  | f :: _ when not force ->
      Error (Printf.sprintf "%s exists, not overwriting (use force)" f)
  | _ -> (
      match go 0 with
      | Ok () ->
          List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) stale;
          Ok ()
      | Error _ as e -> e)

let load_files ?shards:(n = 1) ?max_entries ?max_bytes ?(on_corrupt = fun _ _ -> ())
    path =
  let t = create ~shards:n ?max_entries ?max_bytes () in
  (* Which files exist on disk, not which this map would write: a map
     reconfigured from 4 shards to 2 (or to 1, or from a legacy single
     file to many) still loads everything, because each loaded entry is
     re-routed through [add] by its own fingerprint. *)
  let files = match shard_files path ~from:0 with [] -> [ path ] | fs -> fs in
  List.iter
    (fun file ->
      (* Stage through an unsharded load (full budgets, corrupt files
         recover to empty and bump [svc_cache_recovered_total]), then
         replay oldest-first so per-shard LRU order is preserved. *)
      let staged =
        Cache.load_file ?max_entries ?max_bytes
          ~on_corrupt:(on_corrupt file) file
      in
      List.iter (add t) (List.rev (Cache.entries staged)))
    files;
  t

module For_testing = struct
  let with_shard t i f = locked t i f
end
