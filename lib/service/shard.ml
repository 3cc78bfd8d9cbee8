(* The serving cache: one LRU behind one lock. *)

module Metrics = Obs.Metrics

type t = { cache : Cache.t; lock : Mutex.t }

let g_entries =
  Metrics.gauge ~help:"Resident mapping-cache entries" "svc_cache_entries"

let g_bytes =
  Metrics.gauge ~help:"Approximate resident mapping-cache bytes"
    "svc_cache_bytes"

let locked t f = Mutex.protect t.lock (fun () -> f t.cache)

(* Called under the lock, so the two gauges always describe one state. *)
let publish c =
  if Metrics.enabled () then begin
    Metrics.Gauge.set g_entries (float_of_int (Cache.length c));
    Metrics.Gauge.set g_bytes (float_of_int (Cache.bytes_used c))
  end

let of_cache cache =
  publish cache;
  { cache; lock = Mutex.create () }

let create ?max_entries ?max_bytes () =
  of_cache (Cache.create ?max_entries ?max_bytes ())

let find t fp = locked t (fun c -> Cache.find c fp)

let add t entry =
  locked t (fun c ->
      Cache.add c entry;
      publish c)

let length t = locked t Cache.length
let bytes_used t = locked t Cache.bytes_used
let view t = { Cache.probe = find t; insert = add t }
let save_files ?force t path = locked t (fun c -> Cache.save_file ?force c path)

let load_files ?max_entries ?max_bytes path =
  of_cache (Cache.load_file ?max_entries ?max_bytes path)
