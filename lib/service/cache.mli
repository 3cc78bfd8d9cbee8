(** LRU cache of solved mappings, keyed by request fingerprint.
    Serving code never holds a [Cache.t] directly; it goes through
    {!Shard}, which puts one [Cache.t] behind one lock and reads and
    writes the plain file documented here.

    Bounded both by entry count and by (approximate) resident bytes;
    inserting past either bound evicts least-recently-used entries and
    bumps the [svc_cache_evicted_total] counter. Assignments are stored in
    {e canonical} task order ({!Streaming.Canonical.order}), so an entry
    written for one graph can be transported to any relabeled/reordered
    variant that produces the same fingerprint.

    {b Persistence.} [save_file]/[load_file] use a versioned JSON
    document ([{"cellsched_cache": 1, ...}]). Loading is total: a
    missing, truncated, corrupt or version-mismatched file yields an
    {e empty} cache — never an exception — and bumps
    [svc_cache_recovered_total] (except for the merely-missing case,
    which is the normal cold start). Periods round-trip bitwise (hex
    float encoding). Saving refuses to overwrite an existing file
    unless [force] — the repo-wide [--force] convention. *)

type entry = {
  fingerprint : string;  (** 32 hex digits ({!Request.fingerprint}). *)
  strategy : string;  (** Informational ({!Request.strategy_to_string}). *)
  canonical_assignment : int array;
      (** PE index per {e canonical} task position. *)
  period : float;
  feasible : bool;
  throughput : float;  (** Instances per second ([0.] when infeasible). *)
  bottleneck : string;  (** Rendered {!Cellsched.Steady_state.resource}. *)
}

type view = {
  probe : string -> entry option;  (** Fingerprint lookup. *)
  insert : entry -> unit;
}
(** A cache as the batch front end sees it: probe and insert, nothing
    else. {!Batch} routes every cache touch through a [view], which
    {!Shard.view} builds over the locked serving cache. *)

type t

val version : int
(** Current on-disk format version (1). *)

val create : ?max_entries:int -> ?max_bytes:int -> unit -> t
(** Defaults: 1024 entries, 16 MiB. A cache publishes no size gauges;
    {!Shard} publishes them (the event counters — evictions,
    recoveries — are process-wide).
    @raise Invalid_argument on non-positive bounds. *)

val length : t -> int

val bytes_used : t -> int
(** Approximate resident size of the stored entries. *)

val find : t -> string -> entry option
(** Fingerprint lookup; a hit refreshes the entry's recency. *)

val add : t -> entry -> unit
(** Insert or replace, evicting LRU entries while over either bound.
    An entry larger than [max_bytes] on its own is dropped.
    [svc_cache_evicted_total] counts evicted {e entries} only: an
    update-in-place replacement of a resident fingerprint is not an
    eviction and never bumps it. *)

val entries : t -> entry list
(** Most-recently-used first. *)

val to_json_string : t -> string

val entries_to_json_string : entry list -> string
(** The persisted document for [entries], given most-recently-used
    first as {!entries} returns them ([to_json_string t] is
    [entries_to_json_string (entries t)]). *)

val load_string :
  ?max_entries:int -> ?max_bytes:int -> string -> (t, t * string) result
(** Parse a persisted cache. [Error (empty, reason)] on any corruption
    (and [svc_cache_recovered_total] is bumped). *)

val load_file : ?max_entries:int -> ?max_bytes:int ->
  ?on_corrupt:(string -> unit) -> string -> t
(** Total: missing file is a silent cold start; unreadable/corrupt
    content recovers to empty as in {!load_string}, and [on_corrupt]
    (default: ignore) receives the reason. *)

val save_file : ?force:bool -> t -> string -> (unit, string) result
(** No-clobber unless [force = true]; [Error] carries the reason.
    Atomic against crashes: the document is written to [path ^ ".tmp"]
    and renamed into place, so a process killed mid-flush leaves the
    previous complete file intact (a subsequent {!load_file} sees every
    entry of the last successful save, never a truncated document). *)

val temp_path : string -> string
(** The sibling temp file [save_file] stages through ([path ^ ".tmp"]);
    exposed so operators can clean up after a crashed daemon. *)

(**/**)

module For_testing : sig
  val crash_after_bytes : int option ref
  (** [Some n] makes the next [save_file] write only the first [n] bytes
      of the temp file and then fail as if the process had been killed
      mid-flush (no rename). Tests only; reset to [None] afterwards. *)
end
