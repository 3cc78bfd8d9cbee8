(** The mapping cache as serving code holds it: one {!Cache.t} behind
    one mutex, so {!find} and {!add} are safe to call from any domain.

    The module keeps the name [Shard], from when it routed fingerprints
    over several caches, because the benchmark harness ([perfbench/])
    calls it by that name.

    [max_entries]/[max_bytes] bound the one LRU; {!Cache.add} enforces
    them inside the lock, so they hold at every instant. Creating,
    loading and every insert publish the unlabelled [svc_cache_entries]
    and [svc_cache_bytes] gauges.

    {b Persistence} is {!Cache.save_file}/{!Cache.load_file} on the
    plain path: atomic against crashes, total on load. *)

type t

val create : ?max_entries:int -> ?max_bytes:int -> unit -> t
(** Defaults: 1024 entries, 16 MiB.
    @raise Invalid_argument on a non-positive bound. *)

val find : t -> string -> Cache.entry option
(** Locked probe; a hit refreshes the entry's recency. *)

val add : t -> Cache.entry -> unit
(** Locked insert; the LRU bounds apply. *)

val length : t -> int
val bytes_used : t -> int

val view : t -> Cache.view
(** This cache as a {!Cache.view}: {!Batch} and {!Daemon.Server} route
    every cache touch through it. *)

val save_files : ?force:bool -> t -> string -> (unit, string) result
(** {!Cache.save_file} under the lock: no-clobber unless [force]. *)

val load_files : ?max_entries:int -> ?max_bytes:int -> string -> t
(** {!Cache.load_file}: a missing file is a cold start, a corrupt one
    recovers to empty. *)
