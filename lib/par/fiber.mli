(** Effects-based lightweight tasks (fibers) over {!Pool}.

    No production path uses fibers: batches fan out with
    {!Pool.parallel_map} and the daemon submits plain pool tasks. The
    module is kept only for the [fiber.spawn_await_ns] row of the
    per-layer benchmark, which times [run]/[spawn]/[await]; it goes
    when that row does.

    A fiber is a computation spawned onto the pool whose blocking
    points {e suspend} instead of occupying a domain: [await] on an
    unresolved promise captures the fiber's continuation (OCaml 5
    effect handlers) and parks it as a waiter on that promise; the
    domain immediately moves on to other pool work. When the promise
    resolves, the continuation is resubmitted as an ordinary pool task
    on the work-stealing deques.

    Outside a fiber [await] falls back to {!Pool.help_until} (a pool
    worker helps — runs tasks — so nested blocking cannot deadlock; an
    outside domain spin-waits).

    Determinism: fibers schedule {e execution}, not {e results}. A
    computation whose value depends only on its inputs yields the same
    value at any pool size and any interleaving. *)

type 'a t
(** A fiber handle: a promise resolved when the fiber's body returns
    or raises. *)

val spawn : ?pool:Pool.t -> (unit -> 'a) -> 'a t
(** Start [f] as a fiber on [pool]. Without [?pool] the caller must be
    running on a pool domain (inside a fiber or a pool task), and that
    pool is used.
    @raise Invalid_argument outside any pool when [?pool] is omitted. *)

val await : 'a t -> 'a
(** The fiber's result; re-raises its exception with the original
    backtrace. Inside a fiber this suspends (never blocks a domain);
    outside it blocks via {!Pool.help_until}. A resolved fiber can be
    awaited any number of times. *)

val run : Pool.t -> (unit -> 'a) -> 'a
(** [spawn] + [await]: run [f] as a root fiber and wait for it. The
    usual entry point from a non-pool domain. *)

val poll : 'a t -> ('a, exn * Printexc.raw_backtrace) result option
(** Nonblocking completion probe. *)
