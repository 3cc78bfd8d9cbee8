(** Canonical form of an application graph.

    Two graphs that differ only by task names, task insertion order or
    edge insertion order describe the same streaming application, and a
    mapping cache must treat them as one key. This module computes a
    canonical task order by Weisfeiler–Leman-style colour refinement —
    every task starts from a hash of its own cost/memory attributes
    (names excluded) and repeatedly absorbs the sorted multisets of its
    in- and out-neighbour colours with the connecting edge sizes — and
    derives from it a canonical text form and a 64-bit FNV-1a
    fingerprint ({!Support.Fnv}, the same scheme as
    [Cellsched.Mapping.fingerprint]).

    Guarantees: the fingerprint is {e invariant} under task
    relabeling/reordering and edge reordering (every ingredient is a
    sorted multiset or an attribute hash). Distinctness of
    non-isomorphic graphs is only probabilistic — a 64-bit hash can
    collide, and colour refinement cannot separate some highly regular
    graphs — so consumers that transport cached results across a
    fingerprint match must validate the result on the target graph
    (the service layer does; see DESIGN.md §14). Tasks left with equal
    final colours (exactly identical attributes in symmetric positions)
    keep their relative input order, which is canonical precisely when
    such tasks are interchangeable.

    Cost: the refinement runs [depth + 2] rounds of O(n + m) over flat
    unboxed arrays built once per call, allocating O(n + m) words in
    total; the text form then adds one C [%.17g] call per non-integral
    float attribute and edge size, which dominates {!key}. *)

val order : Graph.t -> int array
(** Task ids in canonical order: element [p] is the id of the task at
    canonical position [p]. *)

val to_string : Graph.t -> string
(** Canonical text form: the layout of the {!Serialize} format (so
    {!Serialize.of_string} reads it back) with tasks renamed
    [t0 .. tN-1] in canonical order and edges sorted by canonical
    endpoint positions. Equal strings for relabeled/reordered variants
    of the same graph. It is written directly, not through
    {!Serialize.to_string}: these bytes are the cache key, frozen by
    the golden test of [test_service], and must not move with the file
    format. *)

val fingerprint : Graph.t -> int64
(** FNV-1a of {!to_string}. *)

val key : Graph.t -> int array * int64
(** [(order g, fingerprint g)] from a single colour refinement — the
    pair a request key needs, at the cost of one of them. *)
