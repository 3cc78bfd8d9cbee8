module Fnv = Support.Fnv
module A1 = Bigarray.Array1

(* Unboxed int64 storage: colours and edge-size bits live here so the
   refinement loop reads and writes them without allocating. *)
type words = (int64, Bigarray.int64_elt, Bigarray.c_layout) A1.t

let words n : words = A1.create Bigarray.int64 Bigarray.c_layout n

(* One [Fnv.add_value] step, inlined here so the accumulator of the
   loops below stays unboxed. *)
let fnv_prime = 0x100000001b3L
let[@inline] mix h v = Int64.mul (Int64.logxor h v) fnv_prime

(* Initial colour: every task attribute except the name. *)
let task_color (t : Task.t) =
  let open Fnv in
  let h = empty in
  let h = add_float h t.Task.w_ppe in
  let h = add_float h t.Task.w_spe in
  let h = add_int h t.Task.peek in
  let h = add_bool h t.Task.stateful in
  let h = add_float h t.Task.read_bytes in
  add_float h t.Task.write_bytes

(* One side of the adjacency in compressed form: the slots of task [v]
   are [start.(v) .. start.(v + 1) - 1], each holding the size of the
   connecting edge (as float bits) and the neighbour across it. *)
type side = { start : int array; bits : words; nbr : int array }

let compress g ~at ~across =
  let n = Graph.n_tasks g and m = Graph.n_edges g in
  let start = Array.make (n + 1) 0 in
  for e = 0 to m - 1 do
    let v = at (Graph.edge g e) in
    start.(v + 1) <- start.(v + 1) + 1
  done;
  for v = 0 to n - 1 do
    start.(v + 1) <- start.(v + 1) + start.(v)
  done;
  let next = Array.sub start 0 n and bits = words m and nbr = Array.make m 0 in
  for e = 0 to m - 1 do
    let edge = Graph.edge g e in
    let v = at edge in
    let s = next.(v) in
    next.(v) <- s + 1;
    bits.{s} <- Int64.bits_of_float edge.Graph.data_bytes;
    nbr.(s) <- across edge
  done;
  { start; bits; nbr }

let[@inline] degree side v = side.start.(v + 1) - side.start.(v)

(* Absorb into [dst.{v}] the hash of one side of [v]: [tag], then the
   multiset of (edge size, neighbour colour) pairs in ascending signed
   order, which is the order [compare] gives on int64 pairs. Sorting
   makes the result independent of edge order; [slots] is scratch of at
   least [degree side v] cells. Every index below comes from
   [compress], so the accesses skip their bounds checks. *)
let absorb { start; bits; nbr } tag (colors : words) slots (dst : words) v =
  let lo = Array.unsafe_get start v and hi = Array.unsafe_get start (v + 1) in
  for x = lo to hi - 1 do
    let bx = A1.unsafe_get bits x
    and cx = A1.unsafe_get colors (Array.unsafe_get nbr x) in
    let j = ref (x - lo - 1) in
    while
      !j >= 0
      &&
      let y = Array.unsafe_get slots !j in
      let by = A1.unsafe_get bits y in
      by > bx || (by = bx && A1.unsafe_get colors (Array.unsafe_get nbr y) > cx)
    do
      Array.unsafe_set slots (!j + 1) (Array.unsafe_get slots !j);
      decr j
    done;
    Array.unsafe_set slots (!j + 1) x
  done;
  let h = ref (mix Fnv.empty (Int64.of_int tag)) in
  for i = 0 to hi - lo - 1 do
    let y = Array.unsafe_get slots i in
    h := mix (mix !h (A1.unsafe_get bits y)) (A1.unsafe_get colors (Array.unsafe_get nbr y))
  done;
  A1.unsafe_set dst v (mix (A1.unsafe_get dst v) !h)

(* Final colours after [depth + 2] rounds, which let a colour absorb the
   whole reachable neighbourhood of its task along the longest path,
   both ways. Each round hashes a task's colour with its in-side, then
   its out-side; separate folds keep the two from cancelling. *)
let colors g ins outs =
  let n = Graph.n_tasks g in
  let cur = ref (words n) and next = ref (words n) in
  for v = 0 to n - 1 do
    !cur.{v} <- task_color (Graph.task g v)
  done;
  let slots = Array.make (Graph.n_edges g) 0 in
  for _ = 1 to Graph.depth g + 2 do
    let src = !cur and dst = !next in
    for v = 0 to n - 1 do
      dst.{v} <- mix Fnv.empty src.{v};
      absorb ins 1 src slots dst v;
      absorb outs 2 src slots dst v
    done;
    cur := dst;
    next := src
  done;
  !cur

let order g =
  let ins = compress g ~at:(fun e -> e.Graph.dst) ~across:(fun e -> e.Graph.src) in
  let outs = compress g ~at:(fun e -> e.Graph.src) ~across:(fun e -> e.Graph.dst) in
  let colors = colors g ins outs in
  let ids = Array.init (Graph.n_tasks g) Fun.id in
  (* Stable: tasks with equal final colours (interchangeable up to the
     refinement's power) keep their input order. *)
  let cmp a b =
    let c = Int64.unsigned_compare colors.{a} colors.{b} in
    if c <> 0 then c
    else
      let c = Int.compare (degree ins a) (degree ins b) in
      if c <> 0 then c else Int.compare (degree outs a) (degree outs b)
  in
  Array.stable_sort cmp ids;
  ids

(* What [Printf]'s [%.17g] calls. *)
external format_float : string -> float -> string = "caml_format_float"

(* The canonical text form under a precomputed [order g]: the
   [Serialize] layout, written here so that its bytes (the cache key)
   do not move with the file format. *)
let to_string_ordered g ord =
  let n = Graph.n_tasks g and m = Graph.n_edges g in
  let pos = Array.make n 0 in
  Array.iteri (fun p id -> pos.(id) <- p) ord;
  let buf = Buffer.create (64 + (160 * n) + (48 * m)) in
  (* Decimal digits of [k >= 0], the bytes [string_of_int k] gives. *)
  let rec digits k =
    if k >= 10 then digits (k / 10);
    Buffer.add_char buf (Char.unsafe_chr (48 + (k mod 10)))
  in
  let name p =
    Buffer.add_char buf 't';
    digits p
  in
  (* Under [%.17g] an integral float below 2^53 prints as its integer
     digits ([-0.] as "-0"). A third of the preset graphs' attributes
     are zeros, so this skips many of the C formatting calls that
     dominate the key. *)
  let attr key x =
    Buffer.add_string buf key;
    if Float.is_integer x && Float.abs x < 0x1p53 then begin
      if Float.sign_bit x then Buffer.add_char buf '-';
      digits (Float.to_int (Float.abs x))
    end
    else Buffer.add_string buf (format_float "%.17g" x)
  in
  Buffer.add_string buf "# cellstream application graph\n";
  Array.iteri
    (fun p id ->
      let t = Graph.task g id in
      Buffer.add_string buf "task ";
      name p;
      attr " wppe=" t.Task.w_ppe;
      attr " wspe=" t.Task.w_spe;
      Buffer.add_string buf " peek=";
      Buffer.add_string buf (string_of_int t.Task.peek);
      Buffer.add_string buf (if t.Task.stateful then " stateful=1" else " stateful=0");
      attr " read=" t.Task.read_bytes;
      attr " write=" t.Task.write_bytes;
      Buffer.add_char buf '\n')
    ord;
  (* (canonical src, canonical dst) pairs are unique: [Graph] rejects
     duplicate edges. *)
  let rank e =
    let edge = Graph.edge g e in
    (pos.(edge.Graph.src) * n) + pos.(edge.Graph.dst)
  in
  let ranks = Array.init m rank in
  let edges = Array.init m Fun.id in
  Array.sort (fun a b -> Int.compare ranks.(a) ranks.(b)) edges;
  Array.iter
    (fun e ->
      let edge = Graph.edge g e in
      Buffer.add_string buf "edge ";
      name pos.(edge.Graph.src);
      Buffer.add_char buf ' ';
      name pos.(edge.Graph.dst);
      attr " data=" edge.Graph.data_bytes;
      Buffer.add_char buf '\n')
    edges;
  Buffer.contents buf

let to_string g = to_string_ordered g (order g)

let fingerprint g = Fnv.of_string (to_string g)

let key g =
  let ord = order g in
  (ord, Fnv.of_string (to_string_ordered g ord))
