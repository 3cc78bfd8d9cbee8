(* Order statistics of the benchmark's samples. *)

let sorted l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

let median l =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile of a sorted array. *)
let percentile a q =
  let n = Array.length a in
  a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

(* The highest percentile of the ladder with at least 10 samples
   beyond it: the tail a sample of [n] supports. *)
let tail_percentile n =
  List.fold_left
    (fun best q -> if float_of_int n *. (1. -. q) >= 10. then q else best)
    0.5
    [ 0.5; 0.9; 0.99; 0.999; 0.9999 ]

(* Tail latency of replies grouped in measurement order, each group
   holding at least [min_group] of them (a short last group joins the one
   before): the highest ladder percentile every group supports, and the
   median over groups of each group's value at it. One stalled stretch
   of the host then moves one group, not the reported tail. *)
let min_group = 1000

let grouped_tail (groups : float list list) =
  let rec pool acc cur n = function
    | [] -> (
        match (acc, cur) with
        | last :: rest, _ :: _ when n < min_group -> (cur @ last) :: rest
        | _, [] -> acc
        | _ -> cur :: acc)
    | g :: rest ->
        let cur = g @ cur and n = n + List.length g in
        if n >= min_group then pool (cur :: acc) [] 0 rest else pool acc cur n rest
  in
  let groups = List.map sorted (pool [] [] 0 groups) in
  let q =
    tail_percentile (List.fold_left (fun m g -> min m (Array.length g)) max_int groups)
  in
  (q, median (List.map (fun g -> percentile g q) groups))
