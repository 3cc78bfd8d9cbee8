type t = int64

let empty = 0xcbf29ce484222325L
let prime = 0x100000001b3L
let add_value h v = Int64.mul (Int64.logxor h v) prime
let add_int h i = add_value h (Int64.of_int i)
let add_bool h b = add_value h (if b then 1L else 0L)
let add_float h f = add_value h (Int64.bits_of_float f)

let add_string h s =
  let h = ref h in
  for i = 0 to String.length s - 1 do
    h := add_int !h (Char.code (String.unsafe_get s i))
  done;
  !h

let of_string s = add_string empty s
let to_hex h = Printf.sprintf "%016Lx" h
