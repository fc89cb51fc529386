type t = { mutable state : int64 }

let create seed = { state = Int64.of_int seed }

let next t =
  t.state <- Int64.add t.state 0x9E3779B97F4A7C15L;
  let z = t.state in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  let r = Int64.shift_right_logical (next t) 1 in
  Int64.to_int (Int64.rem r (Int64.of_int bound))

let float t =
  let bits = Int64.shift_right_logical (next t) 11 in
  Int64.to_float bits /. 9007199254740992. (* 2^53 *)

let bool t = Int64.logand (next t) 1L = 1L

let pick t arr =
  if Array.length arr = 0 then invalid_arg "Prng.pick: empty array";
  arr.(int t (Array.length arr))
