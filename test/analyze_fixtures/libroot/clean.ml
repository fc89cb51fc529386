(* Clean fixture: an annotated monomorphic prelude (both constraint
   forms), specific exception handlers, no console output.  Must analyze
   entirely clean. *)
let ( = ) : int -> int -> bool = Stdlib.( = )
let ( < ) = (Stdlib.( < ) : int -> int -> bool)

let smaller a b = if a < b then a else b
let is_three a = a = 3
let floor3 a = Int.min a 3
let safe_div a b = try a / b with Division_by_zero -> 0
let render n = Printf.sprintf "%d" n
