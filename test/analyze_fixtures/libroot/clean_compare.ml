(* R2 fixture: comparisons the compiler specializes by operand type.
   None of these may fire. *)
type color = Red | Green | Blue
type count = int

let int_eq (a : int) b = a = b
let string_eq (a : string) b = a = b
let float_lt (a : float) b = a < b
let bool_eq (a : bool) b = a = b
let color_eq (a : color) b = a = b
let count_cmp (a : count) b = compare a b
let is_empty (l : int list) = l = []
let widest a b = Int.max a b
let same_name a b = String.equal a b
let sorted (xs : string list) = List.sort compare xs
