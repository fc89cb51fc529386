(* R2 fixture: an int-annotated prelude does not specialize min/max:
   Stdlib.max runs the generic compare at every type, so both the
   rebinding and its use fire. *)
let max : int -> int -> int = Stdlib.max
let widest a b = max a b
