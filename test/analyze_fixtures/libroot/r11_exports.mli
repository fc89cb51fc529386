(* R11 fixture: one export per case.  [r11_client.ml] and
   [r11_tests.ml] (reported under test/) are its users. *)
module type S = sig
  val from_include : int -> int
end

include S

val used : int -> int
val via_alias : int -> int
val via_let_module : int -> int
val tested : int -> int
val self_only : int -> int
val dead : int -> int
