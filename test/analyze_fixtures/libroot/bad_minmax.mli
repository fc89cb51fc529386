(* Interface present so R6 stays silent for this fixture. *)
val widest : int -> int -> int
