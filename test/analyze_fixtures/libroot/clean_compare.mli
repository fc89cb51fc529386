(* Interface present so R6 stays silent for this fixture. *)
type color = Red | Green | Blue
type count = int

val int_eq : int -> int -> bool
val string_eq : string -> string -> bool
val float_lt : float -> float -> bool
val bool_eq : bool -> bool -> bool
val color_eq : color -> color -> bool
val count_cmp : count -> count -> int
val is_empty : int list -> bool
val widest : int -> int -> int
val same_name : string -> string -> bool
val sorted : string list -> string list
