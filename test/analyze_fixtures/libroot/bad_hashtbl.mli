(* Interface present so R6 stays silent for this fixture. *)
type color = Red | Green | Blue

val add : (int, string) Hashtbl.t -> int -> string -> unit
val look : (char, int) Hashtbl.t -> char -> int option
val has : (color, unit) Hashtbl.t -> bool
val drop : (bool, int) Hashtbl.t -> unit
val name : (int * string) list -> int -> string
val known : (int * string) list -> int -> bool
val listed : int list -> int -> bool
val first : (int, string) Hashtbl.t -> string
val push : (int, int) Hashtbl.t -> unit
