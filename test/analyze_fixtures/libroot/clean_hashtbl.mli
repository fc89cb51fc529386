(* Interface present so R6 stays silent for this fixture. *)
module Int_tbl : Hashtbl.S with type key = int

val add : string Int_tbl.t -> int -> string -> unit
val by_name : (string, int) Hashtbl.t -> string -> int option
val by_pair : (int * int, unit) Hashtbl.t -> int * int -> bool
val listed : int list -> int -> bool
val named : string list -> string -> bool
val generic : ('a, 'b) Hashtbl.t -> 'a -> 'b option
