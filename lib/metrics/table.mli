(** Fixed-width plain-text tables, used by the benchmark harness to print
    the paper-style measured-vs-formula rows. *)

type align = Left | Right

(** [print ~title ~header ?align rows] renders a boxed table on stdout.
    All rows must have the same arity as [header]; [align] defaults to
    [Right] for every column. *)
val print :
  title:string -> header:string list -> ?align:align list ->
  string list list -> unit

(** Formatting helpers for cells. *)

val ffloat : ?decimals:int -> float -> string

(** [fratio a b] renders [a /. b] or ["-"] when [b = 0]. *)
val fratio : ?decimals:int -> float -> float -> string
