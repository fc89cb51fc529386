(* R2 fixture, analyzed as if it lived in lib/doc/ (a directory the
   untyped pass used to exempt): a generic compare on a record. *)
type span = { first : int; last : int }

let earlier (a : span) b = compare a b < 0
