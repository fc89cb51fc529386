(** A log of distinct non-negative int ids in first-added order: a
    bitmap for membership and an int {!Column} for the order, so adding
    hashes and allocates nothing once both have grown.  The L-Tree's
    relabel log and each labeled-document feed are logs of leaf ids. *)

type t

val create : unit -> t

(** [reserve t id] makes room for ids up to [id]. *)
val reserve : t -> int -> unit

(** [add t id] appends a reserved [id] unless it is logged already. *)
val add : t -> int -> unit

val length : t -> int

(** [drain t f] calls [f] on every id in first-added order and empties
    the log; [f] must not add to [t]. *)
val drain : t -> (int -> unit) -> unit
