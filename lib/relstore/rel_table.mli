(** An append-only heap table over the {!Pager}: rows are packed
    [rows_per_page] to a page, and every row fetch touches its page. *)

type 'a t

val create : Pager.t -> rows_per_page:int -> 'a t
val length : 'a t -> int

(** [append t row] returns the new row id (dense, from 0). *)
val append : 'a t -> 'a -> int

(** [get t id] fetches a row, touching its page.
    Raises [Invalid_argument] on an out-of-range id. *)
val get : 'a t -> int -> 'a

(** [set t id row] overwrites a row in place, dirtying its page (the
    write-back is counted by the pager at eviction or flush). *)
val set : 'a t -> int -> 'a -> unit

(** [iter t f] scans the table in row order, touching each page once per
    [rows_per_page] rows (a sequential scan). *)
val iter : 'a t -> (int -> 'a -> unit) -> unit

(** [pages t] is the current page count. *)
val pages : 'a t -> int
