(** A doubly-linked list of labeled cells.

    Every baseline labeling scheme maintains the document's tag sequence as
    such a list: the list gives O(1) ordered neighbourhood access, and the
    integer [label] field carries the scheme's current label for the cell.
    Cells double as the schemes' public handles, so they stay valid across
    relabelings. *)

type cell = {
  mutable label : int;
  mutable prev : cell option;
  mutable next : cell option;
}

type t

val create : unit -> t
val length : t -> int
val first : t -> cell option
val last : t -> cell option

(** [append t label] adds a fresh cell at the end. *)
val append : t -> int -> cell

(** [insert_after t cell label] / [insert_before t cell label] splice a
    fresh cell next to [cell]. *)
val insert_after : t -> cell -> int -> cell

val insert_before : t -> cell -> int -> cell

(** [remove t cell] unlinks [cell]. Removing an already-unlinked cell is a
    checked error ([Invalid_argument]). *)
val remove : t -> cell -> unit

(** [iter t f] visits cells in list order. *)
val iter : t -> (cell -> unit) -> unit

(** [check t] validates link symmetry and that labels strictly increase;
    raises [Failure] otherwise. *)
val check : t -> unit
