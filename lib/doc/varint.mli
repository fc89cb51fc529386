(** Unsigned LEB128 varints and the one decoding cursor of every binary
    format: snapshot images, journal records and wire frames.

    A value is written seven bits per byte, low group first, the high
    bit of each byte set while more follow: [0..127] takes one byte,
    a §4.2 label delta of a few thousand two.  Every decoding error is
    the one typed {!Corrupt}. *)

(** Raised by every cursor read on malformed input; {!Snapshot.Corrupt}
    is this same exception. *)
exception Corrupt of string

(** [add buf n] appends the varint of [n].  Raises [Invalid_argument]
    when [n < 0]. *)
val add : Buffer.t -> int -> unit

(** A read position in a string. *)
type cursor

(** [cursor ?pos data] starts reading [data] at byte [pos] (default 0). *)
val cursor : ?pos:int -> string -> cursor

val pos : cursor -> int

(** [remaining c] is the number of unread bytes. *)
val remaining : cursor -> int

(** [uint c] reads one varint.  Raises {!Corrupt} when the input ends
    inside it, when it runs past the 62 bits of a non-negative [int]
    (overlong), or when it is padded with a zero final byte
    (non-minimal), so each value has exactly one encoding. *)
val uint : cursor -> int

(** [count c what] reads a varint count of items that take at least one
    byte each, and raises {!Corrupt} (naming [what]) when it exceeds the
    bytes left — so a damaged count can never size an allocation. *)
val count : cursor -> string -> int

(** [byte c] reads one raw byte, such as a kind tag. *)
val byte : cursor -> char

(** [string c what] reads a varint length, then that many raw bytes
    (see {!count}). *)
val string : cursor -> string -> string

(** [expect c lit] consumes the literal [lit] or raises {!Corrupt}. *)
val expect : cursor -> string -> unit

(** [uint32_le c] reads a fixed four-byte little-endian unsigned field. *)
val uint32_le : cursor -> int

(** [rest c] is every unread byte; the cursor ends at the end. *)
val rest : cursor -> string
