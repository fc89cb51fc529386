(** The one binary record layout of the durable journal and the
    replication wire: [[varint body length][body][CRC-32 LE]], the CRC
    covering the length and the body.  The length lets a reader step
    over a record without decoding it, and each record has exactly one
    encoding (the length varint is minimal). *)

type error =
  | Truncated  (** the data ends inside the record *)
  | Checksum_mismatch of { want : int; got : int }  (** stored, computed *)
  | Malformed of string  (** the length varint does not decode *)

(** [add buf write] appends a record of the bytes [write] adds. *)
val add : Buffer.t -> (Buffer.t -> unit) -> unit

(** [read data ~pos] reads the record at byte [pos] of [data]:
    [Ok (body, next)], [next] being the byte after its CRC. *)
val read : string -> pos:int -> (string * int, error) result

(** [count_chunks data ~pos] counts the chunks from [pos] on by their
    length varints alone; a cut-short or undecodable last one counts. *)
val count_chunks : string -> pos:int -> int
