(** The replication wire format: one CRC-framed record per line.

    Every frame is [F <crc32-hex> <body>\n] where the checksum covers
    the body exactly — a frame damaged in transit (torn, bit-flipped,
    short-read reassembled wrong) fails the CRC and is dropped by the
    receiver, to be recovered by the shipper's retransmit machinery.
    Body kinds:

    - [D <epoch> <hwm> <seq> <trace-hex> <payload>] — one journal
      record.  [hwm] is the primary's last durable seq at send time, so
      the replica can report its lag without a second round-trip.
      [trace-hex] is the record's content-derived causal trace id
      ({!Ltree_obs.Causal.id_of}); it sits inside the CRC-covered body,
      so transit damage surfaces as [Bad_crc] — never as a wrong causal
      parent — and the replica additionally verifies it against its own
      recomputation from [(seq, payload)].
    - [S <epoch> <base_seq> <chain-hex> <escaped-data>] — a full
      snapshot file for bootstrap/catch-up when the needed journal
      suffix is no longer retained.  [chain-hex] anchors the prefix-CRC
      chain at [base_seq].
    - [H <epoch> <seq> <chain-hex>] — divergence handshake: "my chain
      CRC at [seq] is [chain]"; the replica compares against its own.
    - [A <epoch> <seq>] — cumulative ack: everything [<= seq] applied.
    - [R <epoch> <seq>] — hello/re-attach: the replica (re)announces its
      applied position; overrides any previous ack. *)

type t =
  | Data of { epoch : int; hwm : int; seq : int; trace : int; payload : string }
  | Snapshot of { epoch : int; base_seq : int; chain : int; data : string }
  | Handshake of { epoch : int; seq : int; chain : int }
  | Ack of { epoch : int; seq : int }
  | Hello of { epoch : int; seq : int }

type error = Bad_crc of { want : int; got : int } | Malformed of string

val pp_error : Format.formatter -> error -> unit

(** [encode f] is the full wire line, trailing newline included. *)
val encode : t -> string

(** [decode line] parses one line ({e without} its trailing newline).
    Payload bytes survive exactly: snapshot data is unescaped, journal
    payloads are taken verbatim to end-of-line. *)
val decode : string -> (t, error) result

(** Reassembles the byte-chunk stream a {!Channel} delivers back into
    frame lines.  Chunk boundaries carry no meaning: a short-read split
    is healed here, and a torn chunk merges into a line that fails its
    CRC downstream and is dropped. *)
module Assembler : sig
  type asm

  val create : unit -> asm

  (** [feed t chunks] appends the chunks and returns every complete
      line (without newlines), keeping any trailing partial line
      buffered. *)
  val feed : asm -> string list -> string list
end
