(** The replication wire format: one {!Ltree_recovery.Record} per
    line, the journal's record layout, with backslash and newline
    escaped ([\\\\], [\\n]).  A frame damaged in transit (torn,
    bit-flipped, short-read reassembled wrong) fails the escape, the
    layout or the CRC and is dropped by the receiver, to be recovered
    by the shipper's retransmit machinery.  The body is a kind byte,
    varint fields, and for [D] and [S] the payload to its end:

    - [D epoch hwm seq trace payload] — one journal record, [payload]
      being its stored entry bytes.  [hwm] is the primary's last
      durable seq at send time, so the replica can report its lag
      without a second round-trip.  [trace] is the record's
      content-derived causal trace id ({!Ltree_obs.Causal.id_of}),
      CRC-covered, so transit damage surfaces as a bad CRC — never as a
      wrong causal parent; the replica also checks it against its own
      recomputation from [(seq, payload)].
    - [S epoch base_seq chain data] — a full snapshot file for
      bootstrap/catch-up; [chain] anchors the prefix-CRC chain at
      [base_seq].
    - [H epoch seq chain] — divergence handshake: "my chain CRC at
      [seq] is [chain]"; the replica compares against its own.
    - [A epoch seq] — cumulative ack: everything [<= seq] applied.
    - [R epoch seq+1] — hello/re-attach: the replica (re)announces its
      applied position ([-1] before it has one); overrides any ack.

    A frame has one encoding: if [decode line] is [Ok f], [encode f] is
    [line ^ "\n"]. *)

type t =
  | Data of { epoch : int; hwm : int; seq : int; trace : int; payload : string }
  | Snapshot of { epoch : int; base_seq : int; chain : int; data : string }
  | Handshake of { epoch : int; seq : int; chain : int }
  | Ack of { epoch : int; seq : int }
  | Hello of { epoch : int; seq : int }

type error = Ltree_recovery.Record.error

val pp_error : Format.formatter -> error -> unit

(** [encode f] is the full wire line, trailing newline included. *)
val encode : t -> string

(** [decode line] decodes one line ({e without} its trailing newline);
    payload bytes survive exactly. *)
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
