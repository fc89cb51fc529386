(** The prefix-CRC chain both replication ends maintain over the record
    stream.

    [chain_k = crc32(hex(chain_{k-1}) ^ " " ^ "<seq_k> <payload_k>")],
    anchored either at [0] (a fresh store) or at the CRC of the snapshot
    file a catch-up started from.  Because each link folds in the whole
    history before it, two ends agreeing on [chain_k] have applied
    byte-identical streams up to [k] — one compare per handshake detects
    divergence anywhere in the prefix. *)

(** [extend ~prev ~seq ~payload] is the next chain value after applying
    record [seq] whose entry bytes ({!Ltree_doc.Journal.encode_entry}) are
    [payload]. *)
val extend : prev:int -> seq:int -> payload:string -> int

(** [anchor data] starts a chain at a shipped snapshot: the CRC of its
    raw file bytes. *)
val anchor : string -> int
