(** A crash-safe store for a labeled document: checksummed write-ahead
    journal + atomically rotated snapshots.

    The design leans on the L-Tree determinism guarantee (paper §4.2):
    the same operation sequence always produces bit-identical labels, so
    a snapshot plus a replayed journal prefix reconstructs the exact
    pre-crash labels — recovery needs no label fixup pass.

    {b On disk} (all under one directory, via a {!Fault.io}):

    - [journal] — header line [ltree-wal 1], then one record per line:
      [E <crc> <seq> <payload>] where [payload] is
      {!Ltree_doc.Journal.entry_to_line} output and [crc] is the CRC-32
      of ["<seq> <payload>"] (covering the sequence number, so a record
      cannot be accepted at the wrong position).
    - [snapshot] / [snapshot.prev] — a binary header (the line
      [ltree-durable-snapshot 2], then varints [seq], [epoch] and the
      payload length, then a CRC-32 of those three fields and the
      payload as four little-endian bytes) followed by a
      {!Ltree_doc.Snapshot.add_image} payload, both read through one
      {!Ltree_doc.Varint} cursor.  [snapshot.prev] is the demoted
      previous generation, kept as the fallback while the
      current one could still be mid-write.

    {b Checkpoint rotation} is crash-atomic: flush the journal tail,
    write [snapshot.tmp], fsync, demote [snapshot] to [snapshot.prev],
    rename [snapshot.tmp] into place (the commit point), truncate the
    journal.  A crash between any two steps leaves either the old
    snapshot with a complete journal or the new snapshot with a stale
    journal whose records recovery skips by sequence number.

    {b Group commit}: records are buffered in memory and appended +
    fsynced once per [group_commit] operations, trading the durability
    of at most [group_commit - 1] trailing operations for fewer fsyncs.
    A crash loses exactly the unflushed buffer — the durable prefix
    property the crash matrix verifies. *)

(** {1 Recovery diagnostics} *)

(** Everything that can be wrong with the on-disk state, as data.
    Recovery never raises on corrupt input; it reports. *)
type fault =
  | Missing_file of string
  | Empty_journal of string
      (** the journal file exists but holds zero bytes — a crash while
          the very first header byte was being written; distinct from a
          condemned tail (there are no records to condemn), recovery
          re-homes the header and replays nothing *)
  | Bad_header of { file : string; detail : string }
  | Snapshot_corrupt of { file : string; detail : string }
  | Checksum_mismatch of { seq : int }
  | Sequence_gap of { expected : int; got : int }
  | Torn_record of { seq : int }  (** file ends mid-record *)
  | Bad_record of { seq : int; detail : string }
  | Unresolvable_anchor of { seq : int; anchor : int }
      (** the entry is well-formed but its target label is gone *)
  | Apply_failed of { seq : int; detail : string }

(** [fault_kind f] is a stable short tag for aggregation
    (e.g. ["checksum-mismatch"]). *)
val fault_kind : fault -> string

val pp_fault : Format.formatter -> fault -> unit

type snapshot_source = Current | Previous

(** What recovery found and did.  [durable_seq] is the highest
    operation sequence number the recovered document reflects —
    the store's durable prefix. *)
type report = {
  source : snapshot_source;  (** which snapshot generation loaded *)
  base_seq : int;  (** sequence number the snapshot was taken at *)
  epoch : int;  (** the new store incarnation (old epoch + 1) *)
  entries_skipped : int;  (** journal records already in the snapshot *)
  entries_replayed : int;
  entries_dropped : int;  (** condemned tail records, truncated away *)
  faults : fault list;  (** everything wrong that was found, in order *)
  durable_seq : int;
}

(** {1 The store} *)

type t

(** [initialize ~io ?group_commit ~dir ldoc] makes [ldoc] durable:
    writes an initial snapshot of it under [dir] (which must exist) and
    an empty journal.  [group_commit] defaults to [1] (every operation
    fsynced).  Raises [Invalid_argument] if [group_commit < 1]. *)
val initialize :
  io:Fault.io -> ?group_commit:int -> dir:string -> Ltree_doc.Labeled_doc.t -> t

(** [recover ~io ?group_commit ~dir ()] rebuilds the store from disk:
    loads the newest valid snapshot ([snapshot], else [snapshot.prev]),
    replays the journal up to the first fault or sequence gap, truncates
    the condemned tail, and bumps the epoch.  Returns [Error faults]
    only when no snapshot generation is loadable; any journal damage is
    survivable and lands in [report.faults].  Never raises on corrupt
    input. *)
val recover :
  io:Fault.io ->
  ?group_commit:int ->
  dir:string ->
  unit ->
  (report * t, fault list) result

val ldoc : t -> Ltree_doc.Labeled_doc.t

(** [last_seq t] is the sequence number of the newest {e applied}
    operation (some of which may still be buffered, not yet durable). *)
val last_seq : t -> int

(** [pending t] is the number of buffered, not-yet-appended records;
    always [< group_commit] between operations. *)
val pending : t -> int

(** [epoch t] is the store incarnation, bumped on every {!recover} —
    the value derived caches compare against to detect restarts. *)
val epoch : t -> int

(** [generation t] counts the journal rewrites {!checkpoint} has made
    through [t] — the only place a live store rewrites its journal.
    Between two rewrites the journal only grows by appends, so a byte
    offset into it stays valid while [generation t] is unchanged. *)
val generation : t -> int

(** {1 Operations}

    Each applies to the in-memory document first, then journals.  The
    entry payload may raise like {!Ltree_doc.Journal.apply_entry}
    (e.g. [Replay_error] on a dangling anchor); nothing is journaled in
    that case. *)

val apply : t -> Ltree_doc.Journal.entry -> unit
val delete : t -> anchor:int -> unit

(** [sync t] forces the group-commit buffer out: appends and fsyncs all
    pending records.  After [sync], [last_seq t] is durable. *)
val sync : t -> unit

(** [checkpoint t] rotates snapshots per the protocol above and
    truncates the journal.  Implies {!sync}. *)
val checkpoint : t -> unit

(** {1 Inspection} *)

type scan = {
  records : (int * Ltree_doc.Journal.entry) list;
      (** valid contiguous prefix, oldest first *)
  scan_fault : fault option;  (** why scanning stopped, if it did *)
  dropped : int;  (** line-shaped chunks after the fault *)
  valid_bytes : int;  (** length of the trustworthy file prefix *)
  next_seq : int;
      (** the sequence number the record after the valid prefix must
          carry ([0] while no record has fixed it) *)
  scanned_bytes : int;  (** file bytes read past the scan's start *)
}

(** [scan_journal ?from io ~dir] parses and verifies the journal without
    touching any document — the invariant checks build on this.

    [from = (offset, expected_seq)] resumes an earlier scan of the same
    journal: [offset] is that scan's [valid_bytes] and [expected_seq]
    its [next_seq].  Only the bytes past [offset] are parsed, with every
    CRC, sequence and parse check, and the result is the suffix of what
    a full scan would return (same [scan_fault], [dropped],
    [valid_bytes], [next_seq]).  The caller must know the journal was
    not rewritten since (see {!generation}); an [offset] inside the
    header or past the end of the file restarts the scan from the
    header. *)
val scan_journal : ?from:int * int -> Fault.io -> dir:string -> scan

(** [newest_valid_snapshot io ~dir] is the snapshot {!recover} would
    start from: [Ok (source, ldoc, base_seq, epoch, faults)] where
    [faults] records a skipped-over corrupt current generation, or
    [Error faults] when neither generation loads. *)
val newest_valid_snapshot :
  Fault.io ->
  dir:string ->
  ( snapshot_source * Ltree_doc.Labeled_doc.t * int * int * fault list,
    fault list )
  result
