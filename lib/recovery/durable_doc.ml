module Labeled_doc = Ltree_doc.Labeled_doc
module Snapshot = Ltree_doc.Snapshot
module Journal = Ltree_doc.Journal
module Varint = Ltree_doc.Varint
module Span = Ltree_obs.Span

(* Append latency covers journaling plus any group-commit fsync, so the
   log-bucketed histogram separates buffered appends (sub-microsecond)
   from synced ones. *)
let append_seconds =
  Ltree_obs.Registry.histogram ~name:"recovery_append_seconds"
    ~help:"Latency of Durable_doc journaled operations in seconds"
    ~bounds:(Ltree_obs.Histogram.log2_bounds ~start:1e-7 ~count:20)
    ()

let replayed_entries =
  Ltree_obs.Registry.histogram ~name:"recovery_replayed_entries"
    ~help:"Journal entries replayed per recovery"
    ~bounds:(Ltree_obs.Histogram.log2_bounds ~start:1. ~count:16)
    ()

let wal_magic = "ltree-wal 2\n"
let snap_magic = "ltree-durable-snapshot 2\n"

type fault =
  | Missing_file of string
  | Empty_journal of string
  | Bad_header of { file : string; detail : string }
  | Snapshot_corrupt of { file : string; detail : string }
  | Checksum_mismatch of { seq : int }
  | Sequence_gap of { expected : int; got : int }
  | Torn_record of { seq : int }
  | Bad_record of { seq : int; detail : string }
  | Unresolvable_anchor of { seq : int; anchor : int }
  | Apply_failed of { seq : int; detail : string }

let fault_kind = function
  | Missing_file _ -> "missing-file"
  | Empty_journal _ -> "empty-journal"
  | Bad_header _ -> "bad-header"
  | Snapshot_corrupt _ -> "snapshot-corrupt"
  | Checksum_mismatch _ -> "checksum-mismatch"
  | Sequence_gap _ -> "sequence-gap"
  | Torn_record _ -> "torn-record"
  | Bad_record _ -> "bad-record"
  | Unresolvable_anchor _ -> "unresolvable-anchor"
  | Apply_failed _ -> "apply-failed"

let pp_fault ppf fault =
  match fault with
  | Missing_file f -> Format.fprintf ppf "missing file %s" f
  | Empty_journal f -> Format.fprintf ppf "empty journal file %s" f
  | Bad_header { file; detail } ->
    Format.fprintf ppf "bad header in %s: %s" file detail
  | Snapshot_corrupt { file; detail } ->
    Format.fprintf ppf "corrupt snapshot %s: %s" file detail
  | Checksum_mismatch { seq } ->
    Format.fprintf ppf "checksum mismatch at record %d" seq
  | Sequence_gap { expected; got } ->
    Format.fprintf ppf "sequence gap: expected %d, got %d" expected got
  | Torn_record { seq } -> Format.fprintf ppf "torn record %d" seq
  | Bad_record { seq; detail } ->
    Format.fprintf ppf "bad record %d: %s" seq detail
  | Unresolvable_anchor { seq; anchor } ->
    Format.fprintf ppf "record %d: anchor %d does not resolve" seq anchor
  | Apply_failed { seq; detail } ->
    Format.fprintf ppf "record %d failed to apply: %s" seq detail

type snapshot_source = Current | Previous

type report = {
  source : snapshot_source;
  base_seq : int;
  epoch : int;
  entries_skipped : int;
  entries_replayed : int;
  entries_dropped : int;
  faults : fault list;
  durable_seq : int;
}

type t = {
  io : Fault.io;
  dir : string;
  ldoc : Labeled_doc.t;
  group_commit : int;
  pending : Buffer.t;  (* encoded, not yet appended records *)
  image : Buffer.t;  (* the last checkpoint's snapshot image, reused *)
  mutable pending_count : int;
  mutable last_seq : int;  (* last sequence number assigned *)
  epoch : int;
  mutable generation : int;  (* journal rewrites by [checkpoint] *)
}

let journal_path t = Filename.concat t.dir "journal"
let snapshot_path t = Filename.concat t.dir "snapshot"
let snapshot_prev_path t = Filename.concat t.dir "snapshot.prev"
let snapshot_tmp_path t = Filename.concat t.dir "snapshot.tmp"

let ldoc t = t.ldoc
let last_seq t = t.last_seq
let pending t = t.pending_count
let epoch t = t.epoch
let generation t = t.generation

(* {1 Journal records}

   After the header, one {!Record} per operation whose body is the
   varint [seq] and the {!Journal.encode_entry} bytes.  The record CRC
   covers the sequence number too, so a record cannot be accepted at
   the wrong position. *)

let add_record buf ~seq bytes =
  Record.add buf (fun body ->
      Varint.add body seq;
      Buffer.add_string body bytes)

(* {1 Journal scanning} *)

type record = { seq : int; entry : Journal.entry; bytes : string }

type scan = {
  records : record list;  (* oldest first, contiguous *)
  scan_fault : fault option;  (* why the scan stopped, if it did *)
  dropped : int;  (* length-delimited chunks from the fault on *)
  valid_bytes : int;  (* prefix length holding header + valid records *)
  next_seq : int;  (* seq the next record must carry; 0 = any *)
  scanned_bytes : int;  (* file bytes read past the scan's start *)
}

let header_len = String.length wal_magic

(* The record at [pos], which must carry [expected] (0 = any).  Any
   deviation is a typed fault; the caller stops at the first one (a
   journal is only trusted up to its first bad byte). *)
let read_record data ~pos ~expected =
  match Record.read data ~pos with
  | Error Record.Truncated ->
    (* The file ends mid-record: the record was torn by the crash. *)
    Error (Torn_record { seq = Int.max 1 expected })
  | Error (Record.Checksum_mismatch _) ->
    Error (Checksum_mismatch { seq = expected })
  | Error (Record.Malformed detail) ->
    Error (Bad_record { seq = expected; detail })
  | Ok (body, next) -> (
    let c = Varint.cursor body in
    match Varint.uint c with
    | exception Varint.Corrupt detail ->
      Error (Bad_record { seq = expected; detail })
    | seq when expected <> 0 && seq <> expected ->
      Error (Sequence_gap { expected; got = seq })
    | seq -> (
      let bytes = Varint.rest c in
      match Journal.decode_entry bytes with
      | entry -> Ok ({ seq; entry; bytes }, next)
      | exception Journal.Corrupt detail -> Error (Bad_record { seq; detail })))

(* The one record loop: from byte [start], where the next record must
   carry [expected], up to the end or the first fault. *)
let scan_records data ~start ~expected ~read_from =
  let len = String.length data in
  let records = ref [] in
  let fault = ref None in
  let pos = ref start in
  let expected = ref expected in
  while Option.is_none !fault && !pos < len do
    match read_record data ~pos:!pos ~expected:!expected with
    | Ok (r, next) ->
      records := r :: !records;
      expected := r.seq + 1;
      pos := next
    | Error f -> fault := Some f
  done;
  { records = List.rev !records;
    scan_fault = !fault;
    dropped = Record.count_chunks data ~pos:!pos;
    valid_bytes = !pos;
    next_seq = !expected;
    scanned_bytes = len - read_from }

let scan_journal ?from io ~dir =
  let path = Filename.concat dir "journal" in
  let header_fault fault ~dropped ~scanned_bytes =
    { records = []; scan_fault = Some fault; dropped; valid_bytes = 0;
      next_seq = 0; scanned_bytes }
  in
  match io.Fault.read_file path with
  | None -> header_fault (Missing_file path) ~dropped:0 ~scanned_bytes:0
  | Some data -> (
    let len = String.length data in
    match from with
    | Some (offset, expected) when offset >= header_len && offset <= len ->
      (* Resuming: the prefix up to [offset] was verified by the scan
         that produced the cursor, and a journal only grows by appends
         between rotations. *)
      scan_records data ~start:offset ~expected ~read_from:offset
    | Some _ | None ->
      if len = 0 then
        (* A crash while writing the very first header byte (e.g. a torn
           write that tore at offset 0 during [initialize]) leaves the
           file present but empty.  That is not a condemned tail — there
           are no records to condemn — so it gets its own typed fault and
           a zero drop count: recovery re-homes the header and proceeds
           from the snapshot alone. *)
        header_fault (Empty_journal path) ~dropped:0 ~scanned_bytes:0
      else if not (String.starts_with ~prefix:wal_magic data) then
        (* The header is one condemned chunk, the records after it the
           rest. *)
        header_fault
          (Bad_header { file = path; detail = "bad magic" })
          ~dropped:
            (1 + Record.count_chunks data ~pos:(Int.min len header_len))
          ~scanned_bytes:len
      else scan_records data ~start:header_len ~expected:0 ~read_from:0)

(* {1 Snapshot files} *)

(* The file is [snap_magic], varints [seq], [epoch] and the payload
   length, a CRC-32 as four little-endian bytes, then the
   {!Snapshot.add_image} payload.  The CRC covers the three header
   varints and the payload, so no flipped bit outside the magic goes
   unnoticed.  [image] is built in place and copied once, into the
   file's bytes. *)
let magic_len = String.length snap_magic

let snapshot_crc data ~fields_end ~payload_at =
  Checksum.update_sub
    (Checksum.update_sub 0 data ~pos:magic_len ~len:(fields_end - magic_len))
    data ~pos:payload_at
    ~len:(String.length data - payload_at)

let encode_snapshot ~seq ~epoch image =
  let header = Buffer.create 48 in
  Buffer.add_string header snap_magic;
  Varint.add header seq;
  Varint.add header epoch;
  Varint.add header (Buffer.length image);
  let hlen = Buffer.length header in
  let out = Bytes.create (hlen + 4 + Buffer.length image) in
  Buffer.blit header 0 out 0 hlen;
  Buffer.blit image 0 out (hlen + 4) (Buffer.length image);
  (* A read-only view for the CRC; [out] is written once more, at
     bytes the CRC does not cover, before it becomes the string. *)
  let crc =
    snapshot_crc (Bytes.unsafe_to_string out) ~fields_end:hlen
      ~payload_at:(hlen + 4)
  in
  Bytes.set_int32_le out hlen (Int32.of_int crc);
  Bytes.unsafe_to_string out

(* Read the header and then the payload through one cursor without
   trusting any of it: every failure is a typed fault. *)
let load_snapshot_file io path =
  match io.Fault.read_file path with
  | None -> Error (Missing_file path)
  | Some "" -> Error (Bad_header { file = path; detail = "empty file" })
  | Some data -> (
    let c = Varint.cursor data in
    match Varint.expect c snap_magic with
    | exception Varint.Corrupt _ ->
      Error (Bad_header { file = path; detail = "bad magic" })
    | () -> (
      let fail detail = Error (Snapshot_corrupt { file = path; detail }) in
      match
        let seq = Varint.uint c in
        let epoch = Varint.uint c in
        let len = Varint.uint c in
        let fields_end = Varint.pos c in
        let crc = Varint.uint32_le c in
        if len <> Varint.remaining c then fail "payload length mismatch"
        else if
          snapshot_crc data ~fields_end ~payload_at:(Varint.pos c) <> crc
        then fail "checksum mismatch"
        else Ok (Snapshot.read c, seq, epoch)
      with
      | result -> result
      | exception Varint.Corrupt detail -> fail detail))

let newest_valid_snapshot io ~dir =
  let current = Filename.concat dir "snapshot" in
  let previous = Filename.concat dir "snapshot.prev" in
  match load_snapshot_file io current with
  | Ok (ldoc, seq, epoch) -> Ok (Current, ldoc, seq, epoch, [])
  | Error f1 -> (
      match load_snapshot_file io previous with
      | Ok (ldoc, seq, epoch) -> Ok (Previous, ldoc, seq, epoch, [ f1 ])
      | Error f2 -> Error [ f1; f2 ])

(* {1 Appending} *)

let flush_pending t =
  if t.pending_count > 0 then begin
    t.io.Fault.append_file (journal_path t) (Buffer.contents t.pending);
    Buffer.clear t.pending;
    t.pending_count <- 0;
    t.io.Fault.fsync (journal_path t)
  end

let sync t = flush_pending t

let apply t entry =
  Span.with_ ~name:"recovery.append"
    ~counters:(Labeled_doc.counters t.ldoc)
    ~on_close:(fun r ->
      Ltree_obs.Histogram.observe append_seconds r.Ltree_obs.Trace.duration)
    (fun () ->
      Journal.apply_entry t.ldoc entry;
      t.last_seq <- t.last_seq + 1;
      (* Causal tracing: the record's trace id is content-derived from
         (seq, payload), so this stamp and the replica's recomputation
         agree without shipping the id.  First-wins keeps the primary's
         append tick when a replica re-applies the same record. *)
      let bytes = Journal.encode_entry entry in
      if Ltree_obs.Causal.is_enabled () then
        Ltree_obs.Causal.stamp Ltree_obs.Causal.Append ~seq:t.last_seq
          ~payload:bytes;
      add_record t.pending ~seq:t.last_seq bytes;
      t.pending_count <- t.pending_count + 1;
      if t.pending_count >= t.group_commit then flush_pending t)

let delete t ~anchor = apply t (Journal.Delete { anchor })

(* {1 Rotation}

   The protocol that makes a checkpoint atomic: flush the journal tail
   (the snapshot must not get ahead of the log), write the new snapshot
   to a temporary file and fsync it, demote the current snapshot to
   [snapshot.prev], rename the temporary into place (the commit point —
   rename is atomic), then truncate the journal.  A crash between any
   two steps leaves either the old snapshot with a full journal, or the
   new snapshot with a stale journal whose records recovery skips by
   sequence number. *)

let checkpoint t =
  let attrs =
    if Span.enabled () then [ ("seq", string_of_int t.last_seq) ] else []
  in
  Span.with_ ~name:"recovery.checkpoint"
    ~counters:(Labeled_doc.counters t.ldoc) ~attrs
    (fun () ->
      flush_pending t;
      Buffer.clear t.image;
      Snapshot.add_image t.image t.ldoc;
      let encoded = encode_snapshot ~seq:t.last_seq ~epoch:t.epoch t.image in
      let tmp = snapshot_tmp_path t in
      t.io.Fault.write_file tmp encoded;
      t.io.Fault.fsync tmp;
      if t.io.Fault.file_exists (snapshot_path t) then
        t.io.Fault.rename_file ~src:(snapshot_path t)
          ~dst:(snapshot_prev_path t);
      t.io.Fault.rename_file ~src:tmp ~dst:(snapshot_path t);
      (* Bumped before the rewrite, so even a crashed one invalidates
         byte offsets taken in the old journal. *)
      t.generation <- t.generation + 1;
      t.io.Fault.write_file (journal_path t) wal_magic;
      t.io.Fault.fsync (journal_path t))

let initialize ~io ?(group_commit = 1) ~dir ldoc =
  if group_commit < 1 then
    invalid_arg "Durable_doc.initialize: group_commit must be >= 1";
  let t =
    { io; dir; ldoc; group_commit; pending = Buffer.create 256;
      image = Buffer.create 4096; pending_count = 0; last_seq = 0; epoch = 0;
      generation = 0 }
  in
  checkpoint t;
  t

(* {1 Recovery} *)

let recover_raw ~io ~group_commit ~dir () =
  if group_commit < 1 then
    invalid_arg "Durable_doc.recover: group_commit must be >= 1";
  match newest_valid_snapshot io ~dir with
  | Error faults -> Error faults
  | Ok (source, ldoc, base_seq, old_epoch, snap_faults) ->
    let scan = scan_journal io ~dir in
    let faults = ref (List.rev snap_faults) in
    (match scan.scan_fault with
     | Some f -> faults := f :: !faults
     | None -> ());
    let skipped = ref 0 and replayed = ref 0 in
    let dropped = ref scan.dropped in
    let applied_to = ref base_seq in
    let keep = Buffer.create 1024 in
    Buffer.add_string keep wal_magic;
    (* [f] condemns this record and every later one. *)
    let stop f rest =
      faults := f :: !faults;
      dropped := !dropped + 1 + List.length rest
    in
    let rec replay = function
      | [] -> ()
      | { seq; entry; bytes } :: rest ->
        if seq <= base_seq then begin
          (* Written before the snapshot was taken — already inside it. *)
          incr skipped;
          add_record keep ~seq bytes;
          replay rest
        end
        else if seq <> !applied_to + 1 then
          (* The journal starts after the snapshot's horizon: it cannot
             bridge the gap, so nothing further is trustworthy. *)
          stop (Sequence_gap { expected = !applied_to + 1; got = seq }) rest
        else (
          match Journal.apply_entry ldoc entry with
          | () ->
            incr replayed;
            applied_to := seq;
            add_record keep ~seq bytes;
            replay rest
          | exception Journal.Replay_error { anchor; _ } ->
            stop (Unresolvable_anchor { seq; anchor }) rest
          | exception Journal.Corrupt detail ->
            stop (Bad_record { seq; detail }) rest
          | exception Invalid_argument detail ->
            stop (Apply_failed { seq; detail }) rest)
    in
    replay scan.records;
    let faults = List.rev !faults in
    (* Truncate the condemned tail so the next session starts from a
       fully valid journal (and re-home the journal when recovery fell
       back to the previous snapshot: the current snapshot file is
       damaged goods, remove it so it cannot shadow the good one). *)
    let journal = Filename.concat dir "journal" in
    if !dropped > 0 || Option.is_some scan.scan_fault then begin
      io.Fault.write_file journal (Buffer.contents keep);
      io.Fault.fsync journal
    end;
    (match source with
     | Previous ->
       io.Fault.remove_file (Filename.concat dir "snapshot");
       io.Fault.rename_file
         ~src:(Filename.concat dir "snapshot.prev")
         ~dst:(Filename.concat dir "snapshot")
     | Current -> ());
    let t =
      { io; dir; ldoc; group_commit; pending = Buffer.create 256;
        image = Buffer.create 4096; pending_count = 0;
        last_seq = !applied_to; epoch = old_epoch + 1; generation = 0 }
    in
    Ok
      ( { source; base_seq; epoch = t.epoch; entries_skipped = !skipped;
          entries_replayed = !replayed; entries_dropped = !dropped;
          faults; durable_seq = !applied_to },
        t )

let recover ~io ?(group_commit = 1) ~dir () =
  Span.with_ ~name:"recovery.recover" (fun () ->
      let result = recover_raw ~io ~group_commit ~dir () in
      (match result with
       | Ok (report, _) ->
         Ltree_obs.Histogram.observe_int replayed_entries
           report.entries_replayed
       | Error _ -> ());
      result)
