module Int_tbl = Ltree_metrics.Int_tbl
module Fault = Ltree_recovery.Fault
module Durable_doc = Ltree_recovery.Durable_doc

(* How far below the ack point payloads and chain links are retained,
   so a replica that recovers (regressing by at most its group-commit
   buffer plus some reordering) resumes on data frames instead of
   forcing a snapshot re-ship. *)
let keep_window = 64

type config = {
  policy : Backoff.policy;
  window : int;
  handshake_every : int;
}

let default_config =
  { policy = Backoff.default_policy; window = 16; handshake_every = 8 }

type error = Send_failed of { seq : int; reason : Backoff.error }

let pp_error ppf (Send_failed { seq; reason }) =
  Format.fprintf ppf "shipping record %d failed: %a" seq Backoff.pp_error
    reason

type inflight = {
  mutable attempts : int;
  first_sent : int;
  mutable next_due : int;
}

type stats = {
  frames_sent : int;
  retries : int;
  backoff_ticks : int;
  snapshots_sent : int;
  handshakes_sent : int;
  acks_seen : int;
  hellos_seen : int;
  bad_frames : int;
  scanned_bytes : int;
}

(* Where the last journal scan stopped: resumable while the store's
   journal generation is unchanged. *)
type cursor = { generation : int; offset : int; next_seq : int }

type t = {
  io : Fault.io;
  dir : string;
  store : Durable_doc.t;
  down : Channel.t;
  up : Channel.t;
  config : config;
  buf : Frame.Assembler.asm;
  retention : string Int_tbl.t;
  chains : int Int_tbl.t;
  inflight : inflight Int_tbl.t;
  mutable chain_top : int;
  mutable broken : bool;
  mutable acked : int option;
  mutable snap_inflight : inflight option;
  mutable snap_base : int;
  mutable failed : error option;
  mutable acked_progress : int;
  mutable force_handshake : bool;
  mutable cursor : cursor option;
  mutable frames_sent : int;
  mutable retries : int;
  mutable backoff_ticks : int;
  mutable snapshots_sent : int;
  mutable handshakes_sent : int;
  mutable acks_seen : int;
  mutable hellos_seen : int;
  mutable bad_frames : int;
  mutable scanned_bytes : int;
}

let snapshot_path t =
  match Durable_doc.newest_valid_snapshot t.io ~dir:t.dir with
  | Ok (source, _ldoc, base_seq, _epoch, _faults) ->
    let file =
      match source with
      | Durable_doc.Current -> "snapshot"
      | Durable_doc.Previous -> "snapshot.prev"
    in
    Some (Filename.concat t.dir file, base_seq)
  | Error (_ : Durable_doc.fault list) -> None

let create ~io ~dir ~store ~down ~up ?(config = default_config) () =
  let base = Durable_doc.last_seq store in
  let chains = Int_tbl.create 64 in
  let t =
    {
      io;
      dir;
      store;
      down;
      up;
      config;
      buf = Frame.Assembler.create ();
      retention = Int_tbl.create 64;
      chains;
      inflight = Int_tbl.create 16;
      chain_top = base;
      broken = false;
      acked = None;
      snap_inflight = None;
      snap_base = -1;
      failed = None;
      acked_progress = 0;
      force_handshake = false;
      cursor = None;
      frames_sent = 0;
      retries = 0;
      backoff_ticks = 0;
      snapshots_sent = 0;
      handshakes_sent = 0;
      acks_seen = 0;
      hellos_seen = 0;
      bad_frames = 0;
      scanned_bytes = 0;
    }
  in
  (* Anchor the chain at the store's current snapshot so the very first
     catch-up ships a chain value both ends can extend from. *)
  (match snapshot_path t with
  | Some (path, base_seq) when base_seq = base -> (
    match io.Fault.read_file path with
    | Some bytes -> Int_tbl.replace chains base (Chain.anchor bytes)
    | None -> t.broken <- true)
  | Some _ | None -> t.broken <- true);
  t

let failed t = t.failed

let stats t =
  {
    frames_sent = t.frames_sent;
    retries = t.retries;
    backoff_ticks = t.backoff_ticks;
    snapshots_sent = t.snapshots_sent;
    handshakes_sent = t.handshakes_sent;
    acks_seen = t.acks_seen;
    hellos_seen = t.hellos_seen;
    bad_frames = t.bad_frames;
    scanned_bytes = t.scanned_bytes;
  }

let reset t =
  t.failed <- None;
  Int_tbl.reset t.inflight;
  t.snap_inflight <- None

(* Fold newly appended journal records into retention + chain.  Scanning
   is read-only, so this adds no write points to the primary.  The scan
   resumes at the cursor while the journal generation holds; after a
   rotation, or with no cursor yet, it starts over from the header and
   the records at or below [chain_top] it meets again are skipped. *)
let ingest t =
  let generation = Durable_doc.generation t.store in
  let from =
    match t.cursor with
    | Some c when c.generation = generation -> Some (c.offset, c.next_seq)
    | Some _ | None -> None
  in
  let scan = Durable_doc.scan_journal ?from t.io ~dir:t.dir in
  t.scanned_bytes <- t.scanned_bytes + scan.Durable_doc.scanned_bytes;
  t.cursor <-
    Some
      { generation;
        offset = scan.Durable_doc.valid_bytes;
        next_seq = scan.Durable_doc.next_seq };
  List.iter
    (fun { Durable_doc.seq; bytes = payload; entry = _ } ->
      if seq > t.chain_top then
        if seq = t.chain_top + 1 then begin
          let prev = Int_tbl.find t.chains t.chain_top in
          Int_tbl.replace t.chains seq (Chain.extend ~prev ~seq ~payload);
          Int_tbl.replace t.retention seq payload;
          t.chain_top <- seq
        end
        else
          (* Records vanished between pumps (a checkpoint truncated the
             journal before we scanned it): continuity is lost and only
             a snapshot re-ship can re-anchor. *)
          t.broken <- true)
    scan.Durable_doc.records

let prune t ~acked =
  let cut = acked - keep_window in
  Int_tbl.drop_below t.retention cut;
  Int_tbl.drop_below t.chains cut

let on_ack t ~now seq =
  t.acks_seen <- t.acks_seen + 1;
  Ltree_obs.Span.note ~tick:now ~kind:"channel"
    ~attrs:[ ("seq", string_of_int seq) ]
    "ack";
  let prev = match t.acked with None -> -1 | Some a -> a in
  if seq > prev then begin
    t.acked <- Some seq;
    t.acked_progress <- t.acked_progress + (seq - Int.max prev 0);
    Int_tbl.iter
      (fun s (fl : inflight) ->
        if s <= seq then begin
          (* Ship latency and send attempts, for [repl_ship_latency_ticks]
             and [repl_send_attempts]: a traced-only point. *)
          if Ltree_obs.Span.enabled () then
            Ltree_obs.Span.event
              ~attrs:
                [ ("ticks", string_of_int (Int.max 1 (now - fl.first_sent)));
                  ("attempts", string_of_int fl.attempts) ]
              "repl.acked";
          (* The cumulative ack is the moment the primary knows the
             record is applied and readable on the replica: the end of
             its causal waterfall. *)
          match Int_tbl.find_opt t.retention s with
          | Some payload ->
            Ltree_obs.Causal.stamp ~tick:now Ltree_obs.Causal.Readable ~seq:s
              ~payload
          | None -> ()
        end)
      t.inflight;
    Int_tbl.drop_below t.inflight (seq + 1);
    (match t.snap_inflight with
    | Some _ when seq >= t.snap_base -> t.snap_inflight <- None
    | _ -> ());
    prune t ~acked:seq
  end

let on_hello t seq =
  t.hellos_seen <- t.hellos_seen + 1;
  (* A hello overrides the cumulative ack — the replica may legitimately
     have regressed (it recovered from its own disk, losing its
     group-commit buffer). *)
  t.acked <- (if seq < 0 then None else Some seq);
  Int_tbl.reset t.inflight;
  t.snap_inflight <- None;
  t.failed <- None;
  t.acked_progress <- 0;
  t.force_handshake <- seq >= 0

let process_up t ~now =
  List.iter
    (fun line ->
      match Frame.decode line with
      | Error (_ : Frame.error) -> t.bad_frames <- t.bad_frames + 1
      | Ok (Frame.Ack { seq; epoch = _ }) -> on_ack t ~now seq
      | Ok (Frame.Hello { seq; epoch = _ }) -> on_hello t seq
      | Ok (Frame.Data _ | Frame.Snapshot _ | Frame.Handshake _) ->
        t.bad_frames <- t.bad_frames + 1)
    (Frame.Assembler.feed t.buf (Channel.drain t.up ~now))

let send t ~now frame =
  Channel.send t.down ~now (Frame.encode frame);
  t.frames_sent <- t.frames_sent + 1

(* Ship the current snapshot as the catch-up base.  When the snapshot
   file lags the store (records applied since the last rotation), force
   a checkpoint first — syncing and re-ingesting in between so the
   truncated records are already chained. *)
let send_snapshot_now t ~now =
  let fresh =
    match snapshot_path t with
    | Some (path, base_seq)
      when base_seq = Durable_doc.last_seq t.store
           && Durable_doc.pending t.store = 0 ->
      Some (path, base_seq)
    | Some _ | None -> None
  in
  let resolved =
    match fresh with
    | Some pb -> Some pb
    | None ->
      Durable_doc.sync t.store;
      ingest t;
      Durable_doc.checkpoint t.store;
      snapshot_path t
  in
  match resolved with
  | None -> t.broken <- true
  | Some (path, base) -> (
    match t.io.Fault.read_file path with
    | None -> t.broken <- true
    | Some bytes ->
      if t.broken || not (Int_tbl.mem t.chains base) then begin
        Int_tbl.reset t.chains;
        Int_tbl.reset t.retention;
        Int_tbl.replace t.chains base (Chain.anchor bytes);
        t.chain_top <- base;
        t.broken <- false
      end;
      send t ~now
        (Snapshot
           { epoch = Durable_doc.epoch t.store; base_seq = base;
             chain = Int_tbl.find t.chains base; data = bytes });
      t.snapshots_sent <- t.snapshots_sent + 1;
      Ltree_obs.Span.note ~tick:now ~kind:"channel"
        ~attrs:[ ("base_seq", string_of_int base) ]
        "snapshot_sent";
      t.snap_base <- base)

let first_send t ~now =
  { attempts = 1; first_sent = now;
    next_due = now + Backoff.delay t.config.policy ~attempt:1 }

(* The retry decision for an in-flight send that has come due: resend
   and back off further, or give up with a typed failure, noted to the
   flight recorder as [event]. *)
let retry_due t ~now (fl : inflight) ~seq ~event resend =
  if now >= fl.next_due then
    match
      Backoff.check t.config.policy ~attempt:fl.attempts
        ~waited:(now - fl.first_sent)
    with
    | Ok delay ->
      resend ();
      fl.attempts <- fl.attempts + 1;
      fl.next_due <- now + delay;
      t.retries <- t.retries + 1;
      t.backoff_ticks <- t.backoff_ticks + delay;
      if Ltree_obs.Span.enabled () then
        Ltree_obs.Span.event ~attrs:[ ("delay", string_of_int delay) ]
          "repl.retry"
    | Error reason ->
      Ltree_obs.Span.note ~tick:now ~kind:"recovery"
        ~attrs:
          [ ("seq", string_of_int seq);
            ("reason", Format.asprintf "%a" Backoff.pp_error reason) ]
        event;
      t.failed <- Some (Send_failed { seq; reason })

let step_snapshot t ~now =
  match t.snap_inflight with
  | None ->
    send_snapshot_now t ~now;
    t.snap_inflight <- Some (first_send t ~now)
  | Some fl ->
    retry_due t ~now fl ~seq:t.snap_base ~event:"snapshot_send_failed"
      (fun () -> send_snapshot_now t ~now)

let send_data t ~now ~seq payload =
  send t ~now
    (Frame.Data
       { epoch = Durable_doc.epoch t.store; hwm = t.chain_top; seq; payload });
  (* First-wins stamping keeps the first send's tick on retransmits;
     retries are attributed separately via [note_retry]. *)
  Ltree_obs.Causal.stamp ~tick:now Ltree_obs.Causal.Ship ~seq ~payload

let step_window t ~now ~acked =
  let hi = Int.min t.chain_top (acked + t.config.window) in
  let seq = ref (acked + 1) in
  while Option.is_none t.failed && !seq <= hi do
    (match Int_tbl.find_opt t.retention !seq with
    | None -> seq := hi (* gap: the snapshot path takes over next pump *)
    | Some payload -> (
      let seq = !seq in
      match Int_tbl.find_opt t.inflight seq with
      | None ->
        send_data t ~now ~seq payload;
        Int_tbl.replace t.inflight seq (first_send t ~now)
      | Some fl ->
        retry_due t ~now fl ~seq ~event:"send_failed" (fun () ->
            send_data t ~now ~seq payload;
            Ltree_obs.Causal.note_retry ~seq ~payload;
            (* A stalled record is how an out-of-band replica write
               shows up from this side (the replica re-acks but never
               applies): probe the prefix so divergence surfaces
               instead of burning the retry budget silently. *)
            t.force_handshake <- true)));
    incr seq
  done

let step_handshake t ~now ~acked =
  if
    (t.force_handshake || t.acked_progress >= t.config.handshake_every)
    && Int_tbl.mem t.chains acked
  then begin
    send t ~now
      (Frame.Handshake
         { epoch = Durable_doc.epoch t.store; seq = acked;
           chain = Int_tbl.find t.chains acked });
    t.handshakes_sent <- t.handshakes_sent + 1;
    Ltree_obs.Span.note ~tick:now ~kind:"channel"
      ~attrs:[ ("seq", string_of_int acked) ]
      "handshake_sent";
    t.force_handshake <- false;
    t.acked_progress <- 0
  end

let pump t ~now =
  process_up t ~now;
  ingest t;
  if Option.is_none t.failed then
    match t.acked with
    | None -> step_snapshot t ~now
    | Some acked ->
      if acked < t.chain_top && not (Int_tbl.mem t.retention (acked + 1))
      then step_snapshot t ~now
      else begin
        step_handshake t ~now ~acked;
        step_window t ~now ~acked
      end
