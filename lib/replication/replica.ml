module Int_tbl = Ltree_metrics.Int_tbl
module Fault = Ltree_recovery.Fault
module Durable_doc = Ltree_recovery.Durable_doc
module Journal = Ltree_doc.Journal

(* How many chain links back from [applied] the memo keeps: late
   handshakes (a [Delay]ed H frame) must still find their link, so this
   comfortably exceeds any channel reorder window. *)
let chain_window = 512

type divergence =
  | Chain_mismatch of { at_seq : int; want : int; got : int }
  | Missing_chain of { at_seq : int }
  | Apply_rejected of { at_seq : int; detail : string }

let pp_divergence ppf = function
  | Chain_mismatch { at_seq; want; got } ->
    Format.fprintf ppf
      "prefix CRC chain mismatch at seq %d (primary %08x, replica %08x)"
      at_seq want got
  | Missing_chain { at_seq } ->
    Format.fprintf ppf
      "no replication chain at seq %d though it is applied — a write \
       reached the replica store outside the stream"
      at_seq
  | Apply_rejected { at_seq; detail } ->
    Format.fprintf ppf "record %d rejected on apply: %s" at_seq detail

type error =
  | Not_bootstrapped
  | Stale of { lag : int; max_lag : int }
  | Diverged of divergence
  | Promote_failed of Durable_doc.fault list

let pp_error ppf = function
  | Not_bootstrapped ->
    Format.fprintf ppf "replica not bootstrapped (no snapshot installed)"
  | Stale { lag; max_lag } ->
    Format.fprintf ppf "replica stale: %d records behind (max allowed %d)" lag
      max_lag
  | Diverged d -> Format.fprintf ppf "replica diverged: %a" pp_divergence d
  | Promote_failed faults ->
    Format.fprintf ppf "promotion failed:";
    List.iter (fun f -> Format.fprintf ppf " %a;" Durable_doc.pp_fault f)
      faults

type stats = {
  applied_frames : int;
  dup_frames : int;
  bad_frames : int;
  stashed : int;
  stale_frames : int;
  snapshots_installed : int;
  handshakes : int;
  install_failures : int;
}

type t = {
  io : Fault.io;
  dir : string;
  group_commit : int;
  checkpoint_every : int;
  inbox : Channel.t;
  outbox : Channel.t;
  buf : Frame.Assembler.asm;
  chains : int Int_tbl.t;
  stash : string Int_tbl.t;
  stash_cap : int;
  mutable store : Durable_doc.t option;
  mutable primary_epoch : int;
  mutable hwm : int;
  mutable applied_since_ckpt : int;
  mutable diverged : divergence option;
  mutable promoted : bool;
  mutable applied_frames : int;
  mutable dup_frames : int;
  mutable bad_frames : int;
  mutable stashed : int;
  mutable stale_frames : int;
  mutable snapshots_installed : int;
  mutable handshakes : int;
  mutable install_failures : int;
}

let create ~io ~dir ?(group_commit = 1) ?(checkpoint_every = 32) ?store
    ~inbox ~outbox () =
  if group_commit < 1 then invalid_arg "Replica.create: group_commit < 1";
  if checkpoint_every < 1 then
    invalid_arg "Replica.create: checkpoint_every < 1";
  {
    io;
    dir;
    group_commit;
    checkpoint_every;
    inbox;
    outbox;
    buf = Frame.Assembler.create ();
    chains = Int_tbl.create 64;
    stash = Int_tbl.create 16;
    stash_cap = 64;
    store;
    primary_epoch = 0;
    hwm = 0;
    applied_since_ckpt = 0;
    diverged = None;
    promoted = false;
    applied_frames = 0;
    dup_frames = 0;
    bad_frames = 0;
    stashed = 0;
    stale_frames = 0;
    snapshots_installed = 0;
    handshakes = 0;
    install_failures = 0;
  }

let store t = t.store
let diverged t = t.diverged

let applied_seq t =
  match t.store with None -> None | Some s -> Some (Durable_doc.last_seq s)

let lag t =
  match applied_seq t with
  | None -> None
  | Some a -> Some (Int.max 0 (t.hwm - a))

let stats t =
  {
    applied_frames = t.applied_frames;
    dup_frames = t.dup_frames;
    bad_frames = t.bad_frames;
    stashed = t.stashed;
    stale_frames = t.stale_frames;
    snapshots_installed = t.snapshots_installed;
    handshakes = t.handshakes;
    install_failures = t.install_failures;
  }

let hello t ~now =
  let seq = match applied_seq t with None -> -1 | Some a -> a in
  Channel.send t.outbox ~now
    (Frame.encode (Hello { epoch = t.primary_epoch; seq }))

let read ?max_lag t f =
  match t.diverged with
  | Some d -> Error (Diverged d)
  | None -> (
    match t.store with
    | None -> Error Not_bootstrapped
    | Some s -> (
      let l = Int.max 0 (t.hwm - Durable_doc.last_seq s) in
      match max_lag with
      | Some m when l > m -> Error (Stale { lag = l; max_lag = m })
      | _ -> Ok (f (Durable_doc.ldoc s))))

let maybe_checkpoint t s =
  if t.applied_since_ckpt >= t.checkpoint_every then begin
    Durable_doc.checkpoint s;
    t.applied_since_ckpt <- 0
  end

(* Divergence verdicts feed the flight recorder before they park the
   replica: the bundle should show why the stream stopped. *)
let set_diverged t d =
  Ltree_obs.Span.note ~kind:"recovery"
    ~attrs:[ ("detail", Format.asprintf "%a" pp_divergence d) ]
    "diverged";
  t.diverged <- Some d

(* Apply the next-in-order record; caller guarantees [seq = applied + 1]
   and that the chain holds a link at [applied].  An entry that does not
   decode, or whose fragment does not parse, is rejected like one whose
   anchor does not resolve. *)
let apply_one t s ~now ~seq ~payload =
  let prev = Int_tbl.find t.chains (seq - 1) in
  let reject detail =
    set_diverged t (Apply_rejected { at_seq = seq; detail })
  in
  match
    Ltree_obs.Span.with_ ~name:"repl.apply" (fun () ->
        Durable_doc.apply s (Journal.decode_entry payload))
  with
  | () ->
    Ltree_obs.Causal.stamp ~tick:now Ltree_obs.Causal.Apply ~seq ~payload;
    Int_tbl.replace t.chains seq (Chain.extend ~prev ~seq ~payload);
    Int_tbl.drop_below t.chains (seq - chain_window);
    t.applied_frames <- t.applied_frames + 1;
    t.applied_since_ckpt <- t.applied_since_ckpt + 1;
    maybe_checkpoint t s
  | exception Journal.Corrupt detail -> reject detail
  | exception Journal.Replay_error { what; anchor } ->
    reject (Printf.sprintf "%s anchor %d does not resolve" what anchor)

let rec drain_stash t s ~now =
  match t.diverged with
  | Some _ -> ()
  | None ->
    let applied = Durable_doc.last_seq s in
    Int_tbl.drop_below t.stash (applied + 1);
    if Int_tbl.mem t.chains applied then (
      match Int_tbl.find_opt t.stash (applied + 1) with
      | None -> ()
      | Some payload ->
        Int_tbl.remove t.stash (applied + 1);
        apply_one t s ~now ~seq:(applied + 1) ~payload;
        drain_stash t s ~now)

(* Returns [true] when the frame advanced or confirmed replica state
   and an ack should go out this pump. *)
let on_data t ~now ~hwm ~seq ~payload =
  t.hwm <- Int.max t.hwm hwm;
  Ltree_obs.Causal.stamp ~tick:now Ltree_obs.Causal.Deliver ~seq ~payload;
  match t.store with
  | None -> false
  | Some s ->
    let applied = Durable_doc.last_seq s in
    if seq <= applied then begin
      t.dup_frames <- t.dup_frames + 1;
      true
    end
    else if seq = applied + 1 && Int_tbl.mem t.chains applied then begin
      apply_one t s ~now ~seq ~payload;
      (match t.diverged with None -> drain_stash t s ~now | Some _ -> ());
      Option.is_none t.diverged
    end
    else begin
      (* A gap, or no chain link yet at [applied] (fresh after replica
         recovery, handshake anchor still in flight): hold the record
         for in-order apply, bounded. *)
      if
        seq > applied
        && Int_tbl.length t.stash < t.stash_cap
        && not (Int_tbl.mem t.stash seq)
      then begin
        Int_tbl.replace t.stash seq payload;
        t.stashed <- t.stashed + 1
      end;
      false
    end

let journal_file = "journal"
let snapshot_file = "snapshot"

let on_snapshot t ~now ~base_seq ~chain ~data =
  match t.store with
  | Some s when Durable_doc.last_seq s >= base_seq ->
    t.dup_frames <- t.dup_frames + 1;
    true
  | _ ->
    let snapshot_path = Filename.concat t.dir snapshot_file in
    let journal_path = Filename.concat t.dir journal_file in
    t.io.Fault.write_file snapshot_path data;
    if t.io.Fault.file_exists journal_path then
      t.io.Fault.remove_file journal_path;
    (match
       Durable_doc.recover ~io:t.io ~group_commit:t.group_commit ~dir:t.dir
         ()
     with
    | Ok (_report, s) ->
      t.store <- Some s;
      Int_tbl.reset t.chains;
      Int_tbl.replace t.chains base_seq chain;
      t.applied_since_ckpt <- 0;
      t.snapshots_installed <- t.snapshots_installed + 1;
      Ltree_obs.Span.note ~tick:now ~kind:"recovery"
        ~attrs:[ ("base_seq", string_of_int base_seq) ]
        "snapshot_installed";
      drain_stash t s ~now;
      Option.is_none t.diverged
    | Error (_ : Durable_doc.fault list) ->
      t.install_failures <- t.install_failures + 1;
      Ltree_obs.Span.note ~tick:now ~kind:"recovery"
        ~attrs:[ ("base_seq", string_of_int base_seq) ]
        "snapshot_install_failed";
      false)

let on_handshake t ~now ~seq ~chain:want =
  t.handshakes <- t.handshakes + 1;
  match t.store with
  | None -> ()
  | Some s -> (
    let applied = Durable_doc.last_seq s in
    match Int_tbl.find_opt t.chains seq with
    | Some got ->
      if got <> want then
        set_diverged t (Chain_mismatch { at_seq = seq; want; got })
    | None ->
      if Int_tbl.length t.chains = 0 && seq = applied then begin
        (* Anchor adoption: the replica just recovered from its own
           disk and lost the in-memory chain; the primary's link at
           exactly our applied seq re-establishes it. *)
        Int_tbl.replace t.chains seq want;
        match t.store with Some s -> drain_stash t s ~now | None -> ()
      end
      else if seq <= applied && seq >= applied - chain_window then
        (* We claim to have applied [seq] yet hold no link for it:
           some write bypassed the stream. *)
        set_diverged t (Missing_chain { at_seq = seq }))

(* A frame from an older primary epoch is stale; a newer epoch is
   adopted. *)
let current_epoch t epoch =
  if epoch < t.primary_epoch then begin
    t.stale_frames <- t.stale_frames + 1;
    false
  end
  else begin
    t.primary_epoch <- Int.max t.primary_epoch epoch;
    true
  end

let on_frame t ~now frame =
  match (frame : Frame.t) with
  | Data { epoch; hwm; seq; payload } ->
    current_epoch t epoch && on_data t ~now ~hwm ~seq ~payload
  | Snapshot { epoch; base_seq; chain; data } ->
    current_epoch t epoch && on_snapshot t ~now ~base_seq ~chain ~data
  | Handshake { epoch; seq; chain } ->
    if current_epoch t epoch then on_handshake t ~now ~seq ~chain;
    false
  | Ack _ | Hello _ ->
    (* Upstream-direction frames have no business on the inbox. *)
    t.bad_frames <- t.bad_frames + 1;
    false

let pump t ~now =
  let lines = Frame.Assembler.feed t.buf (Channel.drain t.inbox ~now) in
  if not t.promoted then begin
    let ack_due = ref false in
    List.iter
      (fun line ->
        match t.diverged with
        | Some _ -> ()
        | None -> (
          match Frame.decode line with
          | Error (_ : Frame.error) -> t.bad_frames <- t.bad_frames + 1
          | Ok frame -> if on_frame t ~now frame then ack_due := true))
      lines;
    (* The lag sample, for [repl_lag_records]: a traced-only point. *)
    (if Ltree_obs.Span.enabled () then
       match lag t with
       | Some l ->
         Ltree_obs.Span.event ~attrs:[ ("records", string_of_int l) ]
           "repl.lag"
       | None -> ());
    if !ack_due then
      match applied_seq t with
      | Some seq ->
        Channel.send t.outbox ~now
          (Frame.encode (Ack { epoch = t.primary_epoch; seq }))
      | None -> ()
  end

let promote t =
  match t.diverged with
  | Some d -> Error (Diverged d)
  | None -> (
    match t.store with
    | None -> Error Not_bootstrapped
    | Some s -> (
      t.promoted <- true;
      Int_tbl.reset t.stash;
      Durable_doc.sync s;
      match
        Durable_doc.recover ~io:t.io ~group_commit:t.group_commit ~dir:t.dir
          ()
      with
      | Ok (report, fresh) ->
        t.store <- Some fresh;
        Ok (report, fresh)
      | Error faults -> Error (Promote_failed faults)))
