(** The sending end of journal shipping: tails the primary's journal
    and streams records to a replica over a {!Channel}, with bounded
    retry, exponential backoff, and per-record deadlines.

    The shipper is read-only on the journal (it folds newly appended
    records into an in-memory retention map and prefix-CRC chain on
    every pump).  It tails from a byte cursor: each pump parses only the
    bytes appended since the last one, and rescans from the header only
    when {!Ltree_recovery.Durable_doc.generation} says a checkpoint
    rewrote the journal, or the file is shorter than the cursor.  The
    only time it writes through the primary store is a
    snapshot catch-up, which may force a checkpoint so the shipped file
    covers everything the replica is missing.  Acks are cumulative; a
    replica hello overrides them (the replica may legitimately regress
    after recovering from its own disk).  When a record exhausts its
    retry budget or deadline the shipper parks in a typed [failed]
    state — it stops sending, keeps accounting, and resumes only on
    {!reset} (after a channel {!Channel.reconnect}) or a replica
    hello. *)

type config = {
  policy : Backoff.policy;
  window : int;  (** max unacked data frames in flight *)
  handshake_every : int;
      (** send a divergence handshake after this many newly acked
          records (and once after every hello) *)
}

val default_config : config
(** [{policy = Backoff.default_policy; window = 16; handshake_every = 8}] *)

type error = Send_failed of { seq : int; reason : Backoff.error }

val pp_error : Format.formatter -> error -> unit

type t

(** [create ~io ~dir ~store ~down ~up ?config ()] ships [store]'s
    journal (rooted at [dir], read via [io]) over [down], hearing acks
    on [up].  The chain anchors at the store's current snapshot. *)
val create :
  io:Ltree_recovery.Fault.io ->
  dir:string ->
  store:Ltree_recovery.Durable_doc.t ->
  down:Channel.t ->
  up:Channel.t ->
  ?config:config ->
  unit ->
  t

(** [pump t ~now] runs one shipping round: process acks/hellos, ingest
    newly appended journal records, then either advance the send window
    (data + handshakes) or ship a snapshot when the replica needs
    records that are no longer retained.  May raise
    {!Ltree_recovery.Fault.Crash} out of a forced checkpoint when the
    primary's [io] is armed — the primary-crash cell of the matrix. *)
val pump : t -> now:int -> unit

(** [failed t] is the typed send failure the shipper is parked on, if
    any. *)
val failed : t -> error option

(** [reset t] clears the failure and all retry state; the next {!pump}
    starts the window fresh.  Call after reconnecting the channels. *)
val reset : t -> unit

type stats = {
  frames_sent : int;
  retries : int;
  backoff_ticks : int;  (** total delay imposed by backoff *)
  snapshots_sent : int;
  handshakes_sent : int;
  acks_seen : int;
  hellos_seen : int;
  bad_frames : int;  (** undecodable or wrong-direction frames on [up] *)
  scanned_bytes : int;
      (** journal bytes read by ingest scans: about the bytes appended,
          plus one header per rotation *)
}

val stats : t -> stats
