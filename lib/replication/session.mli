(** One primary + one replica wired over injectable channels, driven by
    a shared virtual clock.

    The session owns the tick counter: every pump ({!apply} pumps once,
    {!quiesce} until caught up) advances it once and runs one shipper
    round then one replica round, so an entire
    replication scenario — including channel noise, retries, backoff
    delays, and failover — is a deterministic function of the
    configuration and fault plans.  The counter is also the event
    ring's tick ({!Ltree_obs.Span.set_tick}): notes and causal
    stamps taken without an explicit tick read it.  One subtlety it owns: before a
    primary checkpoint it syncs and pumps the shipper, so the rotation's
    journal truncation never eats records the shipper has not chained
    yet. *)

type config = {
  group_commit : int;  (** primary store group commit *)
  replica_group_commit : int;
  checkpoint_every : int;  (** ops between rotations, both ends *)
  shipper : Shipper.config;
  down_plan : Channel.plan;  (** primary → replica *)
  up_plan : Channel.plan;  (** replica → primary (acks) *)
  attach_pumps : int;  (** bound on the bootstrap loop in [create] *)
}

val default_config : config

type t

(** [create ?config ~primary_io ~primary_dir ~replica_io ~replica_dir
    ldoc] initializes the primary store around [ldoc], builds the
    channels and both endpoints, and runs a bounded attach loop so the
    bootstrap snapshot can land.  May raise
    {!Ltree_recovery.Fault.Crash} when either [io] is armed. *)
val create :
  ?config:config ->
  primary_io:Ltree_recovery.Fault.io ->
  primary_dir:string ->
  replica_io:Ltree_recovery.Fault.io ->
  replica_dir:string ->
  Ltree_doc.Labeled_doc.t ->
  t

(** [apply t entry] applies one operation to the primary and pumps the
    session one tick. *)
val apply : t -> Ltree_doc.Journal.entry -> unit

(** [quiesce ?max_pumps t] syncs the primary and pumps until the
    replica has applied everything (true) or the bound is hit / the
    shipper parked on a typed failure (false). *)
val quiesce : ?max_pumps:int -> t -> bool

(** [failover t] promotes the replica (see {!Replica.promote}). *)
val failover :
  t ->
  ( Ltree_recovery.Durable_doc.report * Ltree_recovery.Durable_doc.t,
    Replica.error )
  result

(** [reconnect t] heals severed channels, clears the shipper's retry
    state, and re-announces the replica. *)
val reconnect : t -> unit

(** [replace_replica ?io ?store t] swaps in a fresh replica endpoint on
    the same channels — the re-attach path after a replica crash:
    recover the store from the surviving files, then pass it (and the
    post-crash [io]) here.  Sends a hello so the shipper resyncs. *)
val replace_replica :
  ?io:Ltree_recovery.Fault.io ->
  ?store:Ltree_recovery.Durable_doc.t ->
  t ->
  Replica.t

(** {1 Inspection} *)

val primary : t -> Ltree_recovery.Durable_doc.t
val replica : t -> Replica.t
val shipper : t -> Shipper.t
val clock : t -> int
val down : t -> Channel.t
val up : t -> Channel.t
val caught_up : t -> bool
