(** A unidirectional byte channel with scripted failures — the
    replication analogue of {!Ltree_recovery.Fault}'s simulated disk.

    The channel carries opaque byte chunks (the shipper sends whole
    frames; the receiver reassembles lines, so chunk boundaries carry no
    meaning).  Time is the replication session's virtual tick counter:
    [send] timestamps chunks, [drain] releases everything due.  All
    failure behaviour derives from [plan.seed] via
    {!Ltree_workload.Prng}, so any misbehaving run replays exactly.

    Injection uses the shared {!Ltree_recovery.Fault.mode} vocabulary:
    [Clean] drops the chunk; [Torn] delivers a seeded strict prefix;
    [Flip] delivers it with one bit flipped; [Short_read] delivers a
    prefix now and the remainder [delay_ticks] later (reassembly makes
    the stream whole again); [Delay] delivers the whole chunk up to
    [reorder_window] ticks late, letting younger chunks overtake it. *)

type plan = {
  seed : int;
  noise_every : int;  (** inject on every Nth send; [0] = never *)
  noise_modes : Ltree_recovery.Fault.mode list;
      (** candidate modes, seeded pick per injection *)
  delay_ticks : int;  (** lateness of a [Short_read] remainder *)
  reorder_window : int;  (** max lateness of a [Delay]ed chunk *)
  sever_at : (int * Ltree_recovery.Fault.mode) option;
      (** cut the connection at the Nth send (1-based): that chunk is
          damaged per the mode (its delayed parts are lost with the
          connection), the backlog is dropped, and later sends are
          swallowed until {!reconnect} *)
}

val ideal : plan
(** No noise, no sever: every chunk arrives intact, in order, on time. *)

type t

val create : ?plan:plan -> unit -> t

(** [send t ~now bytes] submits one chunk at tick [now].  On a severed
    channel the chunk is silently dropped (and counted). *)
val send : t -> now:int -> string -> unit

(** [drain t ~now] removes and returns every chunk due by tick [now],
    ordered by (delivery tick, send order). *)
val drain : t -> now:int -> string list

(** [sever t ~now] cuts the connection: chunks already due by [now]
    survive (they reached the receiver's buffer), the rest of the
    backlog is lost, and later sends are swallowed until
    {!reconnect}. *)
val sever : t -> now:int -> unit

val severed : t -> bool
val reconnect : t -> unit

type stats = {
  sent : int;  (** chunks accepted by [send] on a live channel *)
  delivered : int;  (** chunks handed out by [drain] *)
  dropped : int;  (** lost outright: [Clean] noise, sever backlog, sends
                      while severed *)
  damaged : int;  (** delivered torn or bit-flipped *)
  delayed : int;  (** split or deferred deliveries *)
}

val stats : t -> stats
