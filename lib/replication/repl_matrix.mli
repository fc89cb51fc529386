(** The replica-level crash matrix: the {!Ltree_recovery.Crash_matrix}
    discipline lifted to a replicated pair, as an instance of
    {!Ltree_recovery.Matrix}.

    One matrix run shares a seeded script and bit-exact oracle with the
    store-level matrix (same generator, same prefix labels and CRCs —
    L-Tree label determinism, paper §4.2), then sweeps three sites of
    failure, each in every {!Ltree_recovery.Fault.mode}:

    - {b primary} cells kill the primary's store at every write point;
      the replica is promoted ({!Session.failover}) and the survivor
      must be a bit-exact oracle prefix no longer than what the primary
      attempted, at a higher epoch;
    - {b replica} cells kill the replica's store at every one of {e its}
      write points; it recovers from its own surviving files,
      re-attaches ({!Session.replace_replica}), finishes the script and
      must converge to the full oracle — total loss is accepted only
      before the bootstrap snapshot landed;
    - {b channel} cells sever the record stream at every chunk (the cut
      chunk damaged per the mode); after {!Session.reconnect} the
      replica must fully resync;

    plus one divergence probe: a rogue write into the replica's store
    outside the stream must be detected, and reads and promotion must
    refuse.

    Everything derives from [config.seed], so any failing cell replays
    exactly via [--only]. *)

type id =
  | Primary_cell of int * Ltree_recovery.Fault.mode
      (** primary write point *)
  | Replica_cell of int * Ltree_recovery.Fault.mode
      (** replica write point *)
  | Channel_cell of int * Ltree_recovery.Fault.mode
      (** 1-based down-channel send *)
  | Divergence_probe

(** [cell_name id] is the cell's stable coordinate —
    ["primary:P12/torn"], ["replica:P5/clean"], ["channel:C9/flip"] or
    ["probe:divergence"] — printed with every failure and accepted back
    by [--only]. *)
val cell_name : id -> string

(** [parse_cell s] is the exact inverse of {!cell_name}. *)
val parse_cell : string -> id option

type outcome =
  | Promoted of { applied : int; attempted : int }
  | Reattached of { recovered_seq : int; resumed_from : int }
  | Resynced
  | No_pair
      (** the primary died before the pair finished establishing *)
  | Lost of { fault_kinds : string list }
      (** the replica's store was unrecoverable (pre-bootstrap only) *)
  | Diverged_detected
  | Incomplete of { detail : string }  (** the cell never reached its
                                           verdict — always a failure *)

type summary = {
  config : Ltree_recovery.Matrix.config;
  primary_points : int;  (** primary write points in one clean run *)
  primary_init_points : int;  (** consumed by session establishment *)
  replica_points : int;
  replica_init_points : int;  (** consumed by the bootstrap install *)
  channel_sends : int;  (** down-channel chunks in one clean run *)
  sweep : (id, outcome) Ltree_recovery.Matrix.sweep;
}

(** [describe s] is a one-line human summary of the sweep. *)
val describe : summary -> string

(** [run ?pool ?progress ?only ?inject config] executes the sweep
    through {!Ltree_recovery.Matrix.run}.  Cells are independent (each
    owns its sims, channels, and both stores).  [only] restricts the
    sweep to one cell — the profile pass still runs, so the cell
    replays against the exact write-point and send numbering of the
    full matrix.  [inject] is the hook behind [--inject-cell-failure],
    used to exercise the flight-recorder bundle path.  Raises
    [Invalid_argument] for an invalid config or an [only] outside the
    profiled matrix. *)
val run :
  ?pool:Ltree_exec.Pool.t ->
  ?progress:(done_cells:int -> total:int -> unit) ->
  ?only:id ->
  ?inject:id ->
  Ltree_recovery.Matrix.config ->
  summary
