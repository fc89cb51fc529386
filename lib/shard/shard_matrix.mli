(** The shard-level crash matrix: run the whole sharded stack
    ({!Sharded_doc}), kill exactly {e one} shard's disk at every one of
    its write points in every damage mode, recover that shard {e alone}
    from its surviving files, and verify the whole document — the
    recovered shard against its local oracle at the durable prefix,
    every sibling shard at its full applied prefix, and the router twin
    at the global prefix of completed operations.  An instance of
    {!Ltree_recovery.Matrix}.  Everything derives from the config seed:
    the global script is {!Ltree_recovery.Crash_matrix.generate_script}'s
    (global anchors route through the sharded store unchanged);
    per-shard local scripts and write-point counts are learned from one
    clean profile run. *)

type config = {
  matrix : Ltree_recovery.Matrix.config;
      (** [ops] is the global script length; [checkpoint_every] counts
          global ops between all-shard rotations; [group_commit] is per
          shard *)
  shards : int;
}

(** [{matrix = {seed = 42; ops = 120; doc_nodes = 100; group_commit = 4;
    checkpoint_every = 24}; shards = 3}] *)
val default_config : config

(** {1 Results} *)

(** A cell: shard x write point within that shard's own disk x mode. *)
type id = int * int * Ltree_recovery.Fault.mode

type outcome =
  | Recovered of {
      durable_seq : int;
      attempted : int;  (** local ops the shard started before the crash *)
      synced : int;  (** last known-durable local seq before the crash *)
      fault_kinds : string list;
    }
  | Unrecoverable of { fault_kinds : string list }

(** [cell_name id] is the cell's stable coordinate,
    [S<shard>/P<point>/<mode>] — e.g. [S1/P37/torn]. *)
val cell_name : id -> string

(** [parse_cell s] is the exact inverse of {!cell_name}. *)
val parse_cell : string -> id option

type summary = {
  config : config;
  total_points : int array;  (** per-shard write points, clean run *)
  init_points : int array;
      (** per-shard points consumed by initialization alone *)
  sweep : (id, outcome) Ltree_recovery.Matrix.sweep;
}

(** [run ?pool ?progress ?only config] sweeps shard x point x mode
    through {!Ltree_recovery.Matrix.run}.  [only] restricts the sweep
    to one cell — the profile pass still runs, so the cell replays
    against the same numbering as the full matrix.  Raises
    [Invalid_argument] for an invalid config (any count, [shards]
    included, below 1) or an [only] outside the matrix. *)
val run :
  ?pool:Ltree_exec.Pool.t ->
  ?progress:(done_cells:int -> total:int -> unit) ->
  ?only:id ->
  config ->
  summary
