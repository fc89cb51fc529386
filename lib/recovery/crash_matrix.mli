(** The deterministic crash matrix: kill the durable store at {e every}
    write point, in every corruption mode, recover, and check the result
    against a bit-exact in-memory oracle.  An instance of {!Matrix}.

    One matrix run is: generate a seeded operation script; replay it
    pristine to record the {!Matrix.oracle}; run the workload once
    uninjected to learn the number of write points [P]; then for each
    point [1..P] and each {!Fault.mode}, run the workload with that
    crash scripted, and judge the surviving files with
    {!Matrix.recover_crashed}:

    - the durable prefix lies in [[synced, attempted]] — group commit
      may lose unflushed tail operations but never synced ones — and
      passes {!Matrix.verify_prefix}: bit-identical labels, content
      checksum, the full invariant registry at [Deep];
    - total loss of the store is accepted only for crashes before the
      very first checkpoint completed;
    - and, this instance's own check, descendant queries over a
      re-shredded recovered store agree with both their baseline plan
      and a from-scratch shred of the oracle prefix.

    Everything — script, injection choices, write points — derives from
    [config.seed], so any failing cell replays exactly. *)

val default_config : Matrix.config
(** [{seed = 42; ops = 200; doc_nodes = 120; group_commit = 4;
    checkpoint_every = 32}] *)

(** {1 Pieces shared with the replica and shard matrices} *)

(** [base_doc config] is the seeded base document every run of a
    matrix starts from. *)
val base_doc : Matrix.config -> Ltree_xml.Dom.document

(** [base_ldoc config] labels a fresh {!base_doc}. *)
val base_ldoc : Matrix.config -> Ltree_doc.Labeled_doc.t

(** [generate_script config] is the seeded operation list; every entry's
    anchor is valid at its position. *)
val generate_script : Matrix.config -> Ltree_doc.Journal.entry list

(** {1 Results} *)

(** A cell: write point x damage mode. *)
type id = int * Fault.mode

(** [cell_name id] is the cell's stable coordinate, [P<point>/<mode>]
    (e.g. ["P37/torn"]) — printed with every failure and accepted back
    by [--only]. *)
val cell_name : id -> string

(** [parse_cell s] is the exact inverse of {!cell_name}. *)
val parse_cell : string -> id option

type summary = {
  config : Matrix.config;
  total_points : int;  (** write points in one uninjected run *)
  init_points : int;  (** points consumed by store initialization *)
  fault_counts : (string * int) list;
      (** {!Durable_doc.fault_kind} tally across all recoveries *)
  sweep : (id, Matrix.recovery) Matrix.sweep;
      (** [3 * total_points] cells ([1] under [only]) *)
}

(** [run ?pool ?progress ?only ?inject config] executes the matrix
    through {!Matrix.run}.  [only] restricts the sweep to one cell — the
    profile pass still runs, so the cell replays against the exact same
    script and write-point numbering as the full matrix.  [inject] is
    the hook behind [--inject-cell-failure].  Raises [Invalid_argument]
    for an invalid config, or an [only] or [inject] outside the
    matrix. *)
val run :
  ?pool:Ltree_exec.Pool.t ->
  ?progress:(done_cells:int -> total:int -> unit) ->
  ?only:id ->
  ?inject:id ->
  Matrix.config ->
  summary
