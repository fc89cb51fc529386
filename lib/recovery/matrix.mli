(** The crash-matrix engine.  The store ({!Crash_matrix}), replica
    ([Ltree_replication.Repl_matrix]) and shard
    ([Ltree_shard.Shard_matrix]) matrices are thin instances of it: each
    keeps its profile pass, its cell enumeration and its per-cell
    [eval]; the engine owns everything they share.

    - the five-field config and its validation;
    - the prefix oracle: labels and a content CRC after every prefix of
      an entry list, bit-exact thanks to L-Tree label determinism (paper
      §4.2);
    - {!verify_prefix}, the check of a recovered store against that
      oracle;
    - the crashed-store verdict: {!recover_crashed} recovers a crashed
      disk and judges it, {!check_survivor} judges any surviving store,
      and {!recovery} is the store and shard instances' outcome;
    - the [P<n>/<mode>] coordinate printer and its exact-inverse parser;
    - {!run}, the sweep: [--only] membership, the flight-recorder cell
      events, failure injection, the progress counter, the pool fan-out
      in a fixed cell order, and the failed-cell count. *)

type config = {
  seed : int;  (** seeds the script and every injection choice *)
  ops : int;  (** script length *)
  doc_nodes : int;  (** target size of the base document *)
  group_commit : int;  (** journal records batched per fsync, every store *)
  checkpoint_every : int;  (** ops between snapshot rotations *)
}

(** [validate ?extra config] raises [Invalid_argument] unless [ops],
    [doc_nodes], [group_commit], [checkpoint_every] and every [(name,
    value)] count in [extra] are [>= 1]. *)
val validate : ?extra:(string * int) list -> config -> unit

(** {1 The oracle} *)

(** Every slot's label, in document order. *)
val observe_labels : Ltree_doc.Labeled_doc.t -> int array

val int_array_equal : int array -> int array -> bool

type oracle = {
  labels : int array array;
      (** [labels.(k)]: every slot's label after the [k]-entry prefix *)
  crcs : int array;  (** serialized-content CRC-32 per prefix *)
}

(** [build_oracle start entries] replays [entries] onto [start]
    (mutating it) and records the oracle after every prefix, the empty
    one included. *)
val build_oracle :
  Ltree_doc.Labeled_doc.t -> Ltree_doc.Journal.entry list -> oracle

(** [register_invariants reg ~io ~dir ~expected_labels t] registers the
    three durability invariants over a live store:
    [recovery.journal-checksum-valid] (the on-disk journal scans clean),
    [recovery.snapshot-loadable] (the current generation loads), and
    [recovery.store-matches-oracle-prefix] (the document's labels equal
    [expected_labels ()]). *)
val register_invariants :
  Ltree_analysis.Invariant.registry ->
  io:Fault.io ->
  dir:string ->
  expected_labels:(unit -> int array) ->
  Durable_doc.t ->
  unit

(** [verify_prefix oracle ~io ~dir ~seq t] checks a recovered store
    against the oracle's [seq]-entry prefix: the store sits at [seq],
    its labels and content CRC are bit-identical to the oracle's, and
    {!register_invariants} plus [recovery.doc-consistent] pass at
    [Deep].  Returns the failures; empty means verified. *)
val verify_prefix :
  oracle -> io:Fault.io -> dir:string -> seq:int -> Durable_doc.t ->
  string list

(** {1 The crashed-store verdict} *)

type recovery =
  | Recovered of {
      durable_seq : int;
      attempted : int;  (** ops started before the crash *)
      synced : int;  (** last known-durable seq before the crash *)
      replayed : int;
      dropped : int;
      fault_kinds : string list;  (** damage recovery detected *)
    }
  | Unrecoverable of { fault_kinds : string list }

(** [check_survivor oracle ~io ~dir ~synced ~attempted t] judges a store
    that survived a crash (recovered or promoted): its seq lies in
    [[synced, attempted]] — a crash may lose unsynced operations but
    never synced ones, and never invents any — and {!verify_prefix}
    passes at that seq.  Returns the failures; empty means verified. *)
val check_survivor :
  oracle -> io:Fault.io -> dir:string -> synced:int -> attempted:int ->
  Durable_doc.t -> string list

(** [recover_crashed oracle ~group_commit ~dir ~point ~init_points
    ~synced ~attempted sim] recovers the store under [dir] from the
    files [sim] holds after a crash at write point [point], on a fresh
    sim, and judges it:

    - a store recovery cannot load is a failure unless the crash hit
      initialization (point [<= init_points]) before any operation was
      attempted, i.e. before the first checkpoint ever completed;
    - a recovered store must pass {!check_survivor} as recovered; then
      [then_check] receives the fresh sim's io and the store, which it
      may move on (a replica re-attaches and catches up). *)
val recover_crashed :
  ?then_check:(io:Fault.io -> Durable_doc.t -> string list) ->
  oracle ->
  group_commit:int ->
  dir:string ->
  point:int ->
  init_points:int ->
  synced:int ->
  attempted:int ->
  Fault.sim ->
  recovery * string list

(** {1 Cell coordinates} *)

(** [coord_name c n mode] is ["<c><n>/<mode>"], e.g. ["P37/torn"]. *)
val coord_name : char -> int -> Fault.mode -> string

(** [parse_nat s] is [Some n] when [s] is the canonical decimal
    spelling of [n >= 0]: digits only, no sign, no base prefix, no
    underscore, no leading zero. *)
val parse_nat : string -> int option

(** [parse_coord c s] inverts [coord_name c] exactly: [Some (n, mode)]
    for [n >= 1], [None] for every other string. *)
val parse_coord : char -> string -> (int * Fault.mode) option

(** {1 The sweep} *)

type ('id, 'outcome) cell = {
  id : 'id;
  outcome : 'outcome;
  failures : string list;  (** verification failures; empty means pass *)
}

type ('id, 'outcome) sweep = {
  cells : ('id, 'outcome) cell list;  (** in enumeration order *)
  failed_cells : int;
}

(** Every swept cell verified. *)
val ok : (_, _) sweep -> bool

(** [run ?pool ?progress ?only ?inject ~name ~eval cells] evaluates
    every cell of [cells] (or only [only], which must name one of them)
    and returns them in [cells]' order, serial and pooled alike.

    - [name] is the cell's stable coordinate, printed with every
      failure and accepted back by [--only].
    - [eval id] is the instance's whole per-cell work.  With [pool],
      cells run on several domains at once, so [eval] must own, or
      lock, every piece of mutable state it touches.
    - [progress] is called after each cell, serialized under a mutex,
      with a monotone [done_cells].
    - [inject] forces the named cell to report one synthetic failure,
      indistinguishable downstream from a real one.
    - When {!Ltree_obs.Recorder} is on, each cell notes a [cell] event
      (name = its coordinate) at start and another when it fails.

    Raises [Invalid_argument] when [only] or [inject] names no cell of
    [cells]. *)
val run :
  ?pool:Ltree_exec.Pool.t ->
  ?progress:(done_cells:int -> total:int -> unit) ->
  ?only:'id ->
  ?inject:'id ->
  name:('id -> string) ->
  eval:('id -> 'outcome * string list) ->
  'id array ->
  ('id, 'outcome) sweep
