(** A labeled document partitioned into K subtree shards by label
    interval.

    The paper's L-Tree labels give every subtree a contiguous
    [(start, end)] interval, so a document partitions cleanly on
    top-level subtree boundaries: shard [p] owns a contiguous run of
    the root's children, and the shards' intervals tile the document.
    Each shard is a full vertical slice — its own {!Ltree_doc.Labeled_doc}
    (hence its own L-Tree), rel-store and {!Ltree_relstore.Label_index},
    and its own {!Ltree_recovery.Durable_doc} journal on its own
    fault-sim disk — so parallel plans over different shards share no
    mutable state, and a crash takes down exactly one shard's store.

    A {e router} twin of the whole document is the authority for global
    coordinates: journal entries address nodes by router label, query
    results are reported as router Dom ids, and per-shard label
    intervals drive an O(log S) routing lookup.  Sharded query plans
    are {e byte-identical} to the same plans over the router's own
    unsharded store (the [unsharded_*] functions), at every K and every
    pool size — the harness invariant [shard.plans-agree].

    A rebalance pass ({!maybe_rebalance}) splits a shard whose live
    size crosses a density threshold, seeding the new shard's store
    with a snapshot copy of the dense one. *)

type t

(** [create ?params ?group_commit ?sim_for ~shards:k doc] labels [doc]
    as the router twin and splits its top-level subtrees into [k]
    near-even contiguous shards.  [sim_for sid] supplies each shard's
    simulated disk (default: fresh unarmed sims) — the shard crash
    matrix arms exactly one.  [group_commit] (default 4) applies to
    every shard journal.  Raises [Invalid_argument] when [k < 1] or
    [doc] has no root. *)
val create :
  ?params:Ltree_core.Params.t ->
  ?group_commit:int ->
  ?sim_for:(int -> Ltree_recovery.Fault.sim) ->
  shards:int ->
  Ltree_xml.Dom.document ->
  t

(** {1 Inspection} *)

val nshards : t -> int

(** The router twin — the whole document, globally labeled. *)
val router : t -> Ltree_doc.Labeled_doc.t

val shard_sim : t -> int -> Ltree_recovery.Fault.sim
val shard_durable : t -> int -> Ltree_recovery.Durable_doc.t
val shard_ldoc : t -> int -> Ltree_doc.Labeled_doc.t

(** [routed ?within t] is the shard positions a query window (router
    labels, inclusive; default the whole document) routes to, via the
    interval tables.  Empty shards are skipped; when the window covers
    only the root's own label, one stand-in shard answers for it. *)
val routed : ?within:int * int -> t -> int list

(** {1 Writes}

    Entries carry {e router} (global) anchors — exactly what an
    unsharded {!Ltree_recovery.Durable_doc} would take. *)

(** [apply t entry] routes the entry to its owning shard's group
    commit (translated to the shard's local anchor), then applies the
    global entry to the router twin.  A {!Ltree_recovery.Fault.Crash}
    out of the shard's journal leaves the router un-applied for that
    entry, so survivors sit at a well-defined global prefix.  Raises
    {!Ltree_doc.Journal.Replay_error} when the anchor resolves to no
    node. *)
val apply : t -> Ltree_doc.Journal.entry -> unit

(** [set_local_entry_hook t hook] installs [hook sid local_entry],
    called just before each shard-local apply — the shard crash matrix
    uses it to learn every shard's local script and attempted count. *)
val set_local_entry_hook : t -> (int -> Ltree_doc.Journal.entry -> unit) option -> unit

(** Force every shard's group-commit buffer out. *)
val sync : t -> unit

(** Rotate every shard's snapshot (implies {!sync}). *)
val checkpoint : t -> unit

(** {1 Query plans}

    Every sharded plan runs as one [Pool.map] with one task per routed
    shard: the task runs the serial snapshot driver
    ({!Ltree_exec.Read_snapshot.run}) over that shard's frozen
    snapshot, which already holds router Dom ids, leaving them unsorted
    in the shard's reused workspace.  The caller appends the columns
    into one, sorts and deduplicates it once, and lists it — one sorted
    list of router ids.  [?within]
    filters results to a router-label window (applied identically to
    the unsharded reference plans, so the two stay byte-identical). *)

val descendants :
  ?counters:Ltree_metrics.Counters.t ->
  ?within:int * int ->
  t -> Ltree_exec.Pool.t -> anc:string -> desc:string -> int list

val children :
  ?counters:Ltree_metrics.Counters.t ->
  ?within:int * int ->
  t -> Ltree_exec.Pool.t -> parent:string -> child:string -> int list

val descendants_inl :
  ?counters:Ltree_metrics.Counters.t ->
  ?within:int * int ->
  t -> Ltree_exec.Pool.t -> anc:string -> desc:string -> int list

val path :
  ?counters:Ltree_metrics.Counters.t ->
  ?within:int * int ->
  t -> Ltree_exec.Pool.t -> string list -> int list

(** [descendants_batch t pool queries] fans {e shard x query} tasks
    across the pool in one [Pool.map] — tasks on different shards join
    over disjoint frozen snapshots, so a hot tag no longer serializes
    on one shared index.  Query [i]'s task writes its shard's buffer
    slot [i], kept for later batches.  Per-query sorted router ids,
    index-aligned with [queries]; each query's comparisons are recorded
    once, summed over its shards. *)
val descendants_batch :
  ?within:int * int ->
  t -> Ltree_exec.Pool.t -> (string * string) array -> int list array

(** {1 Unsharded reference plans}

    The same plans over a snapshot of the router's own single store,
    run by the same driver as one pooled task
    ({!Ltree_exec.Read_snapshot.run_batch}) — the one-task, K = 1 case
    of the fan-out.  The sharded plans must match it byte-for-byte; it
    shares their kernels, so the harness checks it separately against
    independent oracles. *)

val unsharded_descendants :
  ?counters:Ltree_metrics.Counters.t ->
  ?within:int * int ->
  t -> Ltree_exec.Pool.t -> anc:string -> desc:string -> int list

val unsharded_children :
  ?counters:Ltree_metrics.Counters.t ->
  ?within:int * int ->
  t -> Ltree_exec.Pool.t -> parent:string -> child:string -> int list

val unsharded_descendants_inl :
  ?counters:Ltree_metrics.Counters.t ->
  ?within:int * int ->
  t -> Ltree_exec.Pool.t -> anc:string -> desc:string -> int list

val unsharded_path :
  ?counters:Ltree_metrics.Counters.t ->
  ?within:int * int ->
  t -> Ltree_exec.Pool.t -> string list -> int list

val unsharded_descendants_batch :
  ?within:int * int ->
  t -> Ltree_exec.Pool.t -> (string * string) array -> int list array

(** {1 Rebalance} *)

(** [maybe_rebalance ?threshold ?on_phase t] splits the first shard
    whose live slot count exceeds [threshold] (default 2.0) times the
    mean and that owns at least two top-level subtrees.  Returns
    whether a split ran; each split is also counted in the
    [shard_rebalances] registry counter.

    The split cuts the shard at a node-count-balanced point: its
    journal is flushed, a fresh store on the new shard's disk is
    initialized from a snapshot copy of its document (labels
    included), and each side journals deletes of the subtrees the
    other keeps.  Routing state mutates only at the final commit;
    [on_phase] is called with ["copy"] and ["trim"] while queries still
    see the intact pre-split layout, and with ["commit"] once the new
    layout is fully committed — plans agree at every phase. *)
val maybe_rebalance : ?threshold:float -> ?on_phase:(string -> unit) -> t -> bool

(** {1 Invariants} *)

(** [check t] verifies every shard's read snapshot (flushed and
    refreshed first if stale) against the live state: each row's id is
    the router translation of its label row's {e current} local id, and
    names a live router node carrying the entry's tag at the row's
    level.  Raises [Failure] on the first violation. *)
val check : t -> unit
