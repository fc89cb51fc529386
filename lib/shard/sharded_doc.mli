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
    size crosses a density threshold, migrating its journal to the new
    shard over the {!Ltree_replication} shipping machinery. *)

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

(** Shard [p]'s boundary positions among the root's children:
    [cuts.(p) .. cuts.(p+1)) ] (a copy; length [nshards + 1]). *)
val cuts : t -> int array

(** Splits performed by {!split}/{!maybe_rebalance} so far. *)
val rebalances : t -> int

val shard_sid : t -> int -> int
val shard_sim : t -> int -> Ltree_recovery.Fault.sim
val shard_durable : t -> int -> Ltree_recovery.Durable_doc.t
val shard_ldoc : t -> int -> Ltree_doc.Labeled_doc.t

(** [shard_snapshot t p] is shard [p]'s read snapshot, flushed and
    refreshed first if stale.  Its slices' ids are {e router} Dom ids
    and its levels are router levels; its label columns are
    shard-local. *)
val shard_snapshot : t -> int -> Ltree_exec.Read_snapshot.t

(** [owner_of_anchor t anchor] is the shard position the node at router
    label [anchor] lives in; [None] for unused labels and for the root
    (which is cloned into every shard). *)
val owner_of_anchor : t -> int -> int option

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

(** [split ?on_phase t p] splits shard [p] (which must own at least two
    top-level subtrees) at a node-count-balanced point: the shard's
    store is shipped over ideal replication channels to a fresh
    replica, the replica is promoted, and each side journals deletes
    of the subtrees the other keeps.  Routing state mutates only at
    the final commit; [on_phase] is called with ["ship"] and ["trim"]
    while queries still see the intact pre-split layout, and with
    ["commit"] once the new layout is fully committed — plans agree at
    every phase. *)
val split : ?on_phase:(string -> unit) -> t -> int -> unit

(** [maybe_rebalance ?threshold t] splits the first shard whose live
    slot count exceeds [threshold] (default 2.0) times the mean and
    that owns at least two subtrees.  Returns whether a split ran.
    Also counted in the [shard_rebalances] registry counter. *)
val maybe_rebalance : ?threshold:float -> ?on_phase:(string -> unit) -> t -> bool
