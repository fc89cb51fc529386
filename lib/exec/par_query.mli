(** Parallel structural-join plans over a frozen {!Read_snapshot}.

    Each plan shards the output-driving join input into fixed chunks,
    fans the chunks across a {!Pool}, and concatenates per-chunk emit
    buffers in chunk order, so results are element-for-element
    identical to the serial plans in {!Ltree_relstore.Query} for every
    pool size (including 1).  Workers touch only the immutable
    snapshot and per-chunk scratch counters.

    Every plan calls {!Read_snapshot.ensure_fresh} first and therefore
    raises {!Read_snapshot.Stale} rather than answer from outdated
    arrays.  Comparisons are aggregated into [?counters] (when given)
    and into the shared [query_join_comparisons] histogram. *)

(** [descendants pool snap ~anc ~desc] is the parallel [anc//desc]
    plan; sorted Dom ids, equal to
    [Query.label_descendants]. *)
val descendants :
  ?counters:Ltree_metrics.Counters.t ->
  Pool.t -> Read_snapshot.t -> anc:string -> desc:string -> int list

(** Parallel [parent/child] (level-filtered join); equal to
    [Query.label_children]. *)
val children :
  ?counters:Ltree_metrics.Counters.t ->
  Pool.t -> Read_snapshot.t -> parent:string -> child:string -> int list

(** Parallel index-nested-loop [anc//desc], sharded by ancestors;
    equal to [Query.label_descendants_inl]. *)
val descendants_inl :
  ?counters:Ltree_metrics.Counters.t ->
  Pool.t -> Read_snapshot.t -> anc:string -> desc:string -> int list

(** Parallel multi-step descendant path [t1//t2//…//tk]; equal to
    [Query.label_path]. *)
val path :
  ?counters:Ltree_metrics.Counters.t ->
  Pool.t -> Read_snapshot.t -> string list -> int list

(** [descendants_batch pool snap queries] fans whole queries across the
    pool (one task per query, each joined serially in its worker) and
    returns per-query sorted Dom ids, index-aligned with [queries]. *)
val descendants_batch :
  ?counters:Ltree_metrics.Counters.t ->
  Pool.t -> Read_snapshot.t -> (string * string) array -> int list array

(** {1 Serial kernels}

    The join bodies every plan above runs.  Each scans positions
    [lo, hi) of its output-driving slice — the descendant (child)
    slice, or the ancestor slice for {!inl_range} — charges comparisons
    to [counters], and passes every matched Dom id ([s_ids] value) to
    [emit], in that slice's order: adjacent duplicates collapsed for
    {!descendants_range}, unsorted and possibly repeated for the
    others.  The chunked plans run them per chunk; the per-shard tasks
    of [Ltree_shard.Sharded_doc] run them over a whole slice. *)

val descendants_range :
  Ltree_metrics.Counters.t ->
  anc:Read_snapshot.slice -> desc:Read_snapshot.slice ->
  lo:int -> hi:int -> emit:(int -> unit) -> unit

(** Level-filtered join: children of [parent] among [child]'s rows. *)
val children_range :
  Ltree_metrics.Counters.t ->
  parent:Read_snapshot.slice -> child:Read_snapshot.slice ->
  lo:int -> hi:int -> emit:(int -> unit) -> unit

(** Index nested loop: one descendant-slice probe per ancestor row in
    [lo, hi). *)
val inl_range :
  Ltree_metrics.Counters.t ->
  anc:Read_snapshot.slice -> desc:Read_snapshot.slice ->
  lo:int -> hi:int -> emit:(int -> unit) -> unit

(** [note ?counters n] records [n] comparisons for one query: into
    [counters] when given and into the [query_join_comparisons]
    histogram. *)
val note : ?counters:Ltree_metrics.Counters.t -> int -> unit
