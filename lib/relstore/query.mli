(** The two relational plans for the motivating query shape [a//b]
    (paper §1: "to answer descendant-axis '//' ... many self-joins are
    needed" vs. "exactly one self-join with label comparisons").

    Both return the Dom ids of matching [b] nodes, sorted; both charge
    row fetches to the shared pager, so [page_reads] are comparable. *)

(** [edge_descendants store ~anc ~desc] evaluates [anc//desc] by iterated
    parent-child self-joins (BFS from the [anc] rows through the
    parent-id index, fetching every intermediate row). *)
val edge_descendants :
  Shredder.edge_store -> anc:string -> desc:string -> int list

(** [label_descendants store ~anc ~desc] evaluates [anc//desc] with one
    structural join over the incremental per-tag label index
    ({!Label_index}): both inputs come back as sorted [(start, end,
    row id)] arrays — rebuilt on first access, merge-repaired after
    updates — and are joined by the array-cursor stack join
    (interval-containment comparisons counted on the pager's
    counters). *)
val label_descendants :
  Pager.t -> Shredder.label_store -> anc:string -> desc:string -> int list

(** [label_descendants_hot pager store ~anc ~desc] is the same plan
    stripped to its zero-allocation spine: clean-entry lookup (falling
    back to repair only when the index is dirty), the specialized
    column join writing matched Dom ids into the index's preallocated
    workspace, and an in-place sort+dedup.  In steady state (clean
    index, warm workspace and buffer pool) a call allocates nothing on
    the minor heap — the claim [make analyze] (R9) checks statically
    and [exp_query] asserts dynamically.  The returned column is
    {e borrowed}: it is the index workspace's result buffer, valid only
    until the next query on the same store. *)
val label_descendants_hot :
  Pager.t -> Shredder.label_store -> anc:string -> desc:string ->
  Ltree_core.Column.t

(** [label_descendants_baseline pager store ~anc ~desc] is the
    pre-index control plan: fetch and re-sort both tags' rows on every
    call (sort comparisons charged), then run the list-based stack
    join.  Kept for the old-vs-new comparison in [exp_query] and the
    agreement tests. *)
val label_descendants_baseline :
  Pager.t -> Shredder.label_store -> anc:string -> desc:string -> int list

(** [label_descendants_inl pager store ~anc ~desc] evaluates the same
    query with the {e index-nested-loop} plan: for each [anc] row, probe
    the [desc] index entry by binary search and fetch only the rows
    whose start falls inside the ancestor's interval (XML intervals
    nest, so start containment implies full containment).  Cheaper than
    the merge when the anchors are few and selective, more expensive
    when they blanket the document — the crossover is experiment E8d.
    The probed entry is the same incremental index the merge plan uses:
    built lazily, repaired (not dropped) after {!Label_sync.flush}. *)
val label_descendants_inl :
  Pager.t -> Shredder.label_store -> anc:string -> desc:string -> int list

(** [edge_children store ~parent ~child] and
    [label_children pager store ~parent ~child] evaluate the single-step
    [parent/child] under both layouts. *)
val edge_children :
  Shredder.edge_store -> parent:string -> child:string -> int list

val label_children :
  Pager.t -> Shredder.label_store -> parent:string -> child:string ->
  int list

(** [edge_path store tags] and [label_path pager store tags] evaluate a
    multi-step descendant path [t1//t2//…//tk] (k >= 1), returning the
    ids of the final step's matches.  The edge plan re-runs its BFS from
    every intermediate result; the label plan pipelines stack joins, one
    per step — the paper's "exactly one self-join per location step". *)
val edge_path : Shredder.edge_store -> string list -> int list

val label_path :
  Pager.t -> Shredder.label_store -> string list -> int list

(** [index_stats store] is the store's {!Label_index.stats} — repairs
    performed, full rebuilds, rows merged. *)
val index_stats : Shredder.label_store -> Label_index.stats

(** [tag_entry pager store tag] is the tag's live index entry: sorted
    [(start, end, rid)] arrays, rebuilt or merge-repaired on access.
    Exposed so read-only execution layers (snapshots in [lib/exec]) can
    freeze a consistent copy; treat the arrays as immutable. *)
val tag_entry :
  Pager.t -> Shredder.label_store -> string -> Label_index.entry

(** [array_join counters a d ~emit] is the array-cursor stack join over
    two sorted entries: [emit apos dpos] fires for every containment
    pair, descendant positions ascending with duplicates adjacent.
    Exposed for executors that join frozen snapshot slices. *)
val array_join :
  Ltree_metrics.Counters.t ->
  Label_index.entry ->
  Label_index.entry ->
  emit:(int -> int -> unit) ->
  unit

(** [join_into counters a d out] overwrites [out] with the rows of [d]
    contained in some row of [a], in [d]'s order ([rids] copied through
    unchanged) — one location step of a path, written into a reusable
    entry.  [out] must not alias [a] or [d]. *)
val join_into :
  Ltree_metrics.Counters.t ->
  Label_index.entry ->
  Label_index.entry ->
  Label_index.entry ->
  unit
