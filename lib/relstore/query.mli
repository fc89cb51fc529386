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
    ({!Label_index}): both inputs come back as sorted covering
    columns — rebuilt on first access, merge-repaired after
    updates — and are joined by {!semi_join} (interval-containment
    comparisons counted on the pager's counters). *)
val label_descendants :
  Pager.t -> Shredder.label_store -> anc:string -> desc:string -> int list

(** [label_descendants_hot pager store ~anc ~desc] is the same plan
    stripped to its zero-allocation spine: clean-entry lookup (falling
    back to repair only when the index is dirty), {!semi_join} into the
    index's own workspace, one row fetch per match, and an in-place
    sort+dedup.  In steady state (clean index, warm workspace and
    buffer pool) a call allocates nothing on the minor heap — the
    claim [make analyze] (R9) checks statically and [exp_query] asserts
    dynamically.  The returned column is
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
    query with the {e index-nested-loop} plan ({!inl_probe}): for each
    [anc] row, probe the [desc] index entry by binary search and fetch
    only the rows whose start falls inside the ancestor's interval.
    Cheaper than the merge when the anchors are few and selective, more expensive
    when they blanket the document — the crossover is experiment E8d.
    The probed entry is the same incremental index the merge plan uses:
    built lazily, repaired (not dropped) after {!Label_sync.flush}. *)
val label_descendants_inl :
  Pager.t -> Shredder.label_store -> anc:string -> desc:string -> int list

(** [edge_children store ~parent ~child] and
    [label_children pager store ~parent ~child] evaluate the single-step
    [parent/child] under both layouts.  The label plan is the
    {!semi_join} kept where the innermost container is one level up,
    one pair of row fetches per matched child candidate. *)
val edge_children :
  Shredder.edge_store -> parent:string -> child:string -> int list

val label_children :
  Pager.t -> Shredder.label_store -> parent:string -> child:string ->
  int list

(** [edge_path store tags] and [label_path pager store tags] evaluate a
    multi-step descendant path [t1//t2//…//tk] (k >= 1), returning the
    ids of the final step's matches.  The edge plan re-runs its BFS from
    every intermediate result; the label plan pipelines one {!semi_join}
    per step through {!gather} — the paper's "exactly one self-join per
    location step". *)
val edge_path : Shredder.edge_store -> string list -> int list

val label_path :
  Pager.t -> Shredder.label_store -> string list -> int list

(** [index_stats store] is the store's {!Label_index.stats} — repairs
    performed, full rebuilds, rows merged. *)
val index_stats : Shredder.label_store -> Label_index.stats

(** [tag_entry pager store tag] is the tag's live index entry: sorted
    covering columns, rebuilt or merge-repaired on access, each row's
    Dom id through the store's [label_ids].  Exposed so read-only
    execution layers (snapshots in [lib/exec]) can freeze a consistent
    copy; treat the columns as immutable. *)
val tag_entry :
  Pager.t -> Shredder.label_store -> string -> Label_index.entry

(** {1 The join kernels}

    The two loops every label plan runs — these store plans, the
    snapshot driver ([Ltree_exec.Read_snapshot.run], hence every
    sharded and pooled plan) and the XPath evaluator's child and
    descendant steps.  Both read the sorted [starts]/[ends] columns of
    their entry inputs (no other column), charge comparisons to
    [counters], and write one pair per match into the workspace:
    [w_dpos] the descendant's position in [d], [w_apos] the ancestor's
    position in [a].  Neither allocates once the workspace's columns
    have grown. *)

(** [semi_join counters a d ws] matches each row of [d] that starts
    inside some row of [a] exactly once, in [d]'s order (so [w_dpos]
    is strictly ascending), paired with its {e innermost} containing
    row of [a].  A child plan keeps the pairs one level apart: a node's
    parent, when it is in [a], is its innermost container. *)
val semi_join :
  Ltree_metrics.Counters.t ->
  Label_index.entry -> Label_index.entry -> Label_index.workspace -> unit

(** [inl_probe counters a d ws] is the index nested loop: one binary
    search of [d] per row of [a], in [a]'s order, then a scan of the
    rows starting inside it.  Pairs come grouped by ancestor ([w_apos]
    ascending), each group in [d]'s order; a row of [d] under several
    rows of [a] is matched once per container. *)
val inl_probe :
  Ltree_metrics.Counters.t ->
  Label_index.entry -> Label_index.entry -> Label_index.workspace -> unit

(** [gather d ws out] overwrites [out] with the rows of [d] at the
    positions in [ws.w_dpos] — after a {!semi_join}, the matched rows
    in start order, ready to be the next path step's ancestors.  [out]
    must not alias [d]. *)
val gather :
  Label_index.entry -> Label_index.workspace -> Label_index.entry -> unit

(** [path_rows counters ws rows first rest] runs the path
    [first//rest…] as one {!semi_join} per step over the entries
    [rows tag], {!gather}ing each step's matches into one of the two
    [ws.w_steps] entries (alternately, so a step never overwrites its
    own input), and returns the last step's entry: the path's matches in
    start order.  With [rest = []] it is [rows first]. *)
val path_rows :
  Ltree_metrics.Counters.t ->
  Label_index.workspace ->
  (string -> Label_index.entry) ->
  string -> string list -> Label_index.entry

(** [record_comparisons ?counters n] records one join query's [n]
    comparisons: into [counters] when given, and into the
    [query_join_comparisons] histogram. *)
val record_comparisons : ?counters:Ltree_metrics.Counters.t -> int -> unit
