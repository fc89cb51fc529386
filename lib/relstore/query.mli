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

(** [label_descendants_baseline pager store ~anc ~desc] is the
    pre-index control plan: fetch and re-sort both tags' rows on every
    call (sort comparisons charged), then run the list-based stack
    join.  Kept for the old-vs-new comparison in [exp_query] and as the
    independent oracle of the agreement tests and invariants. *)
val label_descendants_baseline :
  Pager.t -> Shredder.label_store -> anc:string -> desc:string -> int list

(** [edge_children store ~parent ~child] evaluates the single-step
    [parent/child] under the edge layout: one parent-index probe per
    [parent] row, fetching every child row to learn its tag. *)
val edge_children :
  Shredder.edge_store -> parent:string -> child:string -> int list

(** [edge_path store tags] evaluates a multi-step descendant path
    [t1//t2//…//tk] (k >= 1) by re-running the BFS from every
    intermediate result, returning the ids of the final step's
    matches. *)
val edge_path : Shredder.edge_store -> string list -> int list

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

(** {1 The plan driver}

    Every label plan in the tree — the store plans below, the snapshot
    driver ([Ltree_exec.Read_snapshot.run], hence every sharded and
    pooled plan) and the XPath evaluator's child and descendant steps —
    is a chain of {!step}s over sorted [Label_index.entry] inputs.  A
    step runs one of two join kernels — the stack semi-join or the
    index nested loop — which read only the [starts]/[ends] columns,
    charge comparisons to [counters] and write one pair per match into
    the workspace: [w_dpos] the descendant's position in [d], [w_apos]
    the ancestor's position in [a].  Nothing allocates once the
    workspace's columns have grown. *)

(** A label plan: [anc//desc] by the stack semi-join, [parent/child]
    (the semi-join kept where the innermost ancestor is one level up),
    [anc//desc] by the index nested loop, and a descendant path
    [t1//t2//…//tk] (one semi-join per step). *)
type plan =
  | Descendants of string * string
  | Children of string * string
  | Descendants_inl of string * string
  | Path of string list

(** [step counters ~inl ~child a d ws] joins [a] (ancestors) with [d]:
    with [inl = false] the stack semi-join matches each row of [d] that
    starts inside some row of [a] exactly once, in [d]'s order (so
    [w_dpos] is strictly ascending), paired with its innermost
    containing row of [a]; with [inl = true] the index nested loop
    binary-searches [d] once per row of [a] and scans the rows starting
    inside it, so pairs come grouped by ancestor ([w_apos] ascending),
    each group in [d]'s order, and a row of [d] under several rows of
    [a] is matched once per container.  With [child], only the pairs
    whose descendant's level is its ancestor's plus one are kept, in
    order.  Levels are read from the entries' [levels] columns. *)
val step :
  Ltree_metrics.Counters.t -> inl:bool -> child:bool ->
  Label_index.entry -> Label_index.entry -> Label_index.workspace -> unit

(** [gather d ws out] overwrites [out] with the rows of [d] at the
    positions in [ws.w_dpos] — after a semi-join step, the matched rows
    in start order, ready to be the next step's ancestors.  [out] must
    not alias [d]. *)
val gather :
  Label_index.entry -> Label_index.workspace -> Label_index.entry -> unit

(** [run counters entry src ws plan] runs [plan] as a chain of
    {!step}s over the entries [entry counters src tag], {!gather}ing
    each path step's matches into one of the two [ws.w_steps] entries
    (alternately, so a step never overwrites its own input).  It
    returns the last step's [d] entry and leaves the matches in
    [ws.w_dpos] (positions in that entry; [w_apos] too, for a pair
    plan); the caller turns them into ids.  [Path [t]] matches every
    row of [t]; [Path []] matches nothing. *)
val run :
  Ltree_metrics.Counters.t ->
  (Ltree_metrics.Counters.t -> 'src -> string -> Label_index.entry) ->
  'src -> Label_index.workspace -> plan -> Label_index.entry

(** {1 Store plans}

    The store's instance of {!run}: entries through the clean-entry
    lookup (repairing only a dirty tag, over the incremental per-tag
    index {!Label_index}), one row fetch per match — the emit-side page
    reads that [exp_rdbms] compares with the edge table — and the Dom
    ids sorted and deduplicated in place.  Comparisons and page reads
    are charged to the pager's counters. *)

(** [label_plan_hot pager store plan] is the store plan stripped to its
    zero-allocation spine.  In steady state (clean index, warm
    workspace and buffer pool) a call allocates nothing on the minor
    heap — the claim [make analyze] (R9) checks statically and
    [exp_query] and the [exec] tests assert dynamically.  The returned
    column is {e borrowed}: it is the index workspace's result buffer,
    valid only until the next query on the same store. *)
val label_plan_hot :
  Pager.t -> Shredder.label_store -> plan -> Ltree_core.Column.t

(** [label_plan pager store plan] is {!label_plan_hot} listed, inside a
    span named after the plan — [query.descendants] and
    [query.descendants_inl] with [anc]/[desc] attributes,
    [query.children] with [parent]/[child], [query.path] with [steps] —
    whose comparisons feed the [query_join_comparisons] histogram.
    [Path []] is [[]], with no span. *)
val label_plan : Pager.t -> Shredder.label_store -> plan -> int list

(** [label_descendants], [label_children] and [label_path] are
    {!label_plan} on [Descendants], [Children] and [Path]. *)
val label_descendants :
  Pager.t -> Shredder.label_store -> anc:string -> desc:string -> int list

val label_children :
  Pager.t -> Shredder.label_store -> parent:string -> child:string ->
  int list

val label_path : Pager.t -> Shredder.label_store -> string list -> int list

(** [record_comparisons ?counters n] records one join query's [n]
    comparisons: into [counters] when given, and, when tracing is on,
    as a ["query.join"] point carrying a ["comparisons"] attribute that
    the [query_join_comparisons] series folds. *)
val record_comparisons : ?counters:Ltree_metrics.Counters.t -> int -> unit
