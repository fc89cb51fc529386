(** Incremental per-tag secondary index over the stored label relation.

    For each tag, the live rows' [(start, end, row id, level, id)] as
    parallel untagged-int columns ({!Ltree_core.Column}) sorted by start
    label — the random-access sorted input the structural-join
    literature assumes, now in dense cache lines.  The entries are
    {e covering}: the level and (translated) Dom id ride along, so a
    read snapshot is a copy of the columns and never touches a row.
    Unlike the old memoized index (dropped wholesale by every
    {!Label_sync.flush}), this one is {e maintained}: the sync layer logs exactly which rows
    of which tags changed ({!note_change}), and the next access to a
    dirty tag {e repairs} its columns in place — one bitset-guided pass
    dropping the touched and tombstoned rows from the sorted survivors,
    a small in-place sort of the changed batch (comparisons on the start
    key only, whatever the column count), one backward galloping
    merge through the entry's own (pre-reserved) buffers — instead of
    re-sorting the world.  Steady-state repairs reuse every buffer they
    touch and allocate nothing.  Tombstones are compacted lazily by that
    same survivor pass.

    The index itself is memory-resident (as in experiment E8d); the row
    fetches a rebuild or repair performs go through the caller-supplied
    [fetch], which charges page reads to the shared pager.  Sort and
    merge comparisons are charged to the given counters, so the
    comparison totals of E-table experiments account for index
    maintenance honestly.

    Two instances: the store's, over label-table rows, and the XPath
    evaluator's ([Ltree_xpath.Label_eval]), keyed by node test, whose
    row ids are Dom ids read from the document's slots. *)

type t

(** One tag's rows: parallel columns over [0 .. len), [starts]
    strictly increasing.  Per row: its start and end labels, its row id
    in the label table, its tree depth (root = 0) and its Dom id as the
    fetch reported it (a shard's store reports router ids).  [stamp] is
    the index {!generation} at which the entry was last brought up to
    date — snapshots compare it to skip re-freezing unchanged tags.
    The same type is a read snapshot's frozen copy and a path step's
    gathered matches; in the XPath evaluator's index, whose rows are
    document nodes, [rids] and [ids] both hold Dom ids.  Treat as
    read-only — the index mutates the columns in place on repair. *)
type entry = {
  starts : Ltree_core.Column.t;
  ends : Ltree_core.Column.t;
  rids : Ltree_core.Column.t;
  levels : Ltree_core.Column.t;
  ids : Ltree_core.Column.t;
  mutable len : int;
  mutable stamp : int;
}

(** One fetched row, filled in place by a [fetch]: the index keeps one
    and reuses it for every row it reads, so fetching allocates
    nothing.  A fetch may leave [r_id] unset for a dead row. *)
type row = {
  mutable r_start : int;
  mutable r_end : int;
  mutable r_level : int;
  mutable r_id : int;
  mutable r_dead : bool;
}

(** Mutable loop state of the join kernels in {!Query}: the two input
    cursors, the open-ancestor stack depth, the match count and the
    comparisons made so far live here instead of in local refs, which
    vanilla OCaml would box. *)
type jstate = {
  mutable js_ai : int;
  mutable js_di : int;
  mutable js_sp : int;
  mutable js_n : int;
  mutable js_cmp : int;
  mutable js_done : bool;
}

(** Reusable query workspace: the columns the two join kernels of
    {!Query} write into, plus what their drivers need.  [w_stack] and
    [w_spos] hold the open ancestors' interval ends and input
    positions; each kernel writes one [(w_dpos, w_apos)] pair per
    match — the descendant's input position and the ancestor's;
    [w_out] collects a plan's result ids, [w_mark] is
    {!Ltree_core.Column.sort_dedup} scratch, and a path plan alternates
    between the two [w_steps] entries.  Results read from a workspace
    are only valid until its next query. *)
type workspace = {
  w_stack : Ltree_core.Column.t;
  w_spos : Ltree_core.Column.t;
  w_dpos : Ltree_core.Column.t;
  w_apos : Ltree_core.Column.t;
  w_out : Ltree_core.Column.t;
  w_mark : Ltree_core.Column.t;
  w_js : jstate;
  w_steps : entry array;
}

(** [create_entry ()] is an empty entry with fresh columns. *)
val create_entry : ?capacity:int -> unit -> entry

(** [copy e] is a fresh entry holding a copy of [e]'s [len] rows, with
    [e]'s stamp. *)
val copy : entry -> entry

(** [create_workspace ()] is a fresh workspace, for a caller that joins
    outside any index (snapshot and shard tasks). *)
val create_workspace : unit -> workspace

(** Maintenance counters: [repairs] counts dirty-tag merge repairs (each
    one is a full re-sort avoided), [full_rebuilds] counts from-scratch
    column builds (first access to a tag),
    [merged_rows] the changed rows merged across all repairs. *)
type stats = { repairs : int; full_rebuilds : int; merged_rows : int }

val create : unit -> t
val stats : t -> stats

(** [workspace t] is [t]'s own query workspace. *)
val workspace : t -> workspace

(** [generation t] is a monotone stamp bumped by every {!note_change};
    equal stamps mean the index saw no change. *)
val generation : t -> int

(** [note_change t ~tag ~rid] logs that row [rid] of [tag] was updated,
    inserted or tombstoned — called by {!Label_sync.flush} per written
    row.  O(1); the repair happens lazily at the tag's next access. *)
val note_change : t -> tag:string -> rid:int -> unit

(** [note_relabeled t] logs that any row of any materialized tag may
    carry new labels in the same order (an L-Tree relabel burst): each
    tag's next repair re-reads its rows in place. *)
val note_relabeled : t -> unit

(** [rows t] is the number of rows of all materialized tags. *)
val rows : t -> int

(** Raised by {!clean} when the tag is unmaterialized or has pending
    changes. *)
exception Dirty

(** [clean t tag] is [tag]'s entry when it is materialized and has no
    pending changes — the allocation-free lookup the hot query spine
    uses; raises {!Dirty} otherwise, and the caller falls back to
    {!entry}. *)
val clean : t -> string -> entry

(** [entry t counters ~rids_of_tag ~fetch src tag] returns [tag]'s
    up-to-date entry, rebuilding or repairing first when needed.
    [rids_of_tag src tag] enumerates the tag's row ids (used only by
    full rebuilds); [fetch src rid row] fills [row] with row [rid] of
    [src] and is expected to charge the page read.  Both are given the
    row source [src] rather than closing over it, so a call builds no
    closure. *)
val entry :
  t -> Ltree_metrics.Counters.t ->
  rids_of_tag:('src -> string -> int list) ->
  fetch:('src -> int -> row -> unit) -> 'src -> string -> entry

(** [upper_bound counters e key] is the first position in [e] with
    [start > key] (binary search, comparisons charged). *)
val upper_bound : Ltree_metrics.Counters.t -> entry -> int -> int

(** [check t ~fetch src] verifies every clean (non-dirty) materialized tag:
    column lengths in sync, strictly increasing starts, no dead rows,
    all four label and id columns agreeing with what [fetch] reports
    for the row.  Raises [Failure] otherwise. *)
val check : t -> fetch:('src -> int -> row -> unit) -> 'src -> unit
