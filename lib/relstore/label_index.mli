(** Incremental per-tag secondary index over the stored label relation.

    For each tag, the live rows' [(start, end, row id)] triples as
    parallel untagged-int columns ({!Ltree_core.Column}) sorted by start
    label — the random-access sorted input the structural-join
    literature assumes, now in dense cache lines.  Unlike the old
    memoized index (dropped wholesale by every {!Label_sync.flush}),
    this one is {e maintained}: the sync layer logs exactly which rows
    of which tags changed ({!note_change}), and the next access to a
    dirty tag {e repairs} its columns in place — one bitset-guided pass
    dropping the touched and tombstoned rows from the sorted survivors,
    a small in-place sort of the changed batch, one backward galloping
    merge through the entry's own (pre-reserved) buffers — instead of
    re-sorting the world.  Steady-state repairs reuse every buffer they
    touch and allocate nothing.  Tombstones are compacted lazily by that
    same survivor pass.

    The index itself is memory-resident (as in experiment E8d); the row
    fetches a rebuild or repair performs go through the caller-supplied
    [fetch], which charges page reads to the shared pager.  Sort and
    merge comparisons are charged to the given counters, so the
    comparison totals of E-table experiments account for index
    maintenance honestly. *)

type t

(** One tag's slice: parallel columns, [starts] strictly increasing on
    [0 .. len).  [stamp] is the index {!generation} at which the entry
    was last brought up to date — snapshots compare it to skip
    re-freezing unchanged tags.  Treat as read-only — the index mutates
    the columns in place on repair. *)
type entry = {
  starts : Ltree_core.Column.t;
  ends : Ltree_core.Column.t;
  rids : Ltree_core.Column.t;
  mutable len : int;
  mutable stamp : int;
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

(** [create_workspace ()] is a fresh workspace, for a caller that joins
    outside any index (snapshot tasks, the XPath evaluator). *)
val create_workspace : unit -> workspace

(** Maintenance counters: [repairs] counts dirty-tag merge repairs (each
    one is a full re-sort avoided), [full_rebuilds] counts from-scratch
    column builds (first access to a tag, or after {!invalidate_all}),
    [merged_rows] the changed rows merged across all repairs. *)
type stats = { repairs : int; full_rebuilds : int; merged_rows : int }

val create : unit -> t
val stats : t -> stats

(** [workspace t] is [t]'s own query workspace. *)
val workspace : t -> workspace

(** [generation t] is a monotone stamp bumped by every {!note_change} /
    {!invalidate_all}; equal stamps mean the index saw no change. *)
val generation : t -> int

(** [note_change t ~tag ~rid] logs that row [rid] of [tag] was updated,
    inserted or tombstoned — called by {!Label_sync.flush} per written
    row.  O(1); the repair happens lazily at the tag's next access. *)
val note_change : t -> tag:string -> rid:int -> unit

(** [invalidate_all t] drops every materialized tag (full rebuild on
    next access).  For wholesale events the sync layer cannot
    enumerate, e.g. restoring a store against a compacted document. *)
val invalidate_all : t -> unit

(** Raised by {!clean} when the tag is unmaterialized or has pending
    changes. *)
exception Dirty

(** [clean t tag] is [tag]'s entry when it is materialized and has no
    pending changes — the allocation-free lookup the hot query spine
    uses; raises {!Dirty} otherwise, and the caller falls back to
    {!entry}. *)
val clean : t -> string -> entry

(** [entry t counters ~rids_of_tag ~fetch tag] returns [tag]'s
    up-to-date slice, rebuilding or repairing first when needed.
    [rids_of_tag] enumerates the tag's row ids (used only by full
    rebuilds); [fetch rid] returns [(start, end, dead)] and is expected
    to charge the page read. *)
val entry :
  t -> Ltree_metrics.Counters.t -> rids_of_tag:(string -> int list) ->
  fetch:(int -> int * int * bool) -> string -> entry

(** [upper_bound counters e key] is the first position in [e] with
    [start > key] (binary search, comparisons charged). *)
val upper_bound : Ltree_metrics.Counters.t -> entry -> int -> int

(** [check t ~fetch] verifies every clean (non-dirty) materialized tag:
    column lengths in sync, strictly increasing starts, no dead rows,
    columns agreeing with the backing rows.  Raises [Failure]
    otherwise. *)
val check : t -> fetch:(int -> int * int * bool) -> unit
