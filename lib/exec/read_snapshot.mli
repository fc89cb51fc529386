(** Immutable read snapshots of the label store.

    A snapshot is a frozen structure-of-arrays copy of the incremental
    per-tag label index ({!Ltree_relstore.Label_index}): for every tag,
    the sorted [(start, end)] interval columns plus each row's Dom id
    and tree level, stored as untagged-int {!Ltree_core.Column}s.
    Worker domains share it read-only — plans over it ({!run}) never
    touch the pager, the row tables, or the live index.

    A snapshot frozen with an {!id_map} stores translated ids instead
    of the store's own Dom ids: a shard's snapshot holds router ids, so
    plans over it answer in router ids with no per-result lookup.

    Freshness contract: a snapshot is stamped with the labeled
    document's version ({!Ltree_doc.Labeled_doc.version}, i.e. the
    L-Tree mutation stamp) and the index generation at freeze time.
    Once either stamp moves — any tree mutation, or any
    {!Ltree_relstore.Label_sync.flush} that notes a change —
    {!ensure_fresh} refuses the snapshot with {!Stale} and {!refresh}
    rebuilds it from the live store.  A refresh reuses the slice of
    every tag whose index entry kept its maintenance stamp, so only the
    tags actually touched since the freeze are re-copied. *)

type t

(** One tag's frozen rows.  [s_rows] is an index entry over
    [0 .. len) with [starts] strictly increasing, whose [rids] column
    holds Dom ids (translated through the {!id_map}, if any) instead of
    row ids, and whose [stamp] is the index entry's maintenance stamp
    at freeze time — the reuse key for {!refresh}.  [s_levels] is each
    row's tree depth, root = 0.  Treat both as immutable. *)
type slice = {
  s_rows : Ltree_relstore.Label_index.entry;
  s_levels : Ltree_core.Column.t;
}

(** Why a snapshot was refused: the stamps it froze against both live
    values at refusal time.  A moved [version] means the tree mutated; a
    moved [generation] means the per-tag index was rebuilt or repaired —
    the payload distinguishes the two so handlers (and the recorder
    event [snapshot_stale]) need not re-derive which side diverged. *)
type staleness = {
  stale_snap_version : int;
  stale_snap_generation : int;
  stale_live_version : int;
  stale_live_generation : int;
}

exception Stale of staleness

(** Render a {!staleness} the way the old string payload read. *)
val staleness_to_string : staleness -> string

(** A translation of the store's Dom ids into another id space, cached
    per label-table row.  Each cached entry keeps the Dom id it was
    resolved from: a re-freeze costs one column read per row, and a row
    whose Dom id changed since (a {!Ltree_relstore.Label_sync.resync}
    rebinds rows to recovered nodes) is resolved again.  Mutated only
    by freezes, so confine it to the freezing domain. *)
type id_map

(** [id_map resolve] is an empty cache over [resolve], which maps a
    store Dom id to its translation (and may raise for ids it does not
    know — only live rows are ever resolved). *)
val id_map : (int -> int) -> id_map

(** [of_store ?prev ?ids pager store doc] freezes every tag currently
    in the store, translating row ids through [ids] when given.  With
    [?prev] (frozen from the same store with the same [ids]), slices of
    tags whose index entry is unchanged since [prev]'s freeze (same
    maintenance stamp) are reused physically instead of re-copied.
    Must be called from one domain with no concurrent writers (it may
    repair the live index on the way). *)
val of_store :
  ?prev:t ->
  ?ids:id_map ->
  Ltree_relstore.Pager.t ->
  Ltree_relstore.Shredder.label_store ->
  Ltree_doc.Labeled_doc.t ->
  t

(** Tags with a (possibly empty) slice, sorted. *)
val tags : t -> string list

(** [slice t tag] is the tag's frozen slice; an empty slice for tags
    the snapshot has never seen. *)
val slice : t -> string -> slice

val is_fresh : t -> bool

(** [ensure_fresh t] raises {!Stale} — carrying both frozen and live
    stamps — if the live document version or index generation moved
    since the freeze.  When the flight recorder is enabled, the refusal
    is also noted as an [exec]/[snapshot_stale] event with the same
    four stamps. *)
val ensure_fresh : t -> unit

(** [refresh t] is [t] if still fresh, else a new snapshot of the same
    source store through the same {!id_map} (reusing unchanged tags'
    slices). *)
val refresh : t -> t

(** {1 The serial snapshot driver} *)

(** A label plan: [anc//desc] by the stack semi-join, [parent/child]
    (the semi-join kept where the innermost ancestor is one level up),
    [anc//desc] by the index nested loop, and a descendant path
    [t1//t2//…//tk] (one semi-join per step). *)
type plan =
  | Descendants of string * string
  | Children of string * string
  | Descendants_inl of string * string
  | Path of string list

(** [run counters t ws plan] evaluates [plan] serially over [t] with
    the {!Ltree_relstore.Query} kernels, writing into [ws] and
    charging comparisons to [counters].  The matched ids ([s_rows.rids]
    values) are left in [ws.w_out], unsorted; the index-nested-loop
    plan may repeat one.  Freshness is the caller's business ({!ensure_fresh}
    or a snapshot it just froze).  Sharded tasks run it over each
    shard's snapshot, one workspace per task. *)
val run :
  Ltree_metrics.Counters.t ->
  t -> Ltree_relstore.Label_index.workspace -> plan -> unit

(** [run_batch ?counters pool t plans] checks {!ensure_fresh} once, then
    fans the plans across [pool] with [Pool.map], one task per plan on
    its own workspace; per-plan sorted, deduplicated ids, index-aligned
    with [plans].  Each plan's comparisons are recorded after the
    barrier ({!Ltree_relstore.Query.record_comparisons}). *)
val run_batch :
  ?counters:Ltree_metrics.Counters.t ->
  Pool.t -> t -> plan array -> int list array
