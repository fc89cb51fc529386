(** Immutable read snapshots of the label store.

    A snapshot is a frozen copy of the incremental per-tag label index
    ({!Ltree_relstore.Label_index}): for every tag, a copy of the
    index's covering entry — the sorted interval columns plus each
    row's row id, tree level and Dom id.  Freezing a tag is five column
    copies; no row is read.  Worker domains share it read-only — plans
    over it ({!run}) never touch the pager, the row tables, or the live
    index.

    The Dom ids are the ones the store's index holds, i.e. already
    through the store's [label_ids] translation: a shard's snapshot
    holds router ids, so plans over it answer in router ids with no
    per-result lookup.

    Freshness contract: a snapshot is stamped with the labeled
    document's version ({!Ltree_doc.Labeled_doc.version}, i.e. the
    L-Tree mutation stamp) and the index generation at freeze time.
    Once either stamp moves — any tree mutation, or any
    {!Ltree_relstore.Label_sync.flush} that notes a change —
    {!run_batch} refuses the snapshot with {!Stale} and {!refresh}
    rebuilds it from the live store.  A refresh reuses the copy of
    every tag whose index entry kept its maintenance stamp, so only the
    tags actually touched since the freeze are re-copied. *)

type t

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

(** [of_store ?prev pager store doc] freezes every tag currently in the
    store.  With [?prev] (frozen from the same store), the copies of
    tags whose index entry is unchanged since [prev]'s freeze (same
    maintenance stamp) are reused physically instead of re-copied.
    Must be called from one domain with no concurrent writers (it may
    repair the live index on the way). *)
val of_store :
  ?prev:t ->
  Ltree_relstore.Pager.t ->
  Ltree_relstore.Shredder.label_store ->
  Ltree_doc.Labeled_doc.t ->
  t

(** Tags with a (possibly empty) frozen entry, sorted. *)
val tags : t -> string list

(** [entry t tag] is the tag's frozen entry — its [stamp] is the live
    entry's maintenance stamp at freeze time, the reuse key for
    {!refresh}; an empty entry for tags the snapshot has never seen.
    Treat as immutable. *)
val entry : t -> string -> Ltree_relstore.Label_index.entry

val is_fresh : t -> bool

(** [refresh t] is [t] if still fresh, else a new snapshot of the same
    source store (reusing unchanged tags' copies). *)
val refresh : t -> t

(** {1 The serial snapshot driver} *)

(** [run counters t ws plan] evaluates [plan] serially over [t] with
    the plan driver {!Ltree_relstore.Query.run}, writing into [ws] and
    charging comparisons to [counters].  The matched Dom ids (the
    entries' [ids] values) are left in [ws.w_out] in the driver's
    document order, each match once.  Freshness is the caller's
    business ({!is_fresh} or a snapshot it just froze).  Sharded tasks
    run it over each shard's snapshot. *)
val run :
  Ltree_metrics.Counters.t ->
  t -> Ltree_relstore.Label_index.workspace -> Ltree_relstore.Query.plan ->
  unit

(** [domain_workspace ()] is the calling domain's own workspace.  A
    pooled task borrows it for one plan and copies its result ids out
    before it returns, so a batch allocates no workspace per plan. *)
val domain_workspace : unit -> Ltree_relstore.Label_index.workspace

(** [run_batch ?counters pool t plans] first raises {!Stale} —
    carrying both frozen and live stamps — if the live document version
    or index generation moved since the freeze (noted as an
    [exec]/[snapshot_stale] recorder event when the recorder is on); then it
    fans the plans across [pool] with [Pool.map], one task per plan on
    its domain's workspace; per-plan ids in document order, index-aligned
    with [plans].  Each plan's comparisons are recorded after the
    barrier ({!Ltree_relstore.Query.record_comparisons}). *)
val run_batch :
  ?counters:Ltree_metrics.Counters.t ->
  Pool.t -> t -> Ltree_relstore.Query.plan array -> int list array
