(** Immutable read snapshots of the label store.

    A snapshot is a frozen structure-of-arrays copy of the incremental
    per-tag label index ({!Ltree_relstore.Label_index}): for every tag,
    the sorted [(start, end)] interval columns plus each row's Dom id
    and tree level, stored as untagged-int {!Ltree_core.Column}s.
    Worker domains share it read-only — parallel query plans never
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

(** One tag's frozen rows, parallel columns over [0 .. s_len):
    [s_starts] strictly increasing.  [s_stamp] is the index entry's
    maintenance stamp at freeze time — the reuse key for {!refresh}. *)
type slice = {
  s_starts : Ltree_core.Column.t;
  s_ends : Ltree_core.Column.t;
  s_ids : Ltree_core.Column.t;
      (** Dom node ids, translated through the {!id_map} if any *)
  s_levels : Ltree_core.Column.t;  (** tree depth, root = 0 *)
  s_len : int;
  s_stamp : int;
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

(** Document version the snapshot was frozen at. *)
val version : t -> int

(** Index generation the snapshot was frozen at. *)
val generation : t -> int

(** Tags with a (possibly empty) slice, sorted. *)
val tags : t -> string list

(** [slice t tag] is the tag's frozen slice; an empty slice for tags
    the snapshot has never seen. *)
val slice : t -> string -> slice

(** An entry view of a slice for {!Ltree_relstore.Query.array_join}.
    The entry's [rids] field carries the slice's [s_ids], not row ids;
    treat it as immutable. *)
val entry_of_slice : slice -> Ltree_relstore.Label_index.entry

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
