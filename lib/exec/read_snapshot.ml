module Column = Ltree_core.Column
module Label_index = Ltree_relstore.Label_index
module Query = Ltree_relstore.Query
module Rel_table = Ltree_relstore.Rel_table
module Shredder = Ltree_relstore.Shredder

(* A frozen structure-of-arrays view of the label store: per tag, the
   sorted (start, end) interval columns plus the Dom id (or its
   translation through the snapshot's id map) and tree level of every
   row, all copied out of the live index at freeze time.
   Workers share the snapshot read-only; nothing here aliases a mutable
   structure, so no query ever touches the pager, the row tables or the
   repairable index columns. *)

type slice = {
  s_starts : Column.t;
  s_ends : Column.t;
  s_ids : Column.t;
  s_levels : Column.t;
  s_len : int;
  s_stamp : int;
}

(* A translation of the store's Dom ids into another id space (a
   shard's local ids into router ids), memoized per label-table row:
   [m_local.(rid)] is the Dom id row [rid] was resolved from and
   [m_mapped.(rid)] its translation, [-1] where the row was never seen.
   A row keeps its Dom id for its whole life except across a
   {!Ltree_relstore.Label_sync.resync}, which rebinds rows to recovered
   nodes — hence the local-id check before trusting a cached
   translation. *)
type id_map = {
  resolve : int -> int;
  m_local : Column.t;
  m_mapped : Column.t;
}

let id_map resolve =
  { resolve;
    m_local = Column.create ~capacity:256 ();
    m_mapped = Column.create ~capacity:256 () }

let translate m rid lid =
  while Column.length m.m_local <= rid do
    Column.push m.m_local (-1);
    Column.push m.m_mapped (-1)
  done;
  if Column.get m.m_local rid = lid then Column.get m.m_mapped rid
  else begin
    let mapped = m.resolve lid in
    Column.set m.m_local rid lid;
    Column.set m.m_mapped rid mapped;
    mapped
  end

type source = {
  src_pager : Ltree_relstore.Pager.t;
  src_store : Shredder.label_store;
  src_doc : Ltree_doc.Labeled_doc.t;
  src_ids : id_map option;
}

type t = {
  slices : (string, slice) Hashtbl.t;
  snap_version : int;
  snap_generation : int;
  src : source;
}

(* The full staleness evidence: both stamps the snapshot froze and both
   live values, so a handler (or the flight recorder) can tell a tree
   mutation (version moved) from an index rebuild/repair (generation
   moved) without re-deriving either. *)
type staleness = {
  stale_snap_version : int;
  stale_snap_generation : int;
  stale_live_version : int;
  stale_live_generation : int;
}

exception Stale of staleness

let staleness_to_string s =
  Printf.sprintf
    "snapshot stamped version=%d generation=%d but live is version=%d \
     generation=%d"
    s.stale_snap_version s.stale_snap_generation s.stale_live_version
    s.stale_live_generation

let empty_slice =
  { s_starts = Column.create ~capacity:1 ();
    s_ends = Column.create ~capacity:1 ();
    s_ids = Column.create ~capacity:1 ();
    s_levels = Column.create ~capacity:1 ();
    s_len = 0;
    s_stamp = -1 }

(* Freeze one tag.  When the previous snapshot holds a slice whose
   stamp matches the entry's (the entry was not rebuilt or repaired in
   between), the old slice record is reused as-is — a refresh after a
   localized batch of updates re-copies only the touched tags. *)
let freeze_tag ?prev ?ids pager store tag =
  let e = Query.tag_entry pager store tag in
  let n = e.Label_index.len in
  if n = 0 then empty_slice
  else begin
    let reusable =
      match prev with
      | None -> None
      | Some p -> (
          match Hashtbl.find_opt p.slices tag with
          | Some s when s.s_stamp = e.Label_index.stamp && s.s_len = n ->
            Some s
          | Some _ | None -> None)
    in
    match reusable with
    | Some s -> s
    | None ->
      let out_ids = Column.create ~capacity:n ()
      and levels = Column.create ~capacity:n () in
      for i = 0 to n - 1 do
        let rid = Column.get_checked e.Label_index.rids i in
        let row = Rel_table.get store.Shredder.label_table rid in
        Column.push out_ids
          (match ids with
           | None -> row.Shredder.l_id
           | Some m -> translate m rid row.Shredder.l_id);
        Column.push levels row.Shredder.l_level
      done;
      { s_starts = Column.copy_sub e.Label_index.starts 0 n;
        s_ends = Column.copy_sub e.Label_index.ends 0 n;
        s_ids = out_ids;
        s_levels = levels;
        s_len = n;
        s_stamp = e.Label_index.stamp }
  end

let of_store ?prev ?ids pager store doc =
  let tag_list =
    List.sort_uniq String.compare
      (Hashtbl.fold
         (fun tag _ acc -> tag :: acc)
         store.Shredder.label_by_tag [])
  in
  let slices = Hashtbl.create (Int.max 16 (List.length tag_list)) in
  List.iter
    (fun tag ->
      Hashtbl.replace slices tag (freeze_tag ?prev ?ids pager store tag))
    tag_list;
  (* Stamp after freezing: [tag_entry] may repair the index (bumping
     nothing — repairs consume, not produce, change notes), so the
     stamps taken here describe exactly the state the slices mirror. *)
  { slices;
    snap_version = Ltree_doc.Labeled_doc.version doc;
    snap_generation = Label_index.generation store.Shredder.label_index;
    src =
      { src_pager = pager; src_store = store; src_doc = doc; src_ids = ids } }

let version t = t.snap_version
let generation t = t.snap_generation

let tags t =
  List.sort String.compare
    (Hashtbl.fold (fun tag _ acc -> tag :: acc) t.slices [])

(* [Hashtbl.find] instead of [find_opt]: plan bodies call this per
   step and the option would be their only allocation. *)
let[@ltree.hot] slice t tag =
  try Hashtbl.find t.slices tag with Not_found -> empty_slice

(* An entry view of a slice for the shared array-join code.  The [rids]
   slot carries Dom ids, not row ids: snapshot joins never go back to
   the row table.  Callers must treat the entry as immutable. *)
let entry_of_slice s =
  { Label_index.starts = s.s_starts;
    ends = s.s_ends;
    rids = s.s_ids;
    len = s.s_len;
    stamp = s.s_stamp }

let[@ltree.hot] is_fresh t =
  t.snap_version = Ltree_doc.Labeled_doc.version t.src.src_doc
  && t.snap_generation = Label_index.generation t.src.src_store.Shredder.label_index

(* The refusal path allocates (payload record, recorder attrs) — cold
   by definition: it fires once per stale snapshot, not per query. *)
let[@ltree.cold] refuse t live_v live_g =
  let s =
    { stale_snap_version = t.snap_version;
      stale_snap_generation = t.snap_generation;
      stale_live_version = live_v;
      stale_live_generation = live_g }
  in
  Ltree_obs.Recorder.note ~kind:"exec"
    ~attrs:
      [ ("snap_version", string_of_int s.stale_snap_version);
        ("snap_generation", string_of_int s.stale_snap_generation);
        ("live_version", string_of_int s.stale_live_version);
        ("live_generation", string_of_int s.stale_live_generation) ]
    "snapshot_stale";
  raise (Stale s)

let[@ltree.hot] ensure_fresh t =
  let live_v = Ltree_doc.Labeled_doc.version t.src.src_doc in
  let live_g = Label_index.generation t.src.src_store.Shredder.label_index in
  if t.snap_version <> live_v || t.snap_generation <> live_g then
    (refuse t live_v live_g [@ltree.cold])

let refresh t =
  if is_fresh t then t
  else
    of_store ~prev:t ?ids:t.src.src_ids t.src.src_pager t.src.src_store
      t.src.src_doc
