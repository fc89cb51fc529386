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

type slice = { s_rows : Label_index.entry; s_levels : Column.t }

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
  { s_rows = Label_index.create_entry ~capacity:1 ();
    s_levels = Column.create ~capacity:1 () }

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
          | Some s
            when s.s_rows.Label_index.stamp = e.Label_index.stamp
                 && s.s_rows.Label_index.len = n ->
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
      { s_rows =
          { Label_index.starts = Column.copy_sub e.Label_index.starts 0 n;
            ends = Column.copy_sub e.Label_index.ends 0 n;
            rids = out_ids;
            len = n;
            stamp = e.Label_index.stamp };
        s_levels = levels }
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


let tags t =
  List.sort String.compare
    (Hashtbl.fold (fun tag _ acc -> tag :: acc) t.slices [])

(* [Hashtbl.find] instead of [find_opt]: plan bodies call this per
   step and the option would be their only allocation. *)
let[@ltree.hot] slice t tag =
  try Hashtbl.find t.slices tag with Not_found -> empty_slice

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

(* {1 The serial snapshot driver}

   One plan over one frozen snapshot, on the caller's workspace: one
   {!Query} kernel per join, the matched rows' ids read straight out of
   the slices.  Sharded tasks, the unsharded reference plans and pooled
   batches all run this. *)

type plan =
  | Descendants of string * string
  | Children of string * string
  | Descendants_inl of string * string
  | Path of string list

let run counters t (ws : Label_index.workspace) plan =
  Column.clear ws.w_out;
  match plan with
  | Descendants (anc, desc) ->
    let d = (slice t desc).s_rows in
    Query.semi_join counters (slice t anc).s_rows d ws;
    Column.gather d.rids ~idx:ws.w_dpos ws.w_out
  | Children (parent, child) ->
    let p = slice t parent and c = slice t child in
    Query.semi_join counters p.s_rows c.s_rows ws;
    for i = 0 to Column.length ws.w_dpos - 1 do
      let dpos = Column.get ws.w_dpos i in
      if
        Column.get c.s_levels dpos
        = Column.get p.s_levels (Column.get ws.w_apos i) + 1
      then Column.push ws.w_out (Column.get c.s_rows.rids dpos)
    done
  | Descendants_inl (anc, desc) ->
    let d = (slice t desc).s_rows in
    Query.inl_probe counters (slice t anc).s_rows d ws;
    Column.gather d.rids ~idx:ws.w_dpos ws.w_out
  | Path [] -> ()
  | Path (first :: rest) ->
    let final =
      Query.path_rows counters ws (fun tag -> (slice t tag).s_rows) first
        rest
    in
    for i = 0 to final.len - 1 do
      Column.push ws.w_out (Column.get final.rids i)
    done

(* One task per plan, each on its own counters and workspace; the
   comparisons are recorded per plan after the barrier. *)
let run_batch ?counters pool t plans =
  ensure_fresh t;
  let answers =
    Pool.map ~chunk:1 pool
      (fun plan ->
        let local = Ltree_metrics.Counters.create () in
        let ws = Label_index.create_workspace () in
        run local t ws plan;
        Column.sort_dedup ws.w_out ~mark:ws.w_mark;
        (Ltree_metrics.Counters.comparisons local, Column.to_list ws.w_out))
      plans
  in
  Array.map
    (fun (comparisons, ids) ->
      Query.record_comparisons ?counters comparisons;
      ids)
    answers
