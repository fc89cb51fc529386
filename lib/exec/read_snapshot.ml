module Column = Ltree_core.Column
module Label_index = Ltree_relstore.Label_index
module Query = Ltree_relstore.Query
module Shredder = Ltree_relstore.Shredder

(* A frozen copy of the label store's covering index: per tag, the
   sorted interval columns plus each row's row id, level and Dom id (a
   shard's store reports router ids), copied column by column out of
   the live index at freeze time.  Workers share the snapshot
   read-only; nothing here aliases a mutable structure, so no query
   ever touches the pager, the row tables or the repairable index
   columns. *)

type source = {
  src_pager : Ltree_relstore.Pager.t;
  src_store : Shredder.label_store;
  src_doc : Ltree_doc.Labeled_doc.t;
}

type t = {
  entries : (string, Label_index.entry) Hashtbl.t;
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

let empty = Label_index.create_entry ~capacity:1 ()

(* Freeze one tag: a copy of each covering column.  When the previous
   snapshot holds an entry whose stamp matches the live one (the entry
   was not rebuilt or repaired in between), the old copy is reused
   as-is — a refresh after a localized batch of updates re-copies only
   the touched tags. *)
let freeze_tag prev pager store tag =
  let e = Query.tag_entry pager store tag in
  if e.Label_index.len = 0 then empty
  else
    match prev with
    | Some p -> (
        match Hashtbl.find_opt p.entries tag with
        | Some s
          when s.Label_index.stamp = e.Label_index.stamp
               && s.Label_index.len = e.Label_index.len ->
          s
        | Some _ | None -> Label_index.copy e)
    | None -> Label_index.copy e

let of_store ?prev pager store doc =
  let tag_list =
    List.sort_uniq String.compare
      (Hashtbl.fold
         (fun tag _ acc -> tag :: acc)
         store.Shredder.label_by_tag [])
  in
  let entries = Hashtbl.create (Int.max 16 (List.length tag_list)) in
  List.iter
    (fun tag -> Hashtbl.replace entries tag (freeze_tag prev pager store tag))
    tag_list;
  (* Stamp after freezing: [tag_entry] may repair the index (bumping
     nothing — repairs consume, not produce, change notes), so the
     stamps taken here describe exactly the state the copies mirror. *)
  { entries;
    snap_version = Ltree_doc.Labeled_doc.version doc;
    snap_generation = Label_index.generation store.Shredder.label_index;
    src = { src_pager = pager; src_store = store; src_doc = doc } }

let tags t =
  List.sort String.compare
    (Hashtbl.fold (fun tag _ acc -> tag :: acc) t.entries [])

(* [Hashtbl.find] instead of [find_opt]: plan bodies call this per
   step and the option would be their only allocation. *)
let[@ltree.hot] entry t tag =
  try Hashtbl.find t.entries tag with Not_found -> empty

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
  Ltree_obs.Span.note ~kind:"exec"
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
    of_store ~prev:t t.src.src_pager t.src.src_store t.src.src_doc

(* {1 The serial snapshot driver}

   The snapshot's instance of {!Query.run}: entries from the frozen
   table, the matched rows' ids read straight out of the covering [ids]
   columns.  Sharded tasks and pooled batches both run this. *)

let frozen_entry _counters t tag = entry t tag

let[@ltree.hot] run counters t (ws : Label_index.workspace) plan =
  let d = Query.run counters frozen_entry t ws plan in
  Column.gather d.ids ~idx:ws.w_dpos ws.w_out

(* Each domain's workspace, borrowed in turn by the pooled tasks that
   run on it: a task copies its ids out before it returns. *)
let domain_ws = Domain.DLS.new_key Label_index.create_workspace
let domain_workspace () = Domain.DLS.get domain_ws

(* One task per plan, each on its own counters and its domain's
   workspace; the comparisons are recorded per plan after the
   barrier. *)
let run_batch ?counters pool t plans =
  ensure_fresh t;
  let answers =
    Pool.map pool
      (fun plan ->
        let local = Ltree_metrics.Counters.create () in
        let ws = domain_workspace () in
        run local t ws plan;
        (Ltree_metrics.Counters.comparisons local, Column.to_list ws.w_out))
      plans
  in
  Array.map
    (fun (comparisons, ids) ->
      Query.record_comparisons ?counters comparisons;
      ids)
    answers
