open Ltree_xml
module Labeled_doc = Ltree_doc.Labeled_doc
module Span = Ltree_obs.Span
open Shredder

(* Rows written per flush/resync: the effective write batch size the
   relational store sees from the document layer. *)
let flush_rows =
  Ltree_obs.Registry.histogram ~name:"relstore_flush_rows"
    ~help:"Label rows updated, inserted or tombstoned per sync pass"
    ~bounds:(Ltree_obs.Histogram.log2_bounds ~start:1. ~count:16)
    ()

type t = {
  store : label_store;
  ldoc : Labeled_doc.t;
  epoch : int;
      (* the store incarnation this handle was created against; see
         [ensure_fresh] *)
}

type stats = {
  rows_updated : int;
  rows_inserted : int;
  rows_tombstoned : int;
}

(* The pager argument is kept for interface stability: the store's own
   tables carry their pager, so the sync layer never touches it. *)
let create (_ : Pager.t) store ldoc =
  { store; ldoc; epoch = store.label_epoch }

let epoch t = t.epoch

(* A handle bound to a document that a recovery has since replaced must
   not touch the store: its dirty-set bookkeeping describes nodes that
   no longer exist.  [resync] is the only way forward. *)
let ensure_fresh t what =
  if t.epoch <> t.store.label_epoch then
    failwith
      (Printf.sprintf
         "Label_sync.%s: stale handle (store epoch %d, handle epoch %d) \
          — the store was resynced after a recovery; use the handle \
          returned by Label_sync.resync"
         what t.store.label_epoch t.epoch)

let row_of_node ldoc node =
  match Shredder.tag_of node with
  | None -> None
  | Some tag ->
    let l = Labeled_doc.label ldoc node in
    Some
      { l_id = Dom.id node; l_tag = tag;
        l_start = l.Labeled_doc.start_pos;
        l_end = l.Labeled_doc.end_pos;
        l_level = l.Labeled_doc.level;
        l_dead = false }

let row_changed (a : label_row) (b : label_row) =
  a.l_start <> b.l_start || a.l_end <> b.l_end || a.l_level <> b.l_level
  || a.l_id <> b.l_id
  || (not (String.equal a.l_tag b.l_tag))
  || not (Bool.equal a.l_dead b.l_dead)

let flush_raw t =
  ensure_fresh t "flush";
  let updated = ref 0 and inserted = ref 0 and tombstoned = ref 0 in
  (* Each write is reported to the secondary index's dirty log, so the
     next query repairs exactly the touched tags instead of rebuilding
     the world. *)
  let dirty tag rid = Label_index.note_change t.store.label_index ~tag ~rid in
  List.iter
    (fun (dom_id, node) ->
      match (Hashtbl.find_opt t.store.label_by_node dom_id, node) with
      | Some rid, Some node -> (
          match row_of_node t.ldoc node with
          | Some row ->
            if row_changed (Rel_table.get t.store.label_table rid) row then begin
              Rel_table.set t.store.label_table rid row;
              dirty row.l_tag rid;
              incr updated
            end
          | None -> ())
      | Some rid, None ->
        let old = Rel_table.get t.store.label_table rid in
        if not old.l_dead then begin
          Rel_table.set t.store.label_table rid { old with l_dead = true };
          Hashtbl.remove t.store.label_by_node dom_id;
          dirty old.l_tag rid;
          incr tombstoned
        end
      | None, Some node -> (
          match row_of_node t.ldoc node with
          | Some row ->
            let rid = Rel_table.append t.store.label_table row in
            Hashtbl.replace t.store.label_by_node dom_id rid;
            Hashtbl.replace t.store.label_by_tag row.l_tag
              (rid
              :: Option.value ~default:[]
                   (Hashtbl.find_opt t.store.label_by_tag row.l_tag));
            dirty row.l_tag rid;
            incr inserted
          | None -> ())
      | None, None -> () (* created and deleted between flushes *))
    (Labeled_doc.drain_dirty t.ldoc);
  { rows_updated = !updated;
    rows_inserted = !inserted;
    rows_tombstoned = !tombstoned }

let observe_rows st =
  Ltree_obs.Histogram.observe_int flush_rows
    (st.rows_updated + st.rows_inserted + st.rows_tombstoned)

let flush t =
  Span.with_ ~name:"relstore.flush"
    ~counters:(Labeled_doc.counters t.ldoc) (fun () ->
      let st = flush_raw t in
      observe_rows st;
      st)

(* Rebind a store to the document that recovery reconstructed.  Node
   identity (Dom ids) did not survive the restart, but labels did — the
   §4.2 determinism this whole layer is built on — so rows are matched
   to recovered nodes by their durable start label.  The reconciliation
   is dirty-all: every row is recomputed, rows whose label claims no
   recovered node are tombstoned, recovered nodes without a row get one.
   The per-tag index is dropped wholesale ({!Label_index.invalidate_all})
   and the store epoch is bumped so pre-recovery handles go stale. *)
let resync_raw old ldoc =
  let store = old.store in
  store.label_epoch <- store.label_epoch + 1;
  Label_index.invalidate_all store.label_index;
  (* This handle rewrites every row from scratch: track the recovered
     document's changes from a clean slate. *)
  Labeled_doc.track_dirty ldoc;
  let updated = ref 0 and inserted = ref 0 and tombstoned = ref 0 in
  (* Live rows, addressable by their durable start label. *)
  let by_start = Hashtbl.create 256 in
  Rel_table.iter store.label_table (fun rid row ->
      if not row.l_dead then Hashtbl.replace by_start row.l_start rid);
  Hashtbl.reset store.label_by_node;
  (match (Labeled_doc.document ldoc).root with
   | None -> ()
   | Some root ->
     Dom.iter_preorder root (fun node ->
         match Shredder.tag_of node with
         | None -> ()
         | Some tag -> (
             let l = Labeled_doc.label ldoc node in
             let fresh =
               { l_id = Dom.id node; l_tag = tag;
                 l_start = l.Labeled_doc.start_pos;
                 l_end = l.Labeled_doc.end_pos;
                 l_level = l.Labeled_doc.level;
                 l_dead = false }
             in
             match Hashtbl.find_opt by_start fresh.l_start with
             | Some rid
               when String.equal
                      (Rel_table.get store.label_table rid).l_tag tag ->
               Hashtbl.remove by_start fresh.l_start;
               if row_changed (Rel_table.get store.label_table rid) fresh
               then begin
                 Rel_table.set store.label_table rid fresh;
                 incr updated
               end;
               Hashtbl.replace store.label_by_node fresh.l_id rid
             | Some _ | None ->
               (* No row carries this label (or a row does under a
                  different tag — divergent history); append a fresh
                  one.  The mismatched row, if any, stays in [by_start]
                  and is tombstoned below. *)
               let rid = Rel_table.append store.label_table fresh in
               Hashtbl.replace store.label_by_node fresh.l_id rid;
               Hashtbl.replace store.label_by_tag tag
                 (rid
                 :: Option.value ~default:[]
                      (Hashtbl.find_opt store.label_by_tag tag));
               incr inserted)));
  (* Whatever is left claimed no recovered node: the crash rolled those
     nodes back (or their labels moved beyond recognition). *)
  Hashtbl.iter
    (fun _ rid ->
      let row = Rel_table.get store.label_table rid in
      Rel_table.set store.label_table rid { row with l_dead = true };
      incr tombstoned)
    by_start;
  ( { store; ldoc; epoch = store.label_epoch },
    { rows_updated = !updated;
      rows_inserted = !inserted;
      rows_tombstoned = !tombstoned } )

let resync old ldoc =
  Span.with_ ~name:"relstore.resync"
    ~counters:(Labeled_doc.counters ldoc) (fun () ->
      let handle, st = resync_raw old ldoc in
      observe_rows st;
      (handle, st))

let check t =
  ensure_fresh t "check";
  (* Every labeled node must have an exact live row; every live row must
     describe a labeled node. *)
  (match (Labeled_doc.document t.ldoc).root with
   | None -> ()
   | Some root ->
     Dom.iter_preorder root (fun node ->
         match Shredder.tag_of node with
         | None -> ()
         | Some _ -> (
             match Hashtbl.find_opt t.store.label_by_node (Dom.id node) with
             | None -> failwith "Label_sync: labeled node without a row"
             | Some rid ->
               let row = Rel_table.get t.store.label_table rid in
               let l = Labeled_doc.label t.ldoc node in
               if
                 row.l_dead
                 || row.l_start <> l.Labeled_doc.start_pos
                 || row.l_end <> l.Labeled_doc.end_pos
                 || row.l_level <> l.Labeled_doc.level
               then failwith "Label_sync: stale row after flush")));
  Rel_table.iter t.store.label_table (fun _ row ->
      if not row.l_dead then
        match Labeled_doc.node_by_id t.ldoc row.l_id with
        | Some _ -> ()
        | None -> failwith "Label_sync: live row for a vanished node")
