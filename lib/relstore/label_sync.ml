open Ltree_xml
module Labeled_doc = Ltree_doc.Labeled_doc
module Span = Ltree_obs.Span
module Int_tbl = Ltree_metrics.Int_tbl
open Shredder

type t = {
  store : label_store;
  ldoc : Labeled_doc.t;
}

type stats = {
  rows_updated : int;
  rows_inserted : int;
  rows_tombstoned : int;
}

(* The pager argument is kept for interface stability: the store's own
   tables carry their pager, so the sync layer never touches it. *)
let create (_ : Pager.t) store ldoc =
  { store; ldoc }

let flush_raw t =
  let ldoc = t.ldoc and store = t.store in
  let updated = ref 0 and inserted = ref 0 and tombstoned = ref 0 in
  (* Each write is reported to the secondary index's dirty log, so the
     next query repairs exactly the touched tags instead of rebuilding
     the world. *)
  let dirty tag rid = Label_index.note_change store.label_index ~tag ~rid in
  let live s =
    let node = Labeled_doc.slot_node s in
    match Shredder.tag_of node with
    | None -> ()
    | Some tag -> (
        let dom_id = Dom.id node
        and l_start = Labeled_doc.slot_start ldoc s
        and l_end = Labeled_doc.slot_end ldoc s
        and l_level = Labeled_doc.slot_level s in
        let row () =
          { l_id = dom_id; l_tag = tag; l_start; l_end; l_level;
            l_dead = false }
        in
        match Int_tbl.find_opt store.label_by_node dom_id with
        | Some rid ->
          let old = Rel_table.get store.label_table rid in
          if
            old.l_start <> l_start || old.l_end <> l_end
            || old.l_level <> l_level || old.l_id <> dom_id
            || (not (String.equal old.l_tag tag))
            || old.l_dead
          then begin
            Rel_table.set store.label_table rid (row ());
            dirty tag rid;
            incr updated
          end
        | None ->
          let rid = Rel_table.append store.label_table (row ()) in
          Int_tbl.replace store.label_by_node dom_id rid;
          Hashtbl.replace store.label_by_tag tag
            (rid
            :: Option.value ~default:[]
                 (Hashtbl.find_opt store.label_by_tag tag));
          dirty tag rid;
          incr inserted)
  in
  let dead node =
    let dom_id = Dom.id node in
    match Int_tbl.find_opt store.label_by_node dom_id with
    | Some rid ->
      let old = Rel_table.get store.label_table rid in
      if not old.l_dead then begin
        Rel_table.set store.label_table rid { old with l_dead = true };
        Int_tbl.remove store.label_by_node dom_id;
        dirty old.l_tag rid;
        incr tombstoned
      end
    | None -> () (* created and deleted between flushes *)
  in
  Labeled_doc.drain_dirty store.label_feed ~live ~dead;
  { rows_updated = !updated;
    rows_inserted = !inserted;
    rows_tombstoned = !tombstoned }

let flush t =
  Span.with_ ~name:"relstore.flush"
    ~counters:(Labeled_doc.counters t.ldoc) (fun () -> flush_raw t)

let check t =
  (* Every labeled node must have an exact live row; every live row must
     describe a labeled node. *)
  (match (Labeled_doc.document t.ldoc).root with
   | None -> ()
   | Some root ->
     Dom.iter_preorder root (fun node ->
         match Shredder.tag_of node with
         | None -> ()
         | Some _ -> (
             match Int_tbl.find_opt t.store.label_by_node (Dom.id node) with
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
