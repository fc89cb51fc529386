open Ltree_xml
module Int_tbl = Ltree_metrics.Int_tbl
module Labeled_doc = Ltree_doc.Labeled_doc

type edge_row = { e_id : int; e_parent : int; e_tag : string; e_pos : int }

type label_row = {
  l_id : int;
  l_tag : string;
  l_start : int;
  l_end : int;
  l_level : int;
  l_dead : bool;
}

type edge_store = {
  edge_table : edge_row Rel_table.t;
  edge_by_tag : (string, int list) Hashtbl.t;
  edge_by_parent : int list Int_tbl.t;
}

type label_store = {
  label_table : label_row Rel_table.t;
  label_by_tag : (string, int list) Hashtbl.t;
  label_by_node : int Int_tbl.t;
  label_index : Label_index.t;
  label_feed : Labeled_doc.feed;
  mutable label_ids : int -> int;
}

let tag_of node =
  match Dom.kind node with
  | Dom.Element name -> Some name
  | Dom.Text _ -> Some "#text"
  | Dom.Comment _ | Dom.Pi _ -> None

(* Row-id lists are built newest-first, then reversed once.  One
   monomorphic pair per key type, so the keyed lookups stay visible to
   the analyzer's typed R2. *)
let push_tag (tbl : (string, int list) Hashtbl.t) key v =
  Hashtbl.replace tbl key
    (v :: Option.value ~default:[] (Hashtbl.find_opt tbl key))

let rev_tags (tbl : (string, int list) Hashtbl.t) =
  Hashtbl.iter (fun k v -> Hashtbl.replace tbl k (List.rev v)) tbl

let push_child tbl key v =
  Int_tbl.replace tbl key
    (v :: Option.value ~default:[] (Int_tbl.find_opt tbl key))

let rev_children tbl =
  Int_tbl.iter (fun k v -> Int_tbl.replace tbl k (List.rev v)) tbl

let shred_edge pager ?(rows_per_page = 32) (doc : Dom.document) =
  let edge_table = Rel_table.create pager ~rows_per_page in
  let edge_by_tag = Hashtbl.create 64 in
  let edge_by_parent = Int_tbl.create 256 in
  (match doc.root with
   | None -> ()
   | Some root ->
     let rec go node parent_id =
       match tag_of node with
       | None -> ()
       | Some tag ->
         let pos =
           match Dom.parent node with
           | None -> 0
           | Some _ -> Dom.index_in_parent node
         in
         let row =
           { e_id = Dom.id node; e_parent = parent_id; e_tag = tag;
             e_pos = pos }
         in
         let rid = Rel_table.append edge_table row in
         push_tag edge_by_tag tag rid;
         if parent_id >= 0 then push_child edge_by_parent parent_id rid;
         List.iter (fun c -> go c (Dom.id node)) (Dom.children node)
     in
     go root (-1));
  rev_tags edge_by_tag;
  rev_children edge_by_parent;
  { edge_table; edge_by_tag; edge_by_parent }

let shred_label pager ?(rows_per_page = 32) ldoc =
  let label_feed = Labeled_doc.track_dirty ldoc in
  let label_table = Rel_table.create pager ~rows_per_page in
  let label_by_tag = Hashtbl.create 64 in
  let label_by_node = Int_tbl.create 256 in
  (match (Labeled_doc.document ldoc).root with
   | None -> ()
   | Some root ->
     (* Preorder = ascending start label, so per-tag id lists arrive
        sorted by start. *)
     Dom.iter_preorder root (fun node ->
         match tag_of node with
         | None -> ()
         | Some tag ->
           let l = Labeled_doc.label ldoc node in
           let row =
             { l_id = Dom.id node; l_tag = tag;
               l_start = l.Labeled_doc.start_pos;
               l_end = l.Labeled_doc.end_pos;
               l_level = l.Labeled_doc.level;
               l_dead = false }
           in
           let rid = Rel_table.append label_table row in
           Int_tbl.replace label_by_node (Dom.id node) rid;
           push_tag label_by_tag tag rid));
  rev_tags label_by_tag;
  { label_table; label_by_tag; label_by_node;
    label_index = Label_index.create (); label_feed; label_ids = Fun.id }
