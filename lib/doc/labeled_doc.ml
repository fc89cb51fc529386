open Ltree_xml
open Ltree_core
module Span = Ltree_obs.Span

module Int_tbl = Ltree_metrics.Int_tbl

type entry = {
  start_leaf : Ltree.leaf;
  end_leaf : Ltree.leaf;
  level : int;
  node : Dom.node;
}

type t = {
  doc : Dom.document;
  tree : Ltree.t;
  table : entry Int_tbl.t; (* keyed by Dom.id *)
  mutable owner : entry array;
      (* Ltree leaf id -> the entry holding the leaf, [none] when there is
         none (tombstoned, or not bound yet) *)
  none : entry; (* the sentinel *)
  mutable feeds : feed list; (* every consumer's dirty set *)
}

(* One consumer's dirty set since its last drain. *)
and feed = {
  src : t;
  queue : Id_log.t; (* start-leaf ids of the queued nodes *)
  mutable dead : Dom.node list; (* nodes deleted *)
}

type label = { start_pos : int; end_pos : int; level : int }

let root_exn (doc : Dom.document) =
  match doc.root with
  | Some r -> r
  | None -> invalid_arg "Labeled_doc: document has no root"

let set_owner t leaf e =
  let id = Ltree.leaf_id leaf in
  let n = Array.length t.owner in
  if id >= n then begin
    let bigger = Array.make (Int.max (id + 1) (2 * n)) t.none in
    Array.blit t.owner 0 bigger 0 n;
    t.owner <- bigger
  end;
  t.owner.(id) <- e

let owner t id = if id < Array.length t.owner then t.owner.(id) else t.none

(* Queue the node whose begin tag is leaf [id] in every feed but
   [except]. *)
let rec mark_all ?except feeds id =
  match (feeds, except) with
  | [], _ -> ()
  | f :: rest, Some g when f == g -> mark_all ?except rest id
  | f :: rest, _ ->
    Id_log.reserve f.queue id;
    Id_log.add f.queue id;
    mark_all ?except rest id

let rec bury_all feeds n =
  match feeds with
  | [] -> ()
  | f :: rest ->
    f.dead <- n :: f.dead;
    bury_all rest n

(* Attach leaves to the nodes of [sub], reading them in tag-list order
   from [leaves] starting at [!i]; register each leaf's owner and queue
   the fresh nodes in every feed, in document order (a node is queued
   when its begin tag is read, before its children). *)
let assign_leaves t leaves i ~base_level sub =
  let bind node e =
    Int_tbl.replace t.table (Dom.id node) e;
    set_owner t e.start_leaf e;
    set_owner t e.end_leaf e
  in
  let rec go node level =
    let start_leaf = leaves.(!i) in
    incr i;
    mark_all t.feeds (Ltree.leaf_id start_leaf);
    match Dom.kind node with
    | Dom.Element _ ->
      List.iter (fun c -> go c (level + 1)) (Dom.children node);
      let end_leaf = leaves.(!i) in
      incr i;
      bind node { start_leaf; end_leaf; level; node }
    | Dom.Text _ | Dom.Comment _ | Dom.Pi _ ->
      bind node { start_leaf; end_leaf = start_leaf; level; node }
  in
  go sub base_level

let make_t doc tree =
  let none =
    match Ltree.first tree with
    | Some leaf ->
      { start_leaf = leaf; end_leaf = leaf; level = -1; node = root_exn doc }
    | None -> invalid_arg "Labeled_doc: empty tree"
  in
  { doc; tree;
    table = Int_tbl.create 64;
    owner = Array.make (Ltree.last_leaf_id tree + 1) none;
    none;
    feeds = [] }

let of_document ?(params = Params.fig2) ?counters doc =
  Span.with_ ~name:"doc.of_document" (fun () ->
      let root = root_exn doc in
      let count = Dom.event_count root in
      let tree, leaves = Ltree.bulk_load ~params ?counters count in
      let t = make_t doc tree in
      let i = ref 0 in
      assign_leaves t leaves i ~base_level:0 root;
      assert (!i = count);
      t)

let restore_raw ?counters ~params ~height ~labels ~deleted doc =
  let root = root_exn doc in
  let tree, leaves = Ltree.of_labels ~params ?counters ~height labels in
  List.iter
    (fun i ->
      if i < 0 || i >= Array.length leaves then
        invalid_arg "Labeled_doc.restore: deleted slot out of range";
      Ltree.delete tree leaves.(i))
    deleted;
  let live =
    Array.of_list
      (List.filter
         (fun l -> not (Ltree.is_deleted l))
         (Array.to_list leaves))
  in
  let expected = Dom.event_count root in
  if Array.length live <> expected then
    invalid_arg
      (Printf.sprintf
         "Labeled_doc.restore: %d live slots for a document with %d tags"
         (Array.length live) expected);
  let t = make_t doc tree in
  let i = ref 0 in
  assign_leaves t live i ~base_level:0 root;
  assert (!i = expected);
  t

let restore ?counters ~params ~height ~labels ~deleted doc =
  Span.with_ ~name:"doc.restore" (fun () ->
      restore_raw ?counters ~params ~height ~labels ~deleted doc)

let document t = t.doc
let tree t = t.tree
let counters t = Ltree.counters t.tree
let version t = Ltree.version t.tree

let entry t n = Int_tbl.find t.table (Dom.id n)
let mem t n = Int_tbl.mem t.table (Dom.id n)

type slot = entry

let slot = entry
let slot_by_id t id = Int_tbl.find t.table id
let slot_node (s : slot) = s.node
let slot_start t (s : slot) = Ltree.label t.tree s.start_leaf
let slot_end t (s : slot) = Ltree.label t.tree s.end_leaf
let slot_level (s : slot) = s.level

let label t n =
  let e = entry t n in
  { start_pos = Ltree.label t.tree e.start_leaf;
    end_pos = Ltree.label t.tree e.end_leaf;
    level = e.level }

let is_ancestor t ~anc ~desc =
  let a = label t anc and d = label t desc in
  a.start_pos < d.start_pos && d.end_pos < a.end_pos

let insert_subtree_raw t ~parent ~index sub =
  (match Dom.parent sub with
   | Some _ -> invalid_arg "Labeled_doc.insert_subtree: subtree is attached"
   | None -> ());
  let pe = entry t parent in
  let children = Dom.children parent in
  if index < 0 || index > List.length children then
    invalid_arg "Labeled_doc.insert_subtree: bad index";
  let anchor =
    if index = 0 then pe.start_leaf
    else (entry t (List.nth children (index - 1))).end_leaf
  in
  let k = Dom.event_count sub in
  let fresh = Ltree.insert_batch_after t.tree anchor k in
  Dom.insert_child parent ~index sub;
  let i = ref 0 in
  assign_leaves t fresh i ~base_level:(pe.level + 1) sub;
  assert (!i = k)

let insert_subtree t ~parent ~index sub =
  if Span.enabled () then
    Span.with_ ~name:"doc.insert_subtree" ~counters:(counters t) (fun () ->
        insert_subtree_raw t ~parent ~index sub)
  else insert_subtree_raw t ~parent ~index sub

let delete_subtree_raw t n =
  if not (mem t n) then
    invalid_arg "Labeled_doc.delete_subtree: node is not labeled";
  (match t.doc.root with
   | Some r when r == n ->
     invalid_arg "Labeled_doc.delete_subtree: cannot delete the root"
   | Some _ | None -> ());
  Dom.iter_preorder n (fun x ->
      let id = Dom.id x in
      match Int_tbl.find_opt t.table id with
      | Some e ->
        Ltree.delete t.tree e.start_leaf;
        if e.end_leaf != e.start_leaf then Ltree.delete t.tree e.end_leaf;
        Int_tbl.remove t.table id;
        set_owner t e.start_leaf t.none;
        set_owner t e.end_leaf t.none;
        bury_all t.feeds x
      | None -> ());
  Dom.remove n

let delete_subtree t n =
  if Span.enabled () then
    Span.with_ ~name:"doc.delete_subtree" ~counters:(counters t) (fun () ->
        delete_subtree_raw t n)
  else delete_subtree_raw t n

let compact t = Ltree.compact t.tree

(* Hand the L-Tree's relabel log to every feed but [except]: a
   relabeled leaf queues the node that owns it. *)
let collect_relabels ?except t =
  match (t.feeds, except) with
  | [ f ], Some g when f == g -> Ltree.drain_relabels t.tree ignore
  | feeds, _ ->
    Ltree.drain_relabels t.tree (fun id ->
        let e = owner t id in
        if e != t.none then mark_all ?except feeds (Ltree.leaf_id e.start_leaf))

let track_dirty t =
  (match t.feeds with
   | [] -> Ltree.track_relabels t.tree
   | _ :: _ -> collect_relabels t);
  let queue = Id_log.create () in
  (* room for every leaf so far, so only growth past it reallocates *)
  Id_log.reserve queue (Ltree.last_leaf_id t.tree + 512);
  let f = { src = t; queue; dead = [] } in
  t.feeds <- f :: t.feeds;
  f

let drain_dirty ?(relabels = true) f ~live ~dead =
  let t = f.src in
  if relabels then collect_relabels t else collect_relabels ~except:f t;
  Id_log.drain f.queue (fun id ->
      (* an entry deleted since it was queued has left the owner column *)
      let e = owner t id in
      if e != t.none then live e);
  (* a moved node was deleted and labeled again: it counts as live *)
  let gone =
    List.sort_uniq (fun a b -> Int.compare (Dom.id a) (Dom.id b)) f.dead
  in
  f.dead <- [];
  List.iter (fun n -> if not (Int_tbl.mem t.table (Dom.id n)) then dead n) gone

let node_by_id t dom_id =
  match Int_tbl.find_opt t.table dom_id with
  | Some e -> Some e.node
  | None -> None

let in_document_order t ids =
  let rec from prev = function
    | [] -> true
    | id :: rest -> (
        match Int_tbl.find_opt t.table id with
        | None -> false
        | Some e ->
          let s = Ltree.label t.tree e.start_leaf in
          s > prev && from s rest)
  in
  from Int.min_int ids

let node_by_start_label t lab =
  match Ltree.find_by_label t.tree lab with
  | None -> None
  | Some leaf ->
    let e = owner t (Ltree.leaf_id leaf) in
    if e != t.none && e.start_leaf == leaf then Some e.node else None

let labeled_events t =
  let root = root_exn t.doc in
  List.map
    (fun ev ->
      let pos =
        match ev with
        | Dom.E_start n -> Ltree.label t.tree (entry t n).start_leaf
        | Dom.E_end n -> Ltree.label t.tree (entry t n).end_leaf
        | Dom.E_atom n -> Ltree.label t.tree (entry t n).start_leaf
      in
      (ev, pos))
    (Dom.events root)

let size t = Ltree.live_length t.tree

let check t =
  Ltree.check t.tree;
  let root = root_exn t.doc in
  (* The live leaves, in order, must be exactly the document's tag list. *)
  let live = ref [] in
  Ltree.iter_leaves t.tree (fun l ->
      if not (Ltree.is_deleted l) then live := l :: !live);
  let live = List.rev !live in
  let expected =
    List.map
      (fun ev ->
        match ev with
        | Dom.E_start n -> (entry t n).start_leaf
        | Dom.E_end n -> (entry t n).end_leaf
        | Dom.E_atom n -> (entry t n).start_leaf)
      (Dom.events root)
  in
  if List.length live <> List.length expected then
    failwith "Labeled_doc: live leaf count differs from the tag list";
  List.iter2
    (fun a b ->
      if a != b then failwith "Labeled_doc: leaf order diverges from tags")
    live expected;
  (* Labels must strictly increase along the tag list. *)
  let prev = ref (-1) in
  List.iter
    (fun l ->
      let v = Ltree.label t.tree l in
      if v <= !prev then failwith "Labeled_doc: labels out of order";
      prev := v)
    expected
