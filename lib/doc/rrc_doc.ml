open Ltree_xml
module Counters = Ltree_metrics.Counters
module Int_tbl = Ltree_metrics.Int_tbl

(* A node's region: [rel_start, rel_start + size - 1], with [rel_start]
   relative to the parent's region start (the root is absolute).
   Children live strictly inside the parent's inner space
   [1, size - 2]: slot 0 is the begin tag, slot size - 1 the end tag. *)
type entry = { mutable rel_start : int; mutable size : int }

type t = {
  doc : Dom.document;
  counters : Counters.t;
  table : entry Int_tbl.t; (* keyed by Dom.id *)
}

let root_exn (doc : Dom.document) =
  match doc.root with
  | Some r -> r
  | None -> invalid_arg "Rrc_doc: document has no root"

let entry t n =
  match Int_tbl.find_opt t.table (Dom.id n) with
  | Some e -> e
  | None -> raise Not_found

let mem t n = Int_tbl.mem t.table (Dom.id n)

(* Preferred region size: twice the children's demand, compounding — the
   slack that keeps renumbering local. *)
let rec preferred n =
  match Dom.kind n with
  | Dom.Element _ ->
    let demand =
      List.fold_left (fun acc c -> acc + preferred c) 0 (Dom.children n)
    in
    2 + Int.max 2 (2 * demand)
  | Dom.Text _ | Dom.Comment _ | Dom.Pi _ -> 1

let write t e ~rel_start ~size =
  if e.rel_start <> rel_start || e.size <> size then begin
    e.rel_start <- rel_start;
    e.size <- size;
    Counters.add_relabel t.counters 1
  end

let fresh_entry t ~rel_start ~size =
  Counters.add_relabel t.counters 1;
  { rel_start; size }

(* Lay out [n]'s subtree: give every descendant a region (children packed
   with even gaps inside the parent's inner space).  [n]'s own rel_start
   is the caller's business. *)
let rec layout t n ~size =
  (match Int_tbl.find_opt t.table (Dom.id n) with
   | Some e -> e.size <- size
   | None ->
     Int_tbl.replace t.table (Dom.id n) (fresh_entry t ~rel_start:0 ~size));
  match Dom.kind n with
  | Dom.Text _ | Dom.Comment _ | Dom.Pi _ -> ()
  | Dom.Element _ ->
    let children = Dom.children n in
    let k = List.length children in
    if k > 0 then begin
      let demands = List.map preferred children in
      let total = List.fold_left ( + ) 0 demands in
      let inner = size - 2 in
      assert (inner >= total);
      let gap = (inner - total) / (k + 1) in
      let pos = ref (1 + gap) in
      List.iter2
        (fun c demand ->
          layout t c ~size:demand;
          let e = entry t c in
          write t e ~rel_start:!pos ~size:demand;
          pos := !pos + demand + gap)
        children demands
    end

let of_document ?(counters = Counters.create ()) doc =
  let root = root_exn doc in
  let t = { doc; counters; table = Int_tbl.create 256 } in
  let size = preferred root in
  layout t root ~size;
  (entry t root).rel_start <- 0;
  t

(* O(depth) absolute position — the query-side cost of relative
   coordinates. *)
let absolute_start t n =
  let rec up n acc =
    Counters.add_node_access t.counters 1;
    let e = entry t n in
    match Dom.parent n with
    | None -> acc + e.rel_start
    | Some p -> up p (acc + e.rel_start)
  in
  up n 0

let absolute_interval t n =
  let s = absolute_start t n in
  (s, s + (entry t n).size - 1)

let max_coordinate t =
  let root = root_exn t.doc in
  (entry t root).size - 1

let bits_per_label t =
  let v = max_coordinate t in
  let rec go acc v = if v = 0 then acc else go (acc + 1) (v lsr 1) in
  Int.max 1 (go 0 v)

(* Current sizes of a parent's children (labeled ones). *)
let child_sizes t parent =
  List.map (fun c -> (entry t c).size) (Dom.children parent)

(* Re-place the children of [parent] (current sizes preserved — moving a
   subtree is one write) with even gaps; optionally treating the child at
   [index] as having size [need] (it may not be attached yet). *)
let renumber_children t parent ~sizes =
  let k = List.length sizes in
  let total = List.fold_left ( + ) 0 sizes in
  let inner = (entry t parent).size - 2 in
  assert (inner >= total);
  let gap = (inner - total) / (k + 1) in
  let pos = ref (1 + gap) in
  List.iter2
    (fun c size ->
      let e = entry t c in
      write t e ~rel_start:!pos ~size;
      pos := !pos + size + gap)
    (Dom.children parent) sizes

(* Grow [node]'s region to [new_size], recursing upward when its parent
   cannot host the bigger region. *)
let rec resize t node ~new_size =
  let e = entry t node in
  match Dom.parent node with
  | None ->
    (* The root's region is absolute and unconstrained. *)
    write t e ~rel_start:e.rel_start ~size:new_size
  | Some parent ->
    e.size <- new_size;
    Counters.add_relabel t.counters 1;
    let sizes = child_sizes t parent in
    let total = List.fold_left ( + ) 0 sizes in
    let pe = entry t parent in
    if pe.size - 2 >= total then renumber_children t parent ~sizes
    else begin
      resize t parent ~new_size:(2 + (2 * total));
      renumber_children t parent ~sizes
    end

(* Place a newly attached child at [index] (already in the DOM, already
   holding an entry with its size): first try the local gap, then a
   sibling renumber, then growing the parent. *)
let place_child t parent index child =
  let ce = entry t child in
  let need = ce.size in
  let children = Dom.children parent in
  let pe = entry t parent in
  let prev_end =
    if index = 0 then 0
    else
      let p = List.nth children (index - 1) in
      let e = entry t p in
      e.rel_start + e.size - 1
  in
  let next_start =
    if index + 1 >= List.length children then pe.size - 1
    else (entry t (List.nth children (index + 1))).rel_start
  in
  let gap = next_start - prev_end - 1 in
  if gap >= need then
    (* Fits in the local gap: one write, nothing else moves. *)
    write t ce ~rel_start:(prev_end + 1 + ((gap - need) / 2)) ~size:need
  else begin
    let sizes = child_sizes t parent in
    let total = List.fold_left ( + ) 0 sizes in
    if pe.size - 2 >= total then renumber_children t parent ~sizes
    else begin
      resize t parent ~new_size:(2 + (2 * total));
      renumber_children t parent ~sizes
    end
  end

let insert_subtree t ~parent ~index sub =
  (match Dom.parent sub with
   | Some _ -> invalid_arg "Rrc_doc.insert_subtree: subtree is attached"
   | None -> ());
  if not (mem t parent) then
    invalid_arg "Rrc_doc.insert_subtree: parent is not labeled";
  layout t sub ~size:(preferred sub);
  Dom.insert_child parent ~index sub;
  place_child t parent index sub

let is_ancestor t ~anc ~desc =
  let a1, a2 = absolute_interval t anc in
  let d1, d2 = absolute_interval t desc in
  a1 < d1 && d2 < a2

let check t =
  let root = root_exn t.doc in
  let count = ref 0 in
  let rec go n =
    incr count;
    let e = entry t n in
    if e.size < 1 then failwith "Rrc_doc: empty region";
    (match Dom.kind n with
     | Dom.Element _ ->
       if e.size < 2 then failwith "Rrc_doc: element region too small";
       let last_end = ref 0 in
       List.iter
         (fun c ->
           let ce = entry t c in
           if ce.rel_start <= !last_end then
             failwith "Rrc_doc: child regions overlap or are unordered";
           if ce.rel_start + ce.size - 1 > e.size - 2 then
             failwith "Rrc_doc: child region escapes its parent";
           last_end := ce.rel_start + ce.size - 1;
           go c)
         (Dom.children n)
     | Dom.Text _ | Dom.Comment _ | Dom.Pi _ ->
       if Dom.children n <> [] then failwith "Rrc_doc: atom with children");
    ()
  in
  go root;
  if Int_tbl.length t.table <> !count then
    failwith "Rrc_doc: table size does not match the document"
