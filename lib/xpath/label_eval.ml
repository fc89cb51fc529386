module Int_tbl = Ltree_metrics.Int_tbl
open Ltree_xml
module Labeled_doc = Ltree_doc.Labeled_doc

type item = { node : Dom.node; start_pos : int; end_pos : int; level : int }

(* The slots of one node test, in document order.  L-Tree relabels
   preserve order, so a vector stays sorted through any number of them:
   only inserts and deletes change it, and [refresh] merges those in.
   [items] snapshots the slots' labels for the evaluator's joins; it is
   rebuilt (without a sort) when the document version moved. *)
type vector = {
  test : Ast.test;
  mutable slots : Labeled_doc.slot array; (* [0, len) live, sorted *)
  mutable len : int;
  mutable items : item array;
  mutable items_version : int;
}

type t = {
  ldoc : Labeled_doc.t;
  vectors : (string, vector) Hashtbl.t; (* keyed by [test_key] *)
  mutable version : int; (* document version the vectors are current at *)
  mutable cursor : int; (* {!Labeled_doc.labeled_cursor} at that version *)
}

let matches_test (test : Ast.test) node =
  match (test, Dom.kind node) with
  | Ast.Name n, Dom.Element name -> String.equal n name
  | Ast.Wildcard, Dom.Element _ -> true
  | Ast.Text_node, Dom.Text _ -> true
  | (Ast.Name _ | Ast.Wildcard | Ast.Text_node), _ -> false

let start_of t s = Labeled_doc.slot_start t.ldoc s

let item_of_slot t s =
  { node = Labeled_doc.slot_node s;
    start_pos = start_of t s;
    end_pos = Labeled_doc.slot_end t.ldoc s;
    level = Labeled_doc.slot_level s }

let item_of t node =
  match Labeled_doc.slot t.ldoc node with
  | s -> Some (item_of_slot t s)
  | exception Not_found -> None

let create ldoc =
  { ldoc; vectors = Hashtbl.create 16;
    version = Labeled_doc.version ldoc;
    cursor = Labeled_doc.labeled_cursor ldoc }

(* Bring [vec] up to date in place: drop its dead slots, then merge in
   the matching ones of [fresh] (sorted by descending start label) from
   the back.  Live labels are distinct and every relabel kept their
   order, so one merge pass restores document order. *)
let merge_into t vec fresh =
  let a = vec.slots in
  let live = ref 0 in
  for r = 0 to vec.len - 1 do
    let s = a.(r) in
    if Labeled_doc.slot_live s then begin
      a.(!live) <- s;
      incr live
    end
  done;
  let mine =
    List.filter (fun s -> matches_test vec.test (Labeled_doc.slot_node s)) fresh
  in
  let n = !live + List.length mine in
  let a =
    match mine with
    | s :: _ when n > Array.length a ->
      let b = Array.make (Int.max n (2 * Array.length a)) s in
      Array.blit a 0 b 0 !live;
      b
    | _ -> a
  in
  let i = ref (!live - 1) and w = ref (n - 1) in
  List.iter
    (fun f ->
      let fs = start_of t f in
      while !i >= 0 && start_of t a.(!i) > fs do
        a.(!w) <- a.(!i);
        decr i;
        decr w
      done;
      a.(!w) <- f;
      decr w)
    mine;
  (* Overwrite the cells past [n] so dead slots (and the subtrees they
     hold) can be collected. *)
  if n = 0 then vec.slots <- [||]
  else begin
    if n < vec.len then Array.fill a n (vec.len - n) a.(0);
    vec.slots <- a
  end;
  vec.len <- n

let refresh t =
  let v = Labeled_doc.version t.ldoc in
  if v <> t.version then begin
    let fresh = ref [] in
    Labeled_doc.iter_labeled_since t.ldoc t.cursor (fun s ->
        fresh := s :: !fresh);
    let fresh =
      List.sort (fun a b -> Int.compare (start_of t b) (start_of t a)) !fresh
    in
    Hashtbl.iter (fun _ vec -> merge_into t vec fresh) t.vectors;
    t.version <- v;
    t.cursor <- Labeled_doc.labeled_cursor t.ldoc
  end

(* First use of a test: one preorder walk (preorder is document order).
   Only called right after [refresh], so the vector starts current. *)
let build t (test : Ast.test) =
  let acc = ref [] in
  (match (Labeled_doc.document t.ldoc).root with
   | None -> ()
   | Some root ->
     Dom.iter_preorder root (fun n ->
         if matches_test test n then acc := Labeled_doc.slot t.ldoc n :: !acc));
  let slots = Array.of_list (List.rev !acc) in
  { test; slots; len = Array.length slots; items = [||]; items_version = -1 }

(* ["*"] and ["text()"] are not XML names, so no element name collides
   with them. *)
let test_key (test : Ast.test) =
  match test with
  | Ast.Name n -> n
  | Ast.Wildcard -> "*"
  | Ast.Text_node -> "text()"

let vector t (test : Ast.test) =
  refresh t;
  let key = test_key test in
  match Hashtbl.find_opt t.vectors key with
  | Some vec -> vec
  | None ->
    let vec = build t test in
    Hashtbl.replace t.vectors key vec;
    vec

(* The test's live nodes with their current labels, in document order:
   read straight off the vector, no table lookup and no sort, once per
   document version.  A position whose node and labels did not move
   keeps its item: most labels survive an update, and allocating every
   item afresh each version let the items of several versions pile up
   young between minor collections, which the collection landing in a
   query then promoted all at once. *)
let sorted_items t (test : Ast.test) =
  let vec = vector t test in
  if vec.items_version <> t.version then begin
    let old = vec.items in
    vec.items <-
      Array.init vec.len (fun i ->
          let s = vec.slots.(i) in
          if
            i < Array.length old
            && old.(i).node == Labeled_doc.slot_node s
            && old.(i).start_pos = start_of t s
            && old.(i).end_pos = Labeled_doc.slot_end t.ldoc s
            && old.(i).level = Labeled_doc.slot_level s
          then old.(i)
          else item_of_slot t s);
    vec.items_version <- t.version
  end;
  vec.items

let candidates t test = Array.to_list (sorted_items t test)

(* First position in [arr] with [start_pos > key] (binary search). *)
let upper_bound (arr : item array) key =
  let lo = ref 0 and hi = ref (Array.length arr) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if arr.(mid).start_pos <= key then lo := mid + 1 else hi := mid
  done;
  !lo

(* Array-cursor structural join, the same shape as the relstore plan:
   both inputs sorted by start label, int-index cursors, the open
   ancestors kept on a growable int-array stack (interval end + input
   position), and a binary-search leap of the descendant cursor whenever
   the stack runs empty.  [visit stack_pos sp d] sees each descendant
   [d] that has an open ancestor, in document order, with the open
   ancestors' positions in [a] at [stack_pos.(0 .. sp-1)], outermost
   first.  XML intervals either nest or are disjoint, so every stacked
   ancestor containing the start contains the whole interval. *)
let stack_join (a : item array) (d : item array) visit =
  let alen = Array.length a and dlen = Array.length d in
  let stack_end = ref (Array.make 16 0) in
  let stack_pos = ref (Array.make 16 0) in
  let sp = ref 0 in
  let push apos aend =
    if !sp = Array.length !stack_end then begin
      let bigger_end = Array.make (2 * !sp) 0
      and bigger_pos = Array.make (2 * !sp) 0 in
      Array.blit !stack_end 0 bigger_end 0 !sp;
      Array.blit !stack_pos 0 bigger_pos 0 !sp;
      stack_end := bigger_end;
      stack_pos := bigger_pos
    end;
    !stack_end.(!sp) <- aend;
    !stack_pos.(!sp) <- apos;
    incr sp
  in
  let pop_closed bound =
    while !sp > 0 && !stack_end.(!sp - 1) <= bound do
      decr sp
    done
  in
  let ai = ref 0 and di = ref 0 in
  let finished = ref false in
  while (not !finished) && !di < dlen do
    let ds = d.(!di).start_pos in
    while !ai < alen && a.(!ai).start_pos < ds do
      pop_closed a.(!ai).start_pos;
      push !ai a.(!ai).end_pos;
      incr ai
    done;
    pop_closed ds;
    if !sp > 0 then begin
      visit !stack_pos !sp d.(!di);
      incr di
    end
    else if !ai >= alen then finished := true
    else di := Int.max (!di + 1) (upper_bound d a.(!ai).start_pos)
  done

(* Every (ancestor, descendant) pair; each ancestor's group arrives in
   document order. *)
let structural_join ancs d =
  let a = Array.of_list ancs in
  let pairs = ref [] in
  stack_join a d (fun stack_pos sp dn ->
      for s = 0 to sp - 1 do
        pairs := (a.(stack_pos.(s)), dn) :: !pairs
      done);
  List.rev !pairs

(* Semi-join for a step without predicates: each matching candidate
   once, already in document order, with no pairs to group or dedup.  A
   descendant matches when any context is open.  A child matches when
   its parent is a context, and then the parent is the innermost open
   context: the test is the stack top's level. *)
let semi_join ~child ancs d =
  let a = Array.of_list ancs in
  let out = ref [] in
  stack_join a d (fun stack_pos sp dn ->
      if (not child) || a.(stack_pos.(sp - 1)).level = dn.level - 1 then
        out := dn :: !out);
  List.rev !out

(* Per-context candidate selection for the non-join axes.  Order-based
   axes (following/preceding and the sibling axes) read only label
   comparisons; the upward axes read the DOM's parent pointers and the
   labels for ordering, mirroring how an RDBMS would combine a parent-id
   column with the label index.  Groups are in proximity order (reverse
   axes nearest-first) for positional predicates. *)
let axis_group t (step : Ast.step) cands (c : item) : item list =
  match step.axis with
  | Ast.Child | Ast.Descendant -> assert false (* handled by the join *)
  | Ast.Self -> if matches_test step.test c.node then [ c ] else []
  | Ast.Parent ->
    (match Dom.parent c.node with
     | Some p when matches_test step.test p ->
       Option.to_list (item_of t p)
     | Some _ | None -> [])
  | Ast.Ancestor | Ast.Ancestor_or_self ->
    let rec up acc n =
      match Dom.parent n with
      | None -> List.rev acc (* built nearest-first, keep proximity *)
      | Some p ->
        let acc =
          if matches_test step.test p then
            match item_of t p with Some it -> it :: acc | None -> acc
          else acc
        in
        up acc p
    in
    let self =
      match step.axis with
      | Ast.Ancestor_or_self when matches_test step.test c.node -> [ c ]
      | _ -> []
    in
    self @ up [] c.node
  | Ast.Following ->
    (* Pure label comparison: start after the context's end tag. *)
    List.filter (fun d -> d.start_pos > c.end_pos) cands
  | Ast.Preceding ->
    (* End before the context's begin tag — ancestors are excluded
       automatically (their end is after).  Proximity = reverse order. *)
    List.rev (List.filter (fun d -> d.end_pos < c.start_pos) cands)
  | Ast.Following_sibling ->
    (match Dom.parent c.node with
     | None -> []
     | Some p ->
       (match item_of t p with
        | None -> []
        | Some pi ->
          List.filter
            (fun d ->
              d.level = c.level
              && d.start_pos > c.end_pos
              && d.end_pos < pi.end_pos)
            cands))
  | Ast.Preceding_sibling ->
    (match Dom.parent c.node with
     | None -> []
     | Some p ->
       (match item_of t p with
        | None -> []
        | Some pi ->
          List.rev
            (List.filter
               (fun d ->
                 d.level = c.level
                 && d.end_pos < c.start_pos
                 && d.start_pos > pi.start_pos)
               cands)))

let dedup_sorted groups =
  let seen = Int_tbl.create 16 in
  let out = ref [] in
  List.iter
    (fun group ->
      List.iter
        (fun it ->
          let k = Dom.id it.node in
          if not (Int_tbl.mem seen k) then begin
            Int_tbl.replace seen k ();
            out := it :: !out
          end)
        group)
    groups;
  List.sort (fun a b -> Int.compare a.start_pos b.start_pos) !out

(* Predicates, proximity-positional per context group; [Exists] recurses
   into step evaluation (still via label joins). *)
let rec eval_pred t ~pos ~size it (pred : Ast.pred) =
  match pred with
  | Ast.Position k -> pos = k
  | Ast.Last -> pos = size
  | Ast.Has_attr a ->
    Dom.is_element it.node && Option.is_some (Dom.attr it.node a)
  | Ast.Attr_eq (a, v) -> (
      match if Dom.is_element it.node then Dom.attr it.node a else None with
      | Some x -> String.equal x v
      | None -> false)
  | Ast.Attr_neq (a, v) -> (
      match if Dom.is_element it.node then Dom.attr it.node a else None with
      | Some x -> not (String.equal x v)
      | None -> false)
  | Ast.And (a, b) ->
    eval_pred t ~pos ~size it a && eval_pred t ~pos ~size it b
  | Ast.Or (a, b) ->
    eval_pred t ~pos ~size it a || eval_pred t ~pos ~size it b
  | Ast.Not p -> not (eval_pred t ~pos ~size it p)
  | Ast.Exists steps -> (
      match List.fold_left (fun ctx step -> eval_step t step ctx) [ it ] steps with
      | [] -> false
      | _ :: _ -> true)

and apply_preds t preds group =
  List.fold_left
    (fun items (pred : Ast.pred) ->
      let size = List.length items in
      List.filteri (fun i it -> eval_pred t ~pos:(i + 1) ~size it pred) items)
    group preds

(* One location step: structural joins for the child/descendant axes
   (a semi-join without predicates; per-context pair groups with them,
   since positional predicates count within each context), per-context
   label filters for the rest; results dedup to document order. *)
and eval_step t (step : Ast.step) contexts =
  match step.axis with
  | Ast.Child | Ast.Descendant -> (
    let child = match step.axis with Ast.Child -> true | _ -> false in
    let cands = sorted_items t step.test in
    match step.preds with
    | [] -> semi_join ~child contexts cands
    | preds ->
      let pairs = structural_join contexts cands in
      let pairs =
        if child then List.filter (fun (a, d) -> d.level = a.level + 1) pairs
        else pairs
      in
      let groups : item list Int_tbl.t = Int_tbl.create 16 in
      let anchor_order = ref [] in
      List.iter
        (fun (a, d) ->
          let key = Dom.id a.node in
          (match Int_tbl.find_opt groups key with
           | None ->
             anchor_order := key :: !anchor_order;
             Int_tbl.replace groups key [ d ]
           | Some ds -> Int_tbl.replace groups key (d :: ds)))
        pairs;
      dedup_sorted
        (List.rev_map
           (fun key -> apply_preds t preds (List.rev (Int_tbl.find groups key)))
           !anchor_order))
  | Ast.Self | Ast.Parent | Ast.Ancestor | Ast.Ancestor_or_self
  | Ast.Following | Ast.Preceding | Ast.Following_sibling
  | Ast.Preceding_sibling ->
    let cands =
      (* The upward axes fetch labels per node; the order axes filter the
         tag index. *)
      match step.axis with
      | Ast.Following | Ast.Preceding | Ast.Following_sibling
      | Ast.Preceding_sibling ->
        candidates t step.test
      | _ -> []
    in
    dedup_sorted
      (List.map
         (fun c -> apply_preds t step.preds (axis_group t step cands c))
         contexts)

let eval t (path : Ast.t) =
  refresh t;
  match (Labeled_doc.document t.ldoc).root with
  | None -> []
  | Some root -> (
      match path.steps with
      | [] -> []
      | first :: rest ->
        let root_item = item_of t root in
        let matches_root = matches_test first.test root in
        let contexts0 =
          match first.axis with
          | Ast.Child | Ast.Self ->
            if matches_root then Option.to_list root_item else []
          | Ast.Descendant ->
            (* [candidates] is root-inclusive already. *)
            candidates t first.test
          | Ast.Parent | Ast.Ancestor | Ast.Ancestor_or_self | Ast.Following
          | Ast.Preceding | Ast.Following_sibling | Ast.Preceding_sibling ->
            []
        in
        let contexts0 = apply_preds t first.preds contexts0 in
        let final =
          List.fold_left (fun ctx step -> eval_step t step ctx) contexts0 rest
        in
        List.map (fun it -> it.node) final)

let eval_string t s = eval t (Xpath_parser.parse s)
