open Ltree_xml
module Column = Ltree_core.Column
module Counters = Ltree_metrics.Counters
module Labeled_doc = Ltree_doc.Labeled_doc
module Label_index = Ltree_relstore.Label_index
module Query = Ltree_relstore.Query

type item = { node : Dom.node; start_pos : int; end_pos : int; level : int }

(* One {!Label_index} entry per node test, keyed by [test_key]: the
   matching nodes in document order, the Dom id as row id and id.
   Steps hand each other entries: a test's whole entry, or the matches
   gathered into one of the workspace's step entries. *)
type t = {
  ldoc : Labeled_doc.t;
  feed : Labeled_doc.feed;
  index : Label_index.t;
  mutable version : int; (* document version [feed] was drained at *)
  one : Label_index.entry; (* a predicate's one-item context *)
  counters : Counters.t; (* the kernels' comparisons, not reported *)
}

let matches_test (test : Ast.test) node =
  match (test, Dom.kind node) with
  | Ast.Name n, Dom.Element name -> String.equal n name
  | Ast.Wildcard, Dom.Element _ -> true
  | Ast.Text_node, Dom.Text _ -> true
  | (Ast.Name _ | Ast.Wildcard | Ast.Text_node), _ -> false

(* ["*"] and ["text()"] are not XML names, so no element name collides
   with them. *)
let wildcard_key = "*"
let text_key = "text()"

let test_key (test : Ast.test) =
  match test with
  | Ast.Name n -> n
  | Ast.Wildcard -> wildcard_key
  | Ast.Text_node -> text_key

(* A test's rows for a full build: one preorder walk (preorder is
   document order). *)
let rids_of_test ldoc key =
  let acc = ref [] in
  let passes n =
    match Dom.kind n with
    | Dom.Element name ->
      String.equal key name || String.equal key wildcard_key
    | Dom.Text _ -> String.equal key text_key
    | Dom.Comment _ | Dom.Pi _ -> false
  in
  (match (Labeled_doc.document ldoc).root with
   | None -> ()
   | Some root ->
     Dom.iter_preorder root (fun n -> if passes n then acc := Dom.id n :: !acc));
  List.rev !acc

(* A row is its node's current slot; a node that left the document is a
   dead row. *)
let[@ltree.hot] fetch ldoc id (row : Label_index.row) =
  match Labeled_doc.slot_by_id ldoc id with
  | s ->
    row.r_start <- Labeled_doc.slot_start ldoc s;
    row.r_end <- Labeled_doc.slot_end ldoc s;
    row.r_level <- Labeled_doc.slot_level s;
    row.r_id <- id;
    row.r_dead <- false
  | exception Not_found -> row.r_dead <- true

(* The feed's callback: the node's row changed (or left) under every
   test it passes. *)
let[@ltree.hot] note t node =
  let rid = Dom.id node in
  match Dom.kind node with
  | Dom.Element name ->
    Label_index.note_change t.index ~tag:name ~rid;
    Label_index.note_change t.index ~tag:wildcard_key ~rid
  | Dom.Text _ -> Label_index.note_change t.index ~tag:text_key ~rid
  | Dom.Comment _ | Dom.Pi _ -> ()

let[@ltree.hot] note_live t s = note t (Labeled_doc.slot_node s)

let create ldoc =
  { ldoc; feed = Labeled_doc.track_dirty ldoc;
    index = Label_index.create ();
    version = Labeled_doc.version ldoc;
    one = Label_index.create_entry ~capacity:1 ();
    counters = Counters.create () }

(* A relabel burst longer than the index costs less as one re-read of
   each row the next queries use (relabels keep row order) than as one
   logged change per relabeled node, so it skips the feed. *)
let refresh t =
  let v = Labeled_doc.version t.ldoc in
  if v <> t.version then begin
    let burst =
      Ltree_core.Ltree.relabels_logged (Labeled_doc.tree t.ldoc)
      > Label_index.rows t.index
    in
    if burst then Label_index.note_relabeled t.index;
    Labeled_doc.drain_dirty ~relabels:(not burst) t.feed ~live:(note_live t)
      ~dead:(note t);
    t.version <- v
  end

let check t =
  refresh t;
  Label_index.check t.index ~fetch t.ldoc

(* The test's entry, built or repaired as needed; call after [refresh]. *)
let entry t (test : Ast.test) =
  Label_index.entry t.index t.counters ~rids_of_tag:rids_of_test ~fetch
    t.ldoc (test_key test)

let node_of t id = Labeled_doc.slot_node (Labeled_doc.slot_by_id t.ldoc id)

let item_of t node =
  match Labeled_doc.slot t.ldoc node with
  | s ->
    Some
      { node;
        start_pos = Labeled_doc.slot_start t.ldoc s;
        end_pos = Labeled_doc.slot_end t.ldoc s;
        level = Labeled_doc.slot_level s }
  | exception Not_found -> None

let item_of_row t (e : Label_index.entry) p =
  { node = node_of t (Column.get e.ids p);
    start_pos = Column.get e.starts p;
    end_pos = Column.get e.ends p;
    level = Column.get e.levels p }

let items_of t (e : Label_index.entry) = List.init e.len (item_of_row t e)

(* A step's output entry: whichever of the two step entries is not its
   input.  Every step reads its input completely before it evaluates a
   predicate (whose nested steps reuse both entries) and writes its
   output after, so the two suffice at any nesting depth. *)
let out_for t (input : Label_index.entry) =
  let steps = (Label_index.workspace t.index).w_steps in
  if input == steps.(0) then steps.(1) else steps.(0)

(* The rows of [cands] holding [groups]' items, which all pass
   [cands]' test: each item's position by binary search on its start
   label, sorted and deduplicated — document order, no duplicates —
   then gathered into [out]. *)
let set_of_items t (cands : Label_index.entry) groups out =
  let ws = Label_index.workspace t.index in
  Column.clear ws.w_dpos;
  List.iter
    (List.iter (fun it ->
         Column.push ws.w_dpos
           (Column.upper_bound t.counters cands.starts it.start_pos - 1)))
    groups;
  Column.sort_dedup ws.w_dpos ~mark:ws.w_mark;
  Query.gather cands ws out;
  out

(* The INL step's pairs come grouped by context, each group in
   document order: one item list per context with at least one match. *)
let inl_groups t cands (ws : Label_index.workspace) =
  let groups = ref [] and group = ref [] and cur = ref (-1) in
  let close () =
    (match !group with [] -> () | g -> groups := g :: !groups);
    group := []
  in
  for i = Column.length ws.w_dpos - 1 downto 0 do
    let dpos = Column.get ws.w_dpos i and apos = Column.get ws.w_apos i in
    if apos <> !cur then begin
      close ();
      cur := apos
    end;
    group := item_of_row t cands dpos :: !group
  done;
  close ();
  !groups

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

(* Predicates, proximity-positional per context group; [Exists] recurses
   into step evaluation (still via label joins) from the one-item set
   of [it], a row of [cands]. *)
let rec eval_pred t cands ~pos ~size it (pred : Ast.pred) =
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
    eval_pred t cands ~pos ~size it a && eval_pred t cands ~pos ~size it b
  | Ast.Or (a, b) ->
    eval_pred t cands ~pos ~size it a || eval_pred t cands ~pos ~size it b
  | Ast.Not p -> not (eval_pred t cands ~pos ~size it p)
  | Ast.Exists steps ->
    let ctx = set_of_items t cands [ [ it ] ] t.one in
    (List.fold_left (fun ctx step -> eval_step t step ctx) ctx steps).len > 0

and apply_preds t cands preds group =
  List.fold_left
    (fun items (pred : Ast.pred) ->
      let size = List.length items in
      List.filteri
        (fun i it -> eval_pred t cands ~pos:(i + 1) ~size it pred)
        items)
    group preds

(* One location step.  The child and descendant axes run one
   {!Query.step} between the context rows and the test's entry: the
   stack semi-join without predicates, the index nested loop with them,
   since positional predicates count within each context's group (on
   the child axis, either keeps the pairs one level apart).  The other
   axes filter per context by labels.  Every result is an entry in
   document order. *)
and eval_step t (step : Ast.step) (ctx : Label_index.entry) =
  let cands = entry t step.test in
  let ws = Label_index.workspace t.index in
  let out = out_for t ctx in
  match step.axis with
  | Ast.Child | Ast.Descendant -> (
    let child = match step.axis with Ast.Child -> true | _ -> false in
    match step.preds with
    | [] ->
      Query.step t.counters ~inl:false ~child ctx cands ws;
      Query.gather cands ws out;
      out
    | preds ->
      Query.step t.counters ~inl:true ~child ctx cands ws;
      let groups = inl_groups t cands ws in
      set_of_items t cands (List.map (apply_preds t cands preds) groups) out)
  | Ast.Self | Ast.Parent | Ast.Ancestor | Ast.Ancestor_or_self
  | Ast.Following | Ast.Preceding | Ast.Following_sibling
  | Ast.Preceding_sibling ->
    let items =
      (* The upward axes fetch labels per node; the order axes filter the
         test's entry. *)
      match step.axis with
      | Ast.Following | Ast.Preceding | Ast.Following_sibling
      | Ast.Preceding_sibling ->
        items_of t cands
      | _ -> []
    in
    set_of_items t cands
      (List.map
         (fun c -> apply_preds t cands step.preds (axis_group t step items c))
         (items_of t ctx))
      out

let eval t (path : Ast.t) =
  refresh t;
  match (Labeled_doc.document t.ldoc).root with
  | None -> []
  | Some root -> (
      match path.steps with
      | [] -> []
      | first :: rest ->
        let cands = entry t first.test in
        let ctx0 =
          match first.axis with
          | Ast.Child | Ast.Self when matches_test first.test root ->
            set_of_items t cands [ Option.to_list (item_of t root) ] t.one
          | Ast.Descendant ->
            (* The entry is root-inclusive already. *)
            cands
          | Ast.Child | Ast.Self | Ast.Parent | Ast.Ancestor
          | Ast.Ancestor_or_self | Ast.Following | Ast.Preceding
          | Ast.Following_sibling | Ast.Preceding_sibling ->
            set_of_items t cands [] t.one
        in
        let ctx0 =
          match first.preds with
          | [] -> ctx0
          | preds ->
            set_of_items t cands
              [ apply_preds t cands preds (items_of t ctx0) ]
              (out_for t ctx0)
        in
        let final =
          List.fold_left (fun ctx step -> eval_step t step ctx) ctx0 rest
        in
        List.init final.len (fun i -> node_of t (Column.get final.ids i)))

let eval_string t s = eval t (Xpath_parser.parse s)
