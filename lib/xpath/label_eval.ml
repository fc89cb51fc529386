open Ltree_xml
module Column = Ltree_core.Column
module Counters = Ltree_metrics.Counters
module Labeled_doc = Ltree_doc.Labeled_doc
module Label_index = Ltree_relstore.Label_index
module Query = Ltree_relstore.Query

(* One {!Label_index} entry per node test, keyed by [test_key]: the
   matching nodes in document order, the Dom id as row id and id.
   Steps hand each other entries: a test's whole entry, or the matches
   gathered into one of the workspace's step entries. *)
type t = {
  ldoc : Labeled_doc.t;
  feed : Labeled_doc.feed;
  index : Label_index.t;
  mutable version : int; (* document version [feed] was drained at *)
  one : Label_index.entry; (* a predicate's one-row context *)
  counters : Counters.t; (* the kernels' comparisons, not reported *)
}

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

(* Node sets are positions into a test's entry [e].  A node passes the
   test exactly when its start label is in [e]: [pos_of_start] is that
   row's position, or -1. *)
let pos_of_start t (e : Label_index.entry) start =
  let p = Label_index.upper_bound t.counters e start - 1 in
  if p >= 0 && Column.get e.starts p = start then p else -1

let pos_of_node t e node =
  let s = Labeled_doc.slot t.ldoc node in
  pos_of_start t e (Labeled_doc.slot_start t.ldoc s)

let singleton p = if p < 0 then [] else [ p ]

(* The positions in [lo, hi) that [keep] accepts, in document order, or
   nearest-first (reversed) with [~rev]. *)
let positions ?(rev = false) lo hi keep =
  let cons p acc = if keep p then p :: acc else acc in
  let rec fwd p acc = if p < lo then acc else fwd (p - 1) (cons p acc) in
  let rec bwd p acc = if p >= hi then acc else bwd (p + 1) (cons p acc) in
  if rev then bwd lo [] else fwd (hi - 1) []

(* A step's output entry: whichever of the two step entries is not its
   input.  Every step reads its input completely before it evaluates a
   predicate (whose nested steps reuse both entries and the workspace)
   and writes its output after, so the two suffice at any nesting
   depth. *)
let out_for t (input : Label_index.entry) =
  let steps = (Label_index.workspace t.index).w_steps in
  if input == steps.(0) then steps.(1) else steps.(0)

(* The rows of [cands] at the positions in [groups], gathered into [out]
   in document order without duplicates. *)
let gather_groups t (cands : Label_index.entry) groups out =
  let ws = Label_index.workspace t.index in
  Column.clear ws.w_dpos;
  List.iter (List.iter (Column.push ws.w_dpos)) groups;
  Column.sort_dedup ws.w_dpos ~mark:ws.w_mark;
  Query.gather cands ws out;
  out

(* The INL step's pairs come grouped by context, each group in
   document order: one position list per context with a match. *)
let inl_groups (ws : Label_index.workspace) =
  let close group groups = if group = [] then groups else group :: groups in
  let rec go i cur group groups =
    if i < 0 then close group groups
    else
      let apos = Column.get ws.w_apos i and dpos = Column.get ws.w_dpos i in
      if apos = cur then go (i - 1) cur (dpos :: group) groups
      else go (i - 1) apos [ dpos ] (close group groups)
  in
  go (Column.length ws.w_dpos - 1) (-1) [] []

(* The candidates of the non-join axes for context row [i] of [ctx], as
   positions into [cands] in proximity order (reverse axes
   nearest-first) for positional predicates.  The order axes read a
   label range of [cands]: following starts after the context's end,
   preceding ends before its start (so excludes its ancestors), and a
   sibling sits at the context's level inside its parent's interval.
   The upward axes walk the DOM's parent pointers and find each parent
   by its start label, as an RDBMS would combine a parent-id column
   with the label index. *)
let axis_group t (step : Ast.step) (cands : Label_index.entry)
    (ctx : Label_index.entry) i =
  let start = Column.get ctx.starts i and end_ = Column.get ctx.ends i in
  let level = Column.get ctx.levels i in
  let node () = node_of t (Column.get ctx.ids i) in
  let ub key = Label_index.upper_bound t.counters cands key in
  let at_level p = Column.get cands.levels p = level in
  let parent_slot () =
    Option.map (Labeled_doc.slot t.ldoc) (Dom.parent (node ()))
  in
  let rec ancestors n =
    match Dom.parent n with
    | None -> []
    | Some p -> singleton (pos_of_node t cands p) @ ancestors p
  in
  match step.axis with
  | Ast.Child | Ast.Descendant -> assert false (* handled by the join *)
  | Ast.Self -> singleton (pos_of_start t cands start)
  | Ast.Parent ->
    Option.fold ~none:[] ~some:(fun p -> singleton (pos_of_node t cands p))
      (Dom.parent (node ()))
  | Ast.Ancestor -> ancestors (node ())
  | Ast.Ancestor_or_self ->
    singleton (pos_of_start t cands start) @ ancestors (node ())
  | Ast.Following -> positions (ub end_) cands.len (fun _ -> true)
  | Ast.Preceding ->
    positions ~rev:true 0 (ub start) (fun p ->
        Column.get cands.ends p < start)
  | Ast.Following_sibling -> (
      match parent_slot () with
      | None -> []
      | Some s ->
        positions (ub end_) (ub (Labeled_doc.slot_end t.ldoc s)) at_level)
  | Ast.Preceding_sibling -> (
      match parent_slot () with
      | None -> []
      | Some s ->
        (* starts strictly between the parent's and the context's *)
        positions ~rev:true
          (ub (Labeled_doc.slot_start t.ldoc s))
          (ub (start - 1)) at_level)

let attr t (cands : Label_index.entry) p a =
  let node = node_of t (Column.get cands.ids p) in
  if Dom.is_element node then Dom.attr node a else None

(* Predicates, proximity-positional per context group, on position [p]
   of [cands]; [Exists] runs its steps (still label joins) from [p]'s
   row gathered into the one-row entry. *)
let rec eval_pred t cands ~pos ~size p (pred : Ast.pred) =
  match pred with
  | Ast.Position k -> pos = k
  | Ast.Last -> pos = size
  | Ast.Has_attr a -> Option.is_some (attr t cands p a)
  | Ast.Attr_eq (a, v) -> (
      match attr t cands p a with
      | Some x -> String.equal x v
      | None -> false)
  | Ast.Attr_neq (a, v) -> (
      match attr t cands p a with
      | Some x -> not (String.equal x v)
      | None -> false)
  | Ast.And (a, b) ->
    eval_pred t cands ~pos ~size p a && eval_pred t cands ~pos ~size p b
  | Ast.Or (a, b) ->
    eval_pred t cands ~pos ~size p a || eval_pred t cands ~pos ~size p b
  | Ast.Not q -> not (eval_pred t cands ~pos ~size p q)
  | Ast.Exists steps ->
    let ctx = gather_groups t cands [ [ p ] ] t.one in
    (List.fold_left (fun ctx step -> eval_step t step ctx) ctx steps).len > 0

and apply_preds t cands preds group =
  List.fold_left
    (fun group (pred : Ast.pred) ->
      let size = List.length group in
      List.filteri
        (fun i p -> eval_pred t cands ~pos:(i + 1) ~size p pred)
        group)
    group preds

(* One location step.  The child and descendant axes run one
   {!Query.step} between the context rows and the test's entry: the
   stack semi-join without predicates, the index nested loop with them,
   since positional predicates count within each context's group (on
   the child axis, either keeps the pairs one level apart).  The other
   axes read one group per context from the test's entry.  All groups
   are read before any predicate runs.  Every result is an entry in
   document order. *)
and eval_step t (step : Ast.step) (ctx : Label_index.entry) =
  let cands = entry t step.test in
  let ws = Label_index.workspace t.index in
  let out = out_for t ctx in
  let child = match step.axis with Ast.Child -> true | _ -> false in
  match (step.axis, step.preds) with
  | (Ast.Child | Ast.Descendant), [] ->
    Query.step t.counters ~inl:false ~child ctx cands ws;
    Query.gather cands ws out;
    out
  | _, preds ->
    let groups =
      match step.axis with
      | Ast.Child | Ast.Descendant ->
        Query.step t.counters ~inl:true ~child ctx cands ws;
        inl_groups ws
      | _ -> List.init ctx.len (axis_group t step cands ctx)
    in
    gather_groups t cands (List.map (apply_preds t cands preds) groups) out

(* The document node is the virtual parent of the root element: a
   leading child or self step tests the root, a leading descendant step
   starts from the root-inclusive entry, and the other leading axes are
   empty. *)
let eval t (path : Ast.t) =
  refresh t;
  match ((Labeled_doc.document t.ldoc).root, path.steps) with
  | None, _ | _, [] -> []
  | Some root, first :: rest ->
    let cands = entry t first.test in
    let ctx0 =
      match (first.axis, first.preds) with
      | Ast.Descendant, [] -> cands
      | axis, preds ->
        let group =
          match axis with
          | Ast.Child | Ast.Self -> singleton (pos_of_node t cands root)
          | Ast.Descendant -> List.init cands.len Fun.id
          | Ast.Parent | Ast.Ancestor | Ast.Ancestor_or_self | Ast.Following
          | Ast.Preceding | Ast.Following_sibling | Ast.Preceding_sibling ->
            []
        in
        gather_groups t cands [ apply_preds t cands preds group ]
          (out_for t cands)
    in
    let final =
      List.fold_left (fun ctx step -> eval_step t step ctx) ctx0 rest
    in
    List.init final.len (fun i -> node_of t (Column.get final.ids i))

let eval_string t s = eval t (Xpath_parser.parse s)
