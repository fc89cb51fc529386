open Ltree_xml
module Column = Ltree_core.Column
module Counters = Ltree_metrics.Counters
module Labeled_doc = Ltree_doc.Labeled_doc
module Label_index = Ltree_relstore.Label_index
module Query = Ltree_relstore.Query

type item = { node : Dom.node; start_pos : int; end_pos : int; level : int }

(* The slots of one node test, in document order.  L-Tree relabels
   preserve order, so a vector stays sorted through any number of them:
   only inserts and deletes change it, and [refresh] merges those in.
   [rows] holds the slots' current labels and depths as join input —
   the same entry type the label index and read snapshots use — and is
   rewritten in place when the document version moved.  A vector row
   has no table row and answers through its slot, so [rows.rids] and
   [rows.ids] both hold the row's own position. *)
type vector = {
  test : Ast.test;
  mutable slots : Labeled_doc.slot array; (* [0, len) live, sorted *)
  mutable len : int;
  rows : Label_index.entry;
  mutable rows_version : int;
}

(* What one location step hands the next: rows of one vector, in
   document order; [sel.rids] are positions in [vec]. *)
type set = { vec : vector; sel : Label_index.entry }

type t = {
  ldoc : Labeled_doc.t;
  vectors : (string, vector) Hashtbl.t; (* keyed by [test_key] *)
  mutable version : int; (* document version the vectors are current at *)
  mutable cursor : int; (* {!Labeled_doc.labeled_cursor} at that version *)
  ws : Label_index.workspace; (* the kernels' output; two step sets *)
  one : Label_index.entry; (* a predicate's one-item context *)
  counters : Counters.t; (* the kernels' comparisons, not reported *)
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
    cursor = Labeled_doc.labeled_cursor ldoc;
    ws = Label_index.create_workspace ();
    one = Label_index.create_entry ~capacity:1 ();
    counters = Counters.create () }

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
  let len = Array.length slots in
  { test; slots; len;
    rows = Label_index.create_entry ~capacity:(Int.max 1 len) ();
    rows_version = -1 }

(* ["*"] and ["text()"] are not XML names, so no element name collides
   with them. *)
let test_key (test : Ast.test) =
  match test with
  | Ast.Name n -> n
  | Ast.Wildcard -> "*"
  | Ast.Text_node -> "text()"

(* Rewrite [vec]'s join columns from its slots, once per document
   version: no allocation once the columns have grown.  The position
   columns hold the identity below [r.len] already, so only the rows
   past it are written. *)
let sync_rows t vec =
  if vec.rows_version <> t.version then begin
    let r = vec.rows and n = vec.len in
    Column.reserve r.starts n;
    Column.reserve r.ends n;
    Column.reserve r.rids n;
    Column.reserve r.levels n;
    Column.reserve r.ids n;
    for i = 0 to n - 1 do
      let s = vec.slots.(i) in
      Column.set r.starts i (start_of t s);
      Column.set r.ends i (Labeled_doc.slot_end t.ldoc s);
      Column.set r.levels i (Labeled_doc.slot_level s)
    done;
    for i = r.len to n - 1 do
      Column.set r.rids i i;
      Column.set r.ids i i
    done;
    Label_index.set_lens r n;
    vec.rows_version <- t.version
  end

(* The test's vector, current and with its join columns in sync. *)
let vector t (test : Ast.test) =
  refresh t;
  let key = test_key test in
  let vec =
    match Hashtbl.find_opt t.vectors key with
    | Some vec -> vec
    | None ->
      let vec = build t test in
      Hashtbl.replace t.vectors key vec;
      vec
  in
  sync_rows t vec;
  vec

let item_of_row vec p =
  { node = Labeled_doc.slot_node vec.slots.(p);
    start_pos = Column.get vec.rows.starts p;
    end_pos = Column.get vec.rows.ends p;
    level = Column.get vec.rows.levels p }

let items_of (s : set) =
  List.init s.sel.len (fun i -> item_of_row s.vec (Column.get s.sel.rids i))

let whole vec = { vec; sel = vec.rows }

(* A step's output entry: whichever of the two step entries is not its
   input.  Every step reads its input completely before it evaluates a
   predicate (whose nested steps reuse both entries) and writes its
   output after, so the two suffice at any nesting depth. *)
let out_for t (input : Label_index.entry) =
  let steps = t.ws.w_steps in
  if input == steps.(0) then steps.(1) else steps.(0)

(* The set of [vec] rows holding [groups]' items, which all pass
   [vec]'s test: each item's position by binary search on its start
   label, sorted and deduplicated — document order, no duplicates —
   then gathered into [out]. *)
let set_of_items t vec groups out =
  let ws = t.ws in
  Column.clear ws.w_dpos;
  List.iter
    (List.iter (fun it ->
         Column.push ws.w_dpos
           (Column.upper_bound t.counters vec.rows.starts it.start_pos - 1)))
    groups;
  Column.sort_dedup ws.w_dpos ~mark:ws.w_mark;
  Query.gather vec.rows ws out;
  { vec; sel = out }

(* Keep the kernel's pairs whose candidate sits one level below its
   context: the child axis. *)
let keep_children (ctx : set) cands (ws : Label_index.workspace) =
  let n = ref 0 in
  for i = 0 to Column.length ws.w_dpos - 1 do
    let dpos = Column.get ws.w_dpos i and apos = Column.get ws.w_apos i in
    if Column.get cands.rows.levels dpos = Column.get ctx.sel.levels apos + 1
    then begin
      Column.set ws.w_dpos !n dpos;
      Column.set ws.w_apos !n apos;
      incr n
    end
  done;
  Column.set_len ws.w_dpos !n;
  Column.set_len ws.w_apos !n

(* The INL probe's pairs come grouped by context, each group in
   document order: one item list per context with at least one match
   (on the child axis, one level below it). *)
let inl_groups ~child (ctx : set) cands (ws : Label_index.workspace) =
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
    if
      (not child)
      || Column.get cands.rows.levels dpos = Column.get ctx.sel.levels apos + 1
    then group := item_of_row cands dpos :: !group
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
   of [it], a row of [vec]. *)
let rec eval_pred t vec ~pos ~size it (pred : Ast.pred) =
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
    eval_pred t vec ~pos ~size it a && eval_pred t vec ~pos ~size it b
  | Ast.Or (a, b) ->
    eval_pred t vec ~pos ~size it a || eval_pred t vec ~pos ~size it b
  | Ast.Not p -> not (eval_pred t vec ~pos ~size it p)
  | Ast.Exists steps ->
    let ctx = set_of_items t vec [ [ it ] ] t.one in
    (List.fold_left (fun ctx step -> eval_step t step ctx) ctx steps).sel.len
    > 0

and apply_preds t vec preds group =
  List.fold_left
    (fun items (pred : Ast.pred) ->
      let size = List.length items in
      List.filteri
        (fun i it -> eval_pred t vec ~pos:(i + 1) ~size it pred)
        items)
    group preds

(* One location step.  The child and descendant axes run a {!Query}
   kernel between the context rows and the test's vector: the stack
   semi-join without predicates (on the child axis, kept where the
   innermost context is one level up), the index nested loop with them,
   since positional predicates count within each context's group.  The
   other axes filter per context by labels.  Every result is a set in
   document order. *)
and eval_step t (step : Ast.step) (ctx : set) =
  let cands = vector t step.test in
  let out = out_for t ctx.sel in
  match step.axis with
  | Ast.Child | Ast.Descendant -> (
    let child = match step.axis with Ast.Child -> true | _ -> false in
    match step.preds with
    | [] ->
      Query.semi_join t.counters ctx.sel cands.rows t.ws;
      if child then keep_children ctx cands t.ws;
      Query.gather cands.rows t.ws out;
      { vec = cands; sel = out }
    | preds ->
      Query.inl_probe t.counters ctx.sel cands.rows t.ws;
      let groups = inl_groups ~child ctx cands t.ws in
      set_of_items t cands (List.map (apply_preds t cands preds) groups) out)
  | Ast.Self | Ast.Parent | Ast.Ancestor | Ast.Ancestor_or_self
  | Ast.Following | Ast.Preceding | Ast.Following_sibling
  | Ast.Preceding_sibling ->
    let items =
      (* The upward axes fetch labels per node; the order axes filter the
         tag index. *)
      match step.axis with
      | Ast.Following | Ast.Preceding | Ast.Following_sibling
      | Ast.Preceding_sibling ->
        items_of (whole cands)
      | _ -> []
    in
    set_of_items t cands
      (List.map
         (fun c -> apply_preds t cands step.preds (axis_group t step items c))
         (items_of ctx))
      out

let eval t (path : Ast.t) =
  refresh t;
  match (Labeled_doc.document t.ldoc).root with
  | None -> []
  | Some root -> (
      match path.steps with
      | [] -> []
      | first :: rest ->
        let vec = vector t first.test in
        let ctx0 =
          match first.axis with
          | Ast.Child | Ast.Self when matches_test first.test root ->
            set_of_items t vec [ Option.to_list (item_of t root) ] t.one
          | Ast.Descendant ->
            (* The vector is root-inclusive already. *)
            whole vec
          | Ast.Child | Ast.Self | Ast.Parent | Ast.Ancestor
          | Ast.Ancestor_or_self | Ast.Following | Ast.Preceding
          | Ast.Following_sibling | Ast.Preceding_sibling ->
            set_of_items t vec [] t.one
        in
        let ctx0 =
          match first.preds with
          | [] -> ctx0
          | preds ->
            set_of_items t vec
              [ apply_preds t vec preds (items_of ctx0) ]
              (out_for t ctx0.sel)
        in
        let final =
          List.fold_left (fun ctx step -> eval_step t step ctx) ctx0 rest
        in
        List.init final.sel.len (fun i ->
            Labeled_doc.slot_node
              final.vec.slots.(Column.get final.sel.rids i)))

let eval_string t s = eval t (Xpath_parser.parse s)
