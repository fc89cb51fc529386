module Int_tbl = Ltree_metrics.Int_tbl
open Ltree_xml

let matches_test (test : Ast.test) node =
  match (test, Dom.kind node) with
  | Ast.Name n, Dom.Element name -> String.equal n name
  | Ast.Wildcard, Dom.Element _ -> true
  | Ast.Text_node, Dom.Text _ -> true
  | (Ast.Name _ | Ast.Wildcard | Ast.Text_node), _ -> false

let descendants_matching test node =
  let acc = ref [] in
  let rec go n =
    List.iter
      (fun c ->
        if matches_test test c then acc := c :: !acc;
        go c)
      (Dom.children n)
  in
  go node;
  List.rev !acc

let rec top_of node =
  match Dom.parent node with None -> node | Some p -> top_of p

(* Ancestors, nearest first (the axis's proximity order). *)
let ancestors node =
  let rec go acc n =
    match Dom.parent n with None -> List.rev acc | Some p -> go (p :: acc) p
  in
  go [] node

let siblings_after node =
  match Dom.parent node with
  | None -> []
  | Some p ->
    let idx = Dom.index_in_parent node in
    List.filteri (fun i _ -> i > idx) (Dom.children p)

let siblings_before node =
  (* Nearest first (proximity order for a reverse axis). *)
  match Dom.parent node with
  | None -> []
  | Some p ->
    let idx = Dom.index_in_parent node in
    List.rev (List.filteri (fun i _ -> i < idx) (Dom.children p))

(* Document-order positions over the context's whole tree, for the
   following/preceding axes and for final sorting. *)
let order_map root =
  let tbl = Int_tbl.create 256 in
  let i = ref 0 in
  Dom.iter_preorder root (fun n ->
      Int_tbl.replace tbl (Dom.id n) !i;
      incr i);
  tbl

let following node =
  (* Everything after [node]'s subtree, in document order: for each
     ancestor-or-self, the subtrees of its following siblings. *)
  let acc = ref [] in
  List.iter
    (fun a ->
      List.iter
        (fun sib -> Dom.iter_preorder sib (fun x -> acc := x :: !acc))
        (siblings_after a))
    (node :: ancestors node);
  (* Nearest ancestor's following siblings come first already only per
     level; restore global document order. *)
  let root = top_of node in
  let order = order_map root in
  List.sort
    (fun a b ->
      Int.compare (Int_tbl.find order (Dom.id a))
        (Int_tbl.find order (Dom.id b)))
    !acc

let preceding node =
  (* Everything strictly before [node]'s begin tag, ancestors excluded;
     proximity order = reverse document order. *)
  let root = top_of node in
  let order = order_map root in
  let my_order = Int_tbl.find order (Dom.id node) in
  let ancs = ancestors node in
  let acc = ref [] in
  Dom.iter_preorder root (fun x ->
      if
        Int_tbl.find order (Dom.id x) < my_order
        && (not (List.memq x ancs))
        && x != node
      then acc := x :: !acc);
  !acc (* iter_preorder visited in doc order; the fold reversed it *)

(* Predicates, proximity-positional per context group; [Exists] recurses
   into step evaluation. *)
let rec eval_pred ~pos ~size node (pred : Ast.pred) =
  match pred with
  | Ast.Position k -> pos = k
  | Ast.Last -> pos = size
  | Ast.Has_attr a ->
    Dom.is_element node && Option.is_some (Dom.attr node a)
  | Ast.Attr_eq (a, v) -> (
      match if Dom.is_element node then Dom.attr node a else None with
      | Some x -> String.equal x v
      | None -> false)
  | Ast.Attr_neq (a, v) -> (
      match if Dom.is_element node then Dom.attr node a else None with
      | Some x -> not (String.equal x v)
      | None -> false)
  | Ast.And (a, b) ->
    eval_pred ~pos ~size node a && eval_pred ~pos ~size node b
  | Ast.Or (a, b) ->
    eval_pred ~pos ~size node a || eval_pred ~pos ~size node b
  | Ast.Not p -> not (eval_pred ~pos ~size node p)
  | Ast.Exists steps -> (
      match eval_rel node steps with [] -> false | _ :: _ -> true)

(* Apply predicates to one context's proximity-ordered candidate list;
   each predicate sees positions within the previous one's survivors. *)
and apply_preds preds candidates =
  List.fold_left
    (fun cands (pred : Ast.pred) ->
      let size = List.length cands in
      List.filteri (fun i n -> eval_pred ~pos:(i + 1) ~size n pred) cands)
    candidates preds

and eval_step (step : Ast.step) context =
  let candidates =
    match step.axis with
    | Ast.Child -> List.filter (matches_test step.test) (Dom.children context)
    | Ast.Descendant -> descendants_matching step.test context
    | Ast.Self -> List.filter (matches_test step.test) [ context ]
    | Ast.Parent ->
      List.filter (matches_test step.test)
        (Option.to_list (Dom.parent context))
    | Ast.Ancestor -> List.filter (matches_test step.test) (ancestors context)
    | Ast.Ancestor_or_self ->
      List.filter (matches_test step.test) (context :: ancestors context)
    | Ast.Following ->
      List.filter (matches_test step.test) (following context)
    | Ast.Preceding ->
      List.filter (matches_test step.test) (preceding context)
    | Ast.Following_sibling ->
      List.filter (matches_test step.test) (siblings_after context)
    | Ast.Preceding_sibling ->
      List.filter (matches_test step.test) (siblings_before context)
  in
  apply_preds step.preds candidates

(* Relative path existence from one node. *)
and eval_rel node steps =
  List.fold_left
    (fun contexts step ->
      let seen = Int_tbl.create 8 in
      List.concat_map
        (fun ctx ->
          List.filter
            (fun n ->
              if Int_tbl.mem seen (Dom.id n) then false
              else begin
                Int_tbl.replace seen (Dom.id n) ();
                true
              end)
            (eval_step step ctx))
        contexts)
    [ node ] steps

let eval_steps root steps contexts =
  let result =
    List.fold_left
      (fun contexts step ->
        let seen = Int_tbl.create 16 in
        List.concat_map
          (fun ctx ->
            List.filter
              (fun n ->
                if Int_tbl.mem seen (Dom.id n) then false
                else begin
                  Int_tbl.replace seen (Dom.id n) ();
                  true
                end)
              (eval_step step ctx))
          contexts)
      contexts steps
  in
  let order = order_map root in
  let pos n =
    match Int_tbl.find_opt order (Dom.id n) with
    | Some i -> i
    | None -> -1 (* nodes above the evaluation root keep stable order *)
  in
  List.sort (fun a b -> Int.compare (pos a) (pos b)) result

(* The document node behaves as a virtual parent of the root element: a
   leading child step tests the root itself, a leading descendant step
   scans root-inclusive; leading reverse axes are empty. *)
let eval (doc : Dom.document) (path : Ast.t) =
  match doc.root with
  | None -> []
  | Some root -> (
      match path.steps with
      | [] -> []
      | first :: rest ->
        let base =
          match first.axis with
          | Ast.Child | Ast.Self ->
            if matches_test first.test root then [ root ] else []
          | Ast.Descendant ->
            let self =
              if matches_test first.test root then [ root ] else []
            in
            self @ descendants_matching first.test root
          | Ast.Parent | Ast.Ancestor | Ast.Ancestor_or_self | Ast.Following
          | Ast.Preceding | Ast.Following_sibling | Ast.Preceding_sibling ->
            []
        in
        let contexts0 = apply_preds first.preds base in
        eval_steps root rest contexts0)

let eval_from node (path : Ast.t) =
  eval_steps (top_of node) path.steps [ node ]
