type axis =
  | Child
  | Descendant
  | Self
  | Parent
  | Ancestor
  | Ancestor_or_self
  | Following
  | Preceding
  | Following_sibling
  | Preceding_sibling

type test = Name of string | Wildcard | Text_node

type pred =
  | Has_attr of string
  | Attr_eq of string * string
  | Attr_neq of string * string
  | Position of int
  | Last
  | Exists of step list
  | And of pred * pred
  | Or of pred * pred
  | Not of pred

and step = { axis : axis; test : test; preds : pred list }

type t = { absolute : bool; steps : step list }

let axis_name = function
  | Child -> "child"
  | Descendant -> "descendant"
  | Self -> "self"
  | Parent -> "parent"
  | Ancestor -> "ancestor"
  | Ancestor_or_self -> "ancestor-or-self"
  | Following -> "following"
  | Preceding -> "preceding"
  | Following_sibling -> "following-sibling"
  | Preceding_sibling -> "preceding-sibling"

let pp_test ppf = function
  | Name s -> Format.pp_print_string ppf s
  | Wildcard -> Format.pp_print_string ppf "*"
  | Text_node -> Format.pp_print_string ppf "text()"

(* Predicate expressions print with minimal parentheses:
   or < and < not/atoms. *)
let rec pp_expr prec ppf = function
  | Or (a, b) ->
    if prec > 0 then
      Format.fprintf ppf "(%a or %a)" (pp_expr 0) a (pp_expr 1) b
    else Format.fprintf ppf "%a or %a" (pp_expr 0) a (pp_expr 1) b
  | And (a, b) ->
    if prec > 1 then
      Format.fprintf ppf "(%a and %a)" (pp_expr 1) a (pp_expr 2) b
    else Format.fprintf ppf "%a and %a" (pp_expr 1) a (pp_expr 2) b
  | Not p -> Format.fprintf ppf "not(%a)" (pp_expr 0) p
  | Has_attr a -> Format.fprintf ppf "@%s" a
  | Attr_eq (a, v) -> Format.fprintf ppf "@%s='%s'" a v
  | Attr_neq (a, v) -> Format.fprintf ppf "@%s!='%s'" a v
  | Position k -> Format.fprintf ppf "%d" k
  | Last -> Format.pp_print_string ppf "last()"
  | Exists steps -> pp_steps ~absolute:false ppf steps

and pp_pred ppf p = Format.fprintf ppf "[%a]" (pp_expr 0) p

and pp_steps ~absolute ppf steps =
  List.iteri
    (fun i step ->
      let lead = i > 0 || absolute in
      (match step.axis with
       | Child -> if lead then Format.pp_print_string ppf "/"
       | Descendant ->
         if lead then Format.pp_print_string ppf "//"
         else Format.pp_print_string ppf "descendant::"
       | axis ->
         if lead then Format.pp_print_string ppf "/";
         Format.fprintf ppf "%s::" (axis_name axis));
      pp_test ppf step.test;
      List.iter (pp_pred ppf) step.preds)
    steps

let pp ppf t = pp_steps ~absolute:t.absolute ppf t.steps
let to_string t = Format.asprintf "%a" pp t
let equal_axis (a : axis) (b : axis) =
  match (a, b) with
  | Child, Child
  | Descendant, Descendant
  | Self, Self
  | Parent, Parent
  | Ancestor, Ancestor
  | Ancestor_or_self, Ancestor_or_self
  | Following, Following
  | Preceding, Preceding
  | Following_sibling, Following_sibling
  | Preceding_sibling, Preceding_sibling ->
    true
  | ( ( Child | Descendant | Self | Parent | Ancestor | Ancestor_or_self
      | Following | Preceding | Following_sibling | Preceding_sibling ),
      _ ) ->
    false

let equal_test (a : test) (b : test) =
  match (a, b) with
  | Name x, Name y -> String.equal x y
  | Wildcard, Wildcard | Text_node, Text_node -> true
  | (Name _ | Wildcard | Text_node), _ -> false

let rec equal_pred (a : pred) (b : pred) =
  match (a, b) with
  | Has_attr x, Has_attr y -> String.equal x y
  | Attr_eq (x, v), Attr_eq (y, w) | Attr_neq (x, v), Attr_neq (y, w) ->
    String.equal x y && String.equal v w
  | Position i, Position j -> Int.equal i j
  | Last, Last -> true
  | Exists xs, Exists ys -> List.equal equal_step xs ys
  | And (p, q), And (r, s) | Or (p, q), Or (r, s) ->
    equal_pred p r && equal_pred q s
  | Not p, Not q -> equal_pred p q
  | ( ( Has_attr _ | Attr_eq _ | Attr_neq _ | Position _ | Last | Exists _
      | And _ | Or _ | Not _ ),
      _ ) ->
    false

and equal_step (a : step) (b : step) =
  equal_axis a.axis b.axis
  && equal_test a.test b.test
  && List.equal equal_pred a.preds b.preds

let equal (a : t) (b : t) =
  Bool.equal a.absolute b.absolute && List.equal equal_step a.steps b.steps
