type kind =
  | Element of string
  | Text of string
  | Comment of string
  | Pi of string * string

type node = {
  node_id : int; (* process-unique, for identity-keyed tables *)
  mutable node_kind : kind;
  mutable node_attrs : (string * string) list;
  mutable node_children : node list;
  mutable node_parent : node option;
}

type document = {
  mutable root : node option;
  mutable xml_decl : (string * string) list option;
  mutable doctype : string option;
  mutable prolog_misc : node list;
}

(* Atomic so documents can be built from worker domains without ever
   handing out a duplicate node id. *)
let next_id = Atomic.make 0

let make kind =
  let id = Atomic.fetch_and_add next_id 1 + 1 in
  { node_id = id; node_kind = kind; node_attrs = [];
    node_children = []; node_parent = None }

let id n = n.node_id

let element ?(attrs = []) name =
  let n = make (Element name) in
  n.node_attrs <- attrs;
  n

let text s = make (Text s)
let comment s = make (Comment s)
let pi ~target ~data = make (Pi (target, data))

let document root =
  { root = Some root; xml_decl = None; doctype = None; prolog_misc = [] }

let kind n = n.node_kind

let name n =
  match n.node_kind with
  | Element name -> name
  | Text _ | Comment _ | Pi _ ->
    invalid_arg "Dom.name: not an element"

let attrs n = n.node_attrs
let attr n k = List.assoc_opt k n.node_attrs

let set_text n s =
  match n.node_kind with
  | Text _ -> n.node_kind <- Text s
  | Element _ | Comment _ | Pi _ ->
    invalid_arg "Dom.set_text: not a text node"

let parent n = n.node_parent
let children n = n.node_children
let child_count n = List.length n.node_children

let is_element n =
  match n.node_kind with Element _ -> true | Text _ | Comment _ | Pi _ -> false

let is_text n =
  match n.node_kind with Text _ -> true | Element _ | Comment _ | Pi _ -> false

let require_element n what =
  match n.node_kind with
  | Element _ -> ()
  | Text _ | Comment _ | Pi _ ->
    invalid_arg (what ^ ": target is not an element")

let require_detached c what =
  match c.node_parent with
  | Some _ -> invalid_arg (what ^ ": child already attached")
  | None -> ()

let append_child p c =
  require_element p "Dom.append_child";
  require_detached c "Dom.append_child";
  p.node_children <- p.node_children @ [ c ];
  c.node_parent <- Some p

let insert_child p ~index c =
  require_element p "Dom.insert_child";
  require_detached c "Dom.insert_child";
  let n = List.length p.node_children in
  if index < 0 || index > n then invalid_arg "Dom.insert_child: bad index";
  let rec splice i = function
    | rest when i = index -> c :: rest
    | [] -> assert false
    | x :: rest -> x :: splice (i + 1) rest
  in
  p.node_children <- splice 0 p.node_children;
  c.node_parent <- Some p

let index_in_parent n =
  match n.node_parent with
  | None -> invalid_arg "Dom.index_in_parent: detached node"
  | Some p ->
    let rec go i = function
      | [] -> invalid_arg "Dom.index_in_parent: broken parent link"
      | x :: rest -> if x == n then i else go (i + 1) rest
    in
    go 0 p.node_children

let insert_after ~anchor c =
  match anchor.node_parent with
  | None -> invalid_arg "Dom.insert_after: anchor is detached"
  | Some p -> insert_child p ~index:(index_in_parent anchor + 1) c

let remove n =
  match n.node_parent with
  | None -> invalid_arg "Dom.remove: already detached"
  | Some p ->
    p.node_children <- List.filter (fun c -> c != n) p.node_children;
    n.node_parent <- None

let rec iter_preorder n f =
  f n;
  List.iter (fun c -> iter_preorder c f) n.node_children

let descendants n =
  let acc = ref [] in
  iter_preorder n (fun x -> acc := x :: !acc);
  List.rev !acc

let elements_by_name n tag =
  let acc = ref [] in
  iter_preorder n (fun x ->
      match x.node_kind with
      | Element name when name = tag -> acc := x :: !acc
      | Element _ | Text _ | Comment _ | Pi _ -> ());
  List.rev !acc

let size n =
  let c = ref 0 in
  iter_preorder n (fun _ -> incr c);
  !c

type event = E_start of node | E_end of node | E_atom of node

let events n =
  let acc = ref [] in
  let rec go n =
    match n.node_kind with
    | Element _ ->
      acc := E_start n :: !acc;
      List.iter go n.node_children;
      acc := E_end n :: !acc
    | Text _ | Comment _ | Pi _ -> acc := E_atom n :: !acc
  in
  go n;
  List.rev !acc

let event_count n =
  let c = ref 0 in
  iter_preorder n (fun x ->
      match x.node_kind with
      | Element _ -> c := !c + 2
      | Text _ | Comment _ | Pi _ -> incr c);
  !c

(* Attributes compare as an unordered set of (name, value) pairs. *)
let compare_attr (k1, v1) (k2, v2) =
  match String.compare k1 k2 with 0 -> String.compare v1 v2 | c -> c

let equal_attr (k1, v1) (k2, v2) = String.equal k1 k2 && String.equal v1 v2
let sort_attrs attrs = List.sort compare_attr attrs

let rec equal_structure a b =
  match (a.node_kind, b.node_kind) with
  | Element na, Element nb ->
    String.equal na nb
    && List.equal equal_attr (sort_attrs a.node_attrs) (sort_attrs b.node_attrs)
    && List.length a.node_children = List.length b.node_children
    && List.for_all2 equal_structure a.node_children b.node_children
  | Text x, Text y | Comment x, Comment y -> String.equal x y
  | Pi (t1, d1), Pi (t2, d2) -> String.equal t1 t2 && String.equal d1 d2
  | (Element _ | Text _ | Comment _ | Pi _), _ -> false

