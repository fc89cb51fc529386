(** A mutable DOM for ordered XML documents.

    Nodes keep parent pointers and an ordered child list, so the document
    order the paper's labels must track is directly observable.  The
    [events] view linearizes a document into the begin-tag / end-tag / text
    token list of paper §2 ("an XML document in its textual representation
    is a linear ordered list of begin tags, end tags, and text sections").

    All structural mutation goes through this module so parent pointers
    never go stale. *)

type node

type kind =
  | Element of string (** tag name *)
  | Text of string
  | Comment of string
  | Pi of string * string

type document = {
  mutable root : node option;
  mutable xml_decl : (string * string) list option;
  mutable doctype : string option;
  mutable prolog_misc : node list;
      (** comments / PIs appearing before the root *)
}

(** {1 Construction} *)

val element : ?attrs:(string * string) list -> string -> node
val text : string -> node
val comment : string -> node
val pi : target:string -> data:string -> node

(** [document root] wraps a root element. *)
val document : node -> document

(** {1 Inspection} *)

val kind : node -> kind

(** [id n] is a process-unique integer identity for [n]; use it to key
    hash tables (nodes themselves are cyclic, so structural hashing and
    equality must be avoided). *)
val id : node -> int

val name : node -> string
(** Tag name of an element; raises [Invalid_argument] otherwise. *)

val attrs : node -> (string * string) list
val attr : node -> string -> string option

(** [set_text n s] replaces the content of a text node.  Raises
    [Invalid_argument] on non-text nodes.  (Under an L-Tree labeling
    this is free: the node keeps its single label slot.) *)
val set_text : node -> string -> unit
val parent : node -> node option
val children : node -> node list
val child_count : node -> int
val is_element : node -> bool
val is_text : node -> bool

(** {1 Mutation} *)

val append_child : node -> node -> unit
(** Raises [Invalid_argument] if the child already has a parent or if the
    target is not an element. *)

val insert_child : node -> index:int -> node -> unit

(** [insert_after ~anchor n] splices [n] right after the sibling
    [anchor]. *)
val insert_after : anchor:node -> node -> unit

(** [remove n] detaches [n] from its parent. *)
val remove : node -> unit

val index_in_parent : node -> int

(** {1 Traversal} *)

(** [iter_preorder n f] visits [n] and its descendants in document order. *)
val iter_preorder : node -> (node -> unit) -> unit

val descendants : node -> node list

(** [elements_by_name n tag] lists descendant-or-self elements named
    [tag], in document order. *)
val elements_by_name : node -> string -> node list

(** [size n] counts nodes in the subtree. *)
val size : node -> int

(** {1 The event (tag-list) view} *)

type event =
  | E_start of node (** begin tag of an element *)
  | E_end of node (** end tag of the same element *)
  | E_atom of node (** a text / comment / PI node: a single list slot *)

(** [events n] is the §2 linear tag list of the subtree at [n]: a begin
    and an end event per element and one atom per non-element. *)
val events : node -> event list

(** [event_count n] is [List.length (events n)], computed without
    materializing the list. *)
val event_count : node -> int

(** [equal_structure a b] compares two subtrees structurally (names,
    attributes, text, order). *)
val equal_structure : node -> node -> bool

