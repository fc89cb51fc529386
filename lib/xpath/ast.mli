(** Abstract syntax for the supported XPath subset.

    Location steps use the abbreviated syntax ([/], [//], [..], [.]) or
    the explicit [axis::test] form for the other axes.  Predicates cover
    attribute tests, element-child tests and (proximity) positions. *)

type axis =
  | Child
  | Descendant (** the [//] separator *)
  | Self
  | Parent
  | Ancestor
  | Ancestor_or_self
  | Following (** after the context's end tag, in document order *)
  | Preceding (** before the context's begin tag (ancestors excluded) *)
  | Following_sibling
  | Preceding_sibling

type test =
  | Name of string
  | Wildcard (** [*]: any element *)
  | Text_node (** [text()] *)

type pred =
  | Has_attr of string (** [[@a]] *)
  | Attr_eq of string * string (** [[@a='v']] *)
  | Attr_neq of string * string (** [[@a!='v']] *)
  | Position of int
      (** [[k]], 1-based, in proximity order: the reverse axes (parent,
          the ancestor axes, the preceding axes) count nearest-first *)
  | Last (** [[last()]] *)
  | Exists of step list
      (** [[p]]: the relative path [p] selects something from here;
          subsumes the classic [[name]] element-child test *)
  | And of pred * pred
  | Or of pred * pred
  | Not of pred

and step = { axis : axis; test : test; preds : pred list }

type t = {
  absolute : bool; (** leading [/] or [//]: start from the document node *)
  steps : step list;
}

val to_string : t -> string
val equal : t -> t -> bool
