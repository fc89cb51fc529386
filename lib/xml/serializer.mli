(** DOM → XML text. *)

(** [node_to_string ?indent n] serializes a subtree, escaping [& < >] in
    text and additionally the double quote in attribute values.  With
    [indent] (a number of spaces), children are pretty-printed on their
    own lines — only safe for data-centric documents, since it inserts
    whitespace. *)
val node_to_string : ?indent:int -> Dom.node -> string

(** [to_string ?indent doc] serializes the whole document, including the
    XML declaration, DOCTYPE and prolog comments when present. *)
val to_string : ?indent:int -> Dom.document -> string

(** [add_document buf doc] appends exactly the bytes of [to_string doc]
    (no indentation) to [buf], with no intermediate string: the
    snapshot image writes its XML section this way. *)
val add_document : Buffer.t -> Dom.document -> unit
