(** Reference XPath evaluator by plain DOM navigation.

    This is the specification the label-based evaluator is tested against:
    slower (no indexes, repeated subtree scans) but obviously correct. *)

open Ltree_xml

(** [eval doc path] returns matching nodes in document order, without
    duplicates.  A relative path is evaluated from the document node, like
    an absolute one. *)
val eval : Dom.document -> Ast.t -> Dom.node list
