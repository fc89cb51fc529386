(** Label-based XPath evaluation — the paper's motivating use.

    Each location step is answered by a {e structural join} between the
    current context set and a tag index, comparing L-Tree label intervals
    instead of navigating the tree: ancestor/descendant is interval
    containment ([start_a < start_d && end_d < end_a], §1), parent/child
    adds a level equality.  The join is the classic stack-based merge over
    inputs sorted by start label, O(|contexts| + |candidates| + |output|).
    A child or descendant step without predicates is a {e semi-join}: it
    emits each candidate with an open context once, already in document
    order (for the child axis, when the innermost open context is one
    level up, i.e. is the parent).  Steps with predicates keep
    per-context groups, because positional predicates count within each
    context.

    The tag index is one vector of {!Ltree_doc.Labeled_doc.slot}s per
    node test, in document order, built on first use by one document
    walk.  L-Tree relabels preserve order, so a vector stays sorted
    through them: only inserts and deletes change it, and {!refresh}
    merges those in.

    Results are identical to {!Dom_eval} (property-tested, also under
    random edit schedules) but need no subtree traversal, which is what
    makes labels worth maintaining under updates. *)

open Ltree_xml

type t

(** [create ldoc] makes an evaluator over the labeled document.  Tag
    vectors are built lazily, on the first query that needs them. *)
val create : Ltree_doc.Labeled_doc.t -> t

(** [refresh t] brings the tag vectors up to date with the document.
    When nothing changed ({!Ltree_doc.Labeled_doc.version} unmoved) it
    is one int compare.  Otherwise it costs one table probe per L-Tree
    leaf allocated since the last call
    ({!Ltree_doc.Labeled_doc.iter_labeled_since}), a sort of the [s]
    slots still live among them, and one pass over each existing vector
    to drop its deleted slots and merge the fresh ones in place:
    O(leaves + s log s + the vectors' lengths), independent of the
    number of relabels.  Calling it is optional: {!eval} refreshes
    first. *)
val refresh : t -> unit

(** [eval t path] returns matching nodes in document order, without
    duplicates. *)
val eval : t -> Ast.t -> Dom.node list

(** [eval_string t s] parses and evaluates.  Raises
    {!Xpath_parser.Error} on a bad path. *)
val eval_string : t -> string -> Dom.node list
