(** Label-based XPath evaluation — the paper's motivating use.

    Each child or descendant location step is answered by a
    {e structural join} between the current context set and a tag
    index, comparing L-Tree label intervals instead of navigating the
    tree: ancestor/descendant is interval containment
    ([start_a < start_d && end_d < end_a], §1), parent/child adds a
    level equality.  Each join is one step of the label plan driver
    ({!Ltree_relstore.Query.step}), and its matches are gathered into
    the next step's input.  A step without predicates is the stack
    semi-join: each candidate with an open context once, already in
    document order (for the child axis, when the innermost open context
    is one level up, i.e. is the parent).  A step with predicates is
    the index nested loop, because positional predicates count within
    each context's group, and a context's group is its probe range in
    the candidate entry.  The other axes read, per context, a label
    range of the candidate entry (the order axes) or each DOM parent's
    row found by its start label (the upward axes); within a step,
    node sets are positions into the candidate entry.

    The tag index is an instance of the store's per-tag index
    ({!Ltree_relstore.Label_index}): one entry per node test ([name],
    [*], [text()]), built on first use by one document walk, whose rows
    are the matching nodes' {!Dom.id}s and slot labels.  The
    evaluator's own document feed says which nodes changed, and the
    index repairs only the entries they touch.

    Results are identical to {!Dom_eval} (property-tested, also under
    random edit schedules) but need no subtree traversal, which is what
    makes labels worth maintaining under updates. *)

open Ltree_xml

type t

(** [create ldoc] makes an evaluator over the labeled document and
    registers its feed on [ldoc].  Tag entries are built lazily, on the
    first query that needs them. *)
val create : Ltree_doc.Labeled_doc.t -> t

(** [refresh t] brings the evaluator up to date with the document: one
    int compare when {!Ltree_doc.Labeled_doc.version} is unmoved,
    otherwise a drain of its feed that logs each changed node under the
    tests it passes.  The next query repairs a logged entry in place,
    in O(changed rows · log + the entry's length), not a rewrite of
    every row per version.  A relabel burst of more leaves than the
    index has rows skips the feed's relabel log: the entries re-read
    their rows in place instead.  {!eval} refreshes first. *)
val refresh : t -> unit

(** [eval t path] returns matching nodes in document order, without
    duplicates. *)
val eval : t -> Ast.t -> Dom.node list

(** [eval_string t s] parses and evaluates.  Raises
    {!Xpath_parser.Error} on a bad path. *)
val eval_string : t -> string -> Dom.node list

(** [check t] refreshes, then runs {!Ltree_relstore.Label_index.check}
    on the tag index against the nodes' slots.  Raises [Failure]. *)
val check : t -> unit
