(** Relative Region Coordinates — the paper's reference [6] (Kha,
    Yoshikawa, Uemura, ICDE 2001), reimplemented as a comparison point.

    Where the L-Tree stores {e absolute} begin/end positions (so
    ancestor tests are O(1) integer comparisons but insertions must
    relabel a region of absolute labels), RRC stores each node's region
    {e relative to its parent}: an insertion only renumbers siblings
    under one parent (shifting a subtree costs a single write, because
    its interior coordinates move with it), while computing an absolute
    position — needed for every ancestor/order test — walks the parent
    chain, costing O(depth) accesses per query.

    This realizes the trade the paper attributes to [6]: "a multi-level
    labeling scheme, which trades query cost to get better update cost"
    (§5).  Experiment E12 measures both sides against the L-Tree.

    Regions are sized with compounding slack (each element asks for
    twice the sum of its children's preferred sizes), so coordinates are
    wider than L-Tree labels — the space face of the same trade. *)

open Ltree_xml

type t

(** [of_document ?counters doc] lays out regions for the whole document.
    Counters record one [relabel] per (re)written region and one
    [node_access] per parent-chain hop during queries. *)
val of_document : ?counters:Ltree_metrics.Counters.t -> Dom.document -> t

(** [is_ancestor] matches {!Labeled_doc.is_ancestor}'s semantics. *)
val is_ancestor : t -> anc:Dom.node -> desc:Dom.node -> bool

(** [insert_subtree t ~parent ~index sub] attaches and lays out a
    detached subtree; renumbering stays local to one sibling list unless
    the parent's region must grow (which recurses upward). *)
val insert_subtree : t -> parent:Dom.node -> index:int -> Dom.node -> unit

(** [bits_per_label t] is the width of the largest absolute coordinate
    (for label-size comparisons). *)
val bits_per_label : t -> int

(** [check t] verifies region nesting, ordering and table consistency. *)
val check : t -> unit
