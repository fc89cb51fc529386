(** The materialized L-Tree (paper §2).

    An L-Tree is an ordered, balanced tree whose leaves carry, in document
    order, the tags of an XML document (or any ordered list).  Leaf numbers
    are the labels; they obey [num(child_i) = num(parent) + i * (f-1)^h]
    and are strictly increasing left to right (Prop. 1), so label order is
    document order.

    Invariants maintained across every operation (Prop. 2):
    - all leaves are at depth [height t];
    - every internal node [v] has [m^h(v) <= leaves(v) < s * m^h(v)]
      (the root is exempt from the lower bound) and
      [m <= children(v) <= f - 1] (the root is exempt from the lower
      bound);
    - one insertion triggers at most one split (Prop. 3).

    Handles ([leaf]) stay valid across relabelings, splits and [compact].

    Cost accounting on the {!Ltree_metrics.Counters.t}: one node access per
    ancestor whose leaf count is updated and per internal node built during
    a split; one relabel per node whose number actually changes. *)

type t
type leaf

(** [create ?params ?counters ()] is an empty L-Tree (default parameters:
    {!Params.fig2}). *)
val create : ?params:Params.t -> ?counters:Ltree_metrics.Counters.t ->
  unit -> t

(** [bulk_load ?params ?counters n] builds the §2.2 bulk-loaded tree over
    [n] fresh leaves and returns them in order. *)
val bulk_load : ?params:Params.t -> ?counters:Ltree_metrics.Counters.t ->
  int -> t * leaf array

(** [of_labels ?params ?counters ~height labels] reconstructs the
    materialized L-Tree whose leaves carry exactly [labels] (strictly
    increasing), at the given [height].  This realizes the §4.2
    observation that "all the structural information of the L-Tree is
    implicit in the labels themselves": each label's radix-(f-1) digits
    name its ancestors, so the tree is rebuilt without any further input
    — and continuing to update the rebuilt tree behaves identically to
    updating the original (property-tested).

    Raises [Ltree_analysis.Invariant.Violation] (name ["ltree.of_labels"])
    when [labels] is not a valid leaf sequence for a height-[height]
    L-Tree (unsorted, out of range, non-contiguous child positions, or
    occupancies outside the paper's windows) — harnesses turn the
    violation into a {!Ltree_analysis.Invariant.Counterexample} dump. *)
val of_labels :
  ?params:Params.t -> ?counters:Ltree_metrics.Counters.t -> height:int ->
  int array -> t * leaf array

val params : t -> Params.t
val counters : t -> Ltree_metrics.Counters.t

(** [length t] counts label slots, including tombstoned leaves;
    [live_length t] excludes them. *)
val length : t -> int

val live_length : t -> int

(** [height t] is the height of the root (>= 1). *)
val height : t -> int

(** {1 Updates} *)

(** [insert_after t w] / [insert_before t w] insert one leaf next to [w]
    (paper Algorithm 1).  Raise {!Params.Label_overflow} when the labels
    would exceed the native integer range. *)
val insert_after : t -> leaf -> leaf

val insert_before : t -> leaf -> leaf

(** [insert_first t] inserts in front of everything (or into an empty
    tree). *)
val insert_first : t -> leaf

(** [insert_batch_after t w k] inserts [k] consecutive leaves right after
    [w] with a single region rebuild (paper §4.1); cheaper per leaf than
    [k] separate insertions. *)
val insert_batch_after : t -> leaf -> int -> leaf array

(** [delete t w] tombstones the leaf: no relabeling happens (§2.3), the
    slot keeps its label and still counts toward node occupancy. *)
val delete : t -> leaf -> unit

val is_deleted : leaf -> bool

(** [compact t] rebuilds the tree over the live leaves only, dropping
    tombstones (an extension beyond the paper; see DESIGN.md §6).  Handles
    of live leaves remain valid. *)
val compact : t -> unit

(** {1 Labels} *)

(** [label t w] is the current number of leaf [w]: O(1). *)
val label : t -> leaf -> int

(** [leaf_id w] is a tree-unique identity for the slot (allocated from a
    per-tree counter, so a given construction sequence is reproducible),
    stable across relabelings — key external tables with it.  Ids from
    different trees may collide; qualify with the tree if you mix them. *)
val leaf_id : leaf -> int

(** [last_leaf_id t] is the id of the most recently allocated leaf (0 for
    none yet).  Ids are allocated in increasing order and never reused,
    so the leaves created after a moment [c = last_leaf_id t] are exactly
    those with id in [(c, last_leaf_id t]]; [compact] reuses leaf objects
    and allocates none. *)
val last_leaf_id : t -> int

(** {2 The relabel log}

    Storage layers need to know which persisted labels went stale.  The
    tree keeps that record itself: once {!track_relabels} is called,
    every leaf whose number changes (initial numbering at
    [bulk_load]/[of_labels] excluded) is appended to a log at most once
    between drains.  Marking costs a bitmap test, a bit set and an int
    push — no callback, no hashing, no allocation once the log has
    grown.  This replaces the former per-relabel callback hook. *)

(** [track_relabels t] starts (or restarts) the relabel log, empty. *)
val track_relabels : t -> unit

(** [drain_relabels t f] calls [f] with the id ({!leaf_id}) of every leaf
    relabeled since the last drain or {!track_relabels}, once each, in
    the order they were first relabeled, and empties the log.  [f] must
    not mutate [t]. *)
val drain_relabels : t -> (int -> unit) -> unit

(** [relabels_logged t] is the number of leaves in the relabel log: how
    many the next {!drain_relabels} reports. *)
val relabels_logged : t -> int

(** [version t] is a monotone stamp bumped by every mutation that can
    change the label sequence (insertions, batch insertions, deletions,
    compaction).  Caches keyed on it — e.g. the XPath label engine's tag
    index — are exactly as fresh as the
    labels: equal stamps guarantee no label moved, appeared or died
    since the cache was filled. *)
val version : t -> int

(** [compare t a b] orders live handles by document order. *)
val compare : t -> leaf -> leaf -> int

(** [max_label t] is the largest label currently assigned (0 when empty);
    [bits_per_label t] the bits needed to store it. *)
val max_label : t -> int

val bits_per_label : t -> int

(** {1 Traversal} *)

val iter_leaves : t -> (leaf -> unit) -> unit

(** [labels t] is the label sequence, in order, tombstones included. *)
val labels : t -> int array

(** [find_by_label t lab] locates the leaf currently numbered [lab] in
    O(height) time by descending the tree along [lab]'s radix-(f-1)
    digits (§4.2) — no auxiliary index needed. *)
val find_by_label : t -> int -> leaf option

(** [first t] is the leftmost slot. *)
val first : t -> leaf option

(** {1 Validation and debugging} *)

(** [check t] verifies every structural invariant listed above plus label
    consistency; raises [Failure] with a diagnostic otherwise. *)
val check : t -> unit

(** [pp ppf t] draws the tree with its numbers, in the style of the
    paper's Figure 2. *)
val pp : Format.formatter -> t -> unit

(** [internal_node_count t] sizes the materialized structure (for the §4.2
    space-vs-time comparison). *)
val internal_node_count : t -> int

