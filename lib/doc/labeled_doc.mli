(** An XML document wired to an L-Tree.

    This is the paper's end-to-end object: every element owns two L-Tree
    leaves (its begin and end tags), every text/comment/PI node owns one,
    and the leaf numbers are the element's [(start, end)] label pair of §1.
    Ancestor/descendant tests become interval containment; document-order
    comparison becomes integer comparison; and updates are subtree
    insertions/deletions that the L-Tree absorbs with local relabeling
    (single-leaf inserts via Algorithm 1, subtree inserts via the §4.1
    batch path).

    Levels (root = 0) are also tracked, which lets the query layer answer
    the child axis from labels alone. *)

open Ltree_xml
open Ltree_core

type t

type label = {
  start_pos : int; (** begin-tag leaf number *)
  end_pos : int; (** end-tag leaf number (= start for non-elements) *)
  level : int; (** depth below the root (root = 0) *)
}

(** [of_document ?params ?counters doc] bulk-loads the L-Tree from the
    document's tag list (paper §2.2). *)
val of_document :
  ?params:Params.t -> ?counters:Ltree_metrics.Counters.t -> Dom.document ->
  t

(** [restore ?counters ~params ~height ~labels ~deleted doc] rebuilds a
    labeled document from persisted label state (see {!Snapshot}):
    [labels] lists every slot's label in order (tombstones included),
    [deleted] the tombstoned slot positions.  Labels are reconstructed
    into a full L-Tree via {!Ltree.of_labels} — no relabeling happens, so
    previously handed-out label values stay valid.  Raises
    [Invalid_argument] when the live slots do not match the document's
    tag list or the labels are not a valid L-Tree leaf sequence. *)
val restore :
  ?counters:Ltree_metrics.Counters.t -> params:Params.t -> height:int ->
  labels:int array -> deleted:int list -> Dom.document -> t

val document : t -> Dom.document
val tree : t -> Ltree.t
val counters : t -> Ltree_metrics.Counters.t

(** [version t] is the underlying L-Tree's mutation stamp
    ({!Ltree.version}): unchanged iff no label moved, appeared or died.
    Query-layer caches (sorted per-tag indexes) key on it. *)
val version : t -> int

(** [label t n] is the current label of a labeled node.
    Raises [Not_found] for nodes outside the document. *)
val label : t -> Dom.node -> label

val mem : t -> Dom.node -> bool

(** {1 Slots}

    A slot is a labeled node's own record: its begin/end leaves and its
    level.  Reading a slot's label, level or liveness is a few field
    loads, with no table lookup — the query layer keeps vectors of
    slots and reads fresh labels through them. *)

type slot

(** [slot t n] is [n]'s current slot.  Raises [Not_found] for nodes
    outside the document. *)
val slot : t -> Dom.node -> slot

val slot_node : slot -> Dom.node

(** [slot_start t s] / [slot_end t s]: the slot's current begin/end
    labels (equal for non-elements). *)
val slot_start : t -> slot -> int

val slot_end : t -> slot -> int
val slot_level : slot -> int

(** [slot_live s] is false once the slot's node was deleted, or moved
    (a move tombstones the old slot and labels a fresh one).  A dead
    slot never comes back to life. *)
val slot_live : slot -> bool

(** [labeled_cursor t] marks the current moment for
    {!iter_labeled_since}: the last L-Tree leaf id allocated
    ({!Ltree.last_leaf_id}).  Relabels and [compact] do not move it. *)
val labeled_cursor : t -> int

(** [iter_labeled_since t cursor f] calls [f] once on every live slot
    labeled after [cursor] was taken — the nodes inserted (or moved)
    since then and still in the document — in no particular order.
    Costs one column read per leaf allocated since [cursor]. *)
val iter_labeled_since : t -> int -> (slot -> unit) -> unit

(** {1 The §1 query predicates} *)

(** [is_ancestor t ~anc ~desc]: interval containment
    [start(anc) < start(desc) && end(desc) < end(anc)]. *)
val is_ancestor : t -> anc:Dom.node -> desc:Dom.node -> bool

(** {1 Updates} *)

(** [insert_subtree t ~parent ~index sub] attaches the detached DOM
    subtree [sub] as [parent]'s [index]-th child and labels all its tags
    with one §4.1 batch insertion.  Raises [Invalid_argument] when [sub]
    is attached or [parent] is not a labeled element. *)
val insert_subtree : t -> parent:Dom.node -> index:int -> Dom.node -> unit

(** [delete_subtree t n] detaches [n] and tombstones its leaves — no
    relabeling, per §2.3. *)
val delete_subtree : t -> Dom.node -> unit

(** [compact t] rebuilds the L-Tree without tombstones (extension). *)
val compact : t -> unit

(** {1 Storage synchronization}

    External stores (e.g. the relational label table of
    {!Ltree_relstore}) persist labels; they go stale whenever the L-Tree
    relabels.  The document tracks exactly which nodes' stored labels
    changed, so a store can refresh only those rows.  A relabel costs
    O(1) with no hashing and no allocation: the L-Tree's own relabel log
    ({!Ltree.track_relabels}) records the leaf, and the leaf-to-node
    mapping (a leaf-id-indexed column of entries) is only
    consulted when the store drains.  Inserted nodes are queued as they
    are labeled, deleted ones as they are deleted. *)

(** [track_dirty t] starts (or restarts) tracking with an empty set: a
    store calls it when it binds to the document, holding every label as
    of now.  Until the first call nothing is tracked, so documents no
    store reads (replicas, session primaries) keep no dirty set. *)
val track_dirty : t -> unit

(** [drain_dirty t ~live ~dead] reports every node whose persisted label
    became stale since the last drain or {!track_dirty}, once each, and
    clears the set:
    - [live s] for each node still in the document that was inserted,
      moved or relabeled: first the nodes labeled since the last drain
      (inserted or moved), in document order within one insertion and
      in insertion order across insertions; then the other relabeled
      nodes, in the order the L-Tree first relabeled one of their
      leaves;
    - then [dead id] for each deleted node, by increasing {!Dom.id}.
    A node deleted and labeled again (a move) is reported once, live.
    Cost: O(relabeled leaves + queued nodes + deleted nodes), plus a
    sort of the deleted ids.  Draining is destructive: a document feeds
    exactly one synchronized store.  The callbacks must not modify
    [t]. *)
val drain_dirty : t -> live:(slot -> unit) -> dead:(int -> unit) -> unit

(** [node_by_id t id] finds a labeled node by its {!Dom.id}. *)
val node_by_id : t -> int -> Dom.node option

(** [node_by_start_label t lab] finds the node whose begin tag currently
    carries label [lab], in O(height) (digit descent, §4.2, then one
    column read).  [None] for unused labels, end-tag labels, and
    tombstoned slots. *)
val node_by_start_label : t -> int -> Dom.node option

(** {1 Introspection} *)

(** [check t] asserts that the leaf sequence of the L-Tree matches the
    document's tag list exactly (and checks the L-Tree's own
    invariants). *)
val check : t -> unit

(** [labeled_events t] pairs the document's tag list with leaf numbers,
    in order — the flattened view used by the storage layer. *)
val labeled_events : t -> (Dom.event * int) list

val size : t -> int
(** Number of live label slots. *)
