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
    level.  Reading a slot's label or level is a few field loads, with
    no table lookup. *)

type slot

(** [slot t n] is [n]'s current slot.  Raises [Not_found] for nodes
    outside the document. *)
val slot : t -> Dom.node -> slot

(** [slot_by_id t id] is {!slot} by {!Dom.id}, without allocating. *)
val slot_by_id : t -> int -> slot

val slot_node : slot -> Dom.node

(** [slot_start t s] / [slot_end t s]: the slot's current begin/end
    labels (equal for non-elements). *)
val slot_start : t -> slot -> int

val slot_end : t -> slot -> int
val slot_level : slot -> int

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

    Consumers that keep labels outside the document (the label table of
    {!Ltree_relstore}, the XPath evaluator's tag index) go stale
    whenever the L-Tree relabels.  Each consumer holds its own {!feed}
    of the nodes whose labels changed, so draining one feed leaves the
    others intact.  A relabel costs O(1) with no hashing and no
    allocation: the L-Tree's relabel log ({!Ltree.track_relabels})
    records the leaf, and a drain of any feed hands that log to every
    feed through the leaf-to-node column.  Inserted nodes are queued in
    every feed as they are labeled, deleted ones as they are deleted. *)

type feed

(** [track_dirty t] registers a new, empty feed.  Until the first call
    nothing is tracked.  A feed lives as long as the document and grows
    until it is drained. *)
val track_dirty : t -> feed

(** [drain_dirty f ~live ~dead] reports every node whose label changed
    since [f]'s last drain or registration, once each, and clears [f]'s
    set:
    - [live s] for each node still in the document that was inserted,
      moved or relabeled, in queue order: a node is queued when it is
      labeled (an inserted or moved subtree's nodes in document order),
      and a relabeled node when a drain of any feed on the document
      collects the relabel log;
    - then [dead n] for each deleted node, by increasing {!Dom.id}: the
      detached node itself, so a consumer can still read its kind.
    A node deleted and labeled again (a move) is reported once, live.
    Cost: O(relabeled leaves + queued nodes + deleted nodes), plus a
    sort of the deleted ids.  With [~relabels:false] the relabel log
    ({!Ltree.relabels_logged}) skips [f], for a consumer that re-reads
    what it holds more cheaply than it hears of that many nodes.  The
    callbacks must not modify the document. *)
val drain_dirty :
  ?relabels:bool ->
  feed -> live:(slot -> unit) -> dead:(Dom.node -> unit) -> unit

(** [node_by_id t id] finds a labeled node by its {!Dom.id}. *)
val node_by_id : t -> int -> Dom.node option

(** [in_document_order t ids] holds when every id names a labeled node
    and their start labels strictly increase: document order, each node
    once — the order every label plan answers in. *)
val in_document_order : t -> int list -> bool

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
