(** The virtual L-Tree (paper §4.2).

    Instead of materializing the L-Tree, only the leaf labels are stored —
    here in a counted B-tree ({!Ltree_btree.Counted_btree}), exactly as the
    paper suggests: "if the leaf labels are maintained in a B-tree whose
    internal nodes also maintain counts, such range queries can be executed
    efficiently".  All structural information is implicit: the base-(f-1)
    digits of a leaf label encode its ancestors, so the split criterion for
    the virtual node of height [h] above label [lab] is a range count over
    [[lab - lab mod (f-1)^h, ... + (f-1)^h - 1]].

    The observable behaviour is identical to {!Ltree}: for any sequence of
    operations, both produce the same label sequence (property-tested).
    The trade-off is extra range-query computation against not storing
    internal nodes (experiment E7). *)

type t
type handle

val create : ?params:Params.t -> ?counters:Ltree_metrics.Counters.t ->
  unit -> t

val bulk_load : ?params:Params.t -> ?counters:Ltree_metrics.Counters.t ->
  int -> t * handle array

val length : t -> int

val insert_after : t -> handle -> handle
val insert_before : t -> handle -> handle
val insert_first : t -> handle

(** [insert_batch_after t w k] inserts [k] consecutive slots right after
    [w] with a single region relabeling — the virtual counterpart of
    {!Ltree.insert_batch_after} (§4.1), emitting bit-identical labels
    (property-tested). *)
val insert_batch_after : t -> handle -> int -> handle array

(** [delete t h] tombstones the slot, exactly like {!Ltree.delete}. *)
val delete : t -> handle -> unit

(** [label t h] is the current label: O(1) (hash lookup). *)
val label : t -> handle -> int

val compare : t -> handle -> handle -> int
val bits_per_label : t -> int

(** [labels t] is the ordered label sequence (tombstones included). *)
val labels : t -> int array

(** [check t] validates the implied L-Tree invariants: every virtual node's
    occupancy is inside the paper's window, labels are inside the root
    interval, and the handle table agrees with the B-tree. *)
val check : t -> unit
