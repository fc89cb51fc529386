(** Incremental maintenance of the stored label relation.

    An RDBMS that stores L-Tree labels (the label table of E8) must
    rewrite a row whenever the L-Tree relabels that node — this is where
    the paper's amortized relabeling bound turns into real write I/O.
    The labeled document reports exactly which nodes went stale through
    the store's feed ({!Ltree_doc.Labeled_doc.drain_dirty}, fed by the
    L-Tree's relabel hook); [flush] rewrites only those rows, appends rows for new nodes
    and tombstones rows of deleted ones.  Page-write counts accumulate on
    the shared pager (experiment E13). *)

type t

(** [create pager store ldoc] wires a store to its document.  The store
    must have been shredded from [ldoc] (or from an earlier state of
    it). *)
val create : Pager.t -> Shredder.label_store -> Ltree_doc.Labeled_doc.t -> t

type stats = {
  rows_updated : int;
  rows_inserted : int;
  rows_tombstoned : int;
}

(** [flush t] applies all pending label changes to the relation and
    returns what it wrote.  Queries over the store are exact again after
    a flush. *)
val flush : t -> stats

(** [check t] verifies that the relation agrees with the document's
    current labels (call after [flush]); raises [Failure] otherwise. *)
val check : t -> unit

