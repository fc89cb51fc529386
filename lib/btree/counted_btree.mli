(** A counted in-memory B+-tree over integer keys.

    Internal nodes additionally maintain subtree sizes, so [rank]
    and [count_range] run in O(log n).  This is the index structure the
    paper's "virtual L-Tree" (§4.2) relies on: "if the leaf labels are
    maintained in a B-tree whose internal nodes also maintain counts, such
    range queries can be executed efficiently (in logarithmic time)".

    All operations optionally account node visits in a
    {!Ltree_metrics.Counters.t}. *)

type 'a t

(** [create ?order ?counters ()] makes an empty tree. [order] is the maximum
    number of children of an internal node (and the maximum number of
    entries in a leaf); it must be at least 4. Default is 16.
    Raises [Invalid_argument] on a smaller order. *)
val create :
  ?order:int -> ?counters:Ltree_metrics.Counters.t -> unit -> 'a t

val length : 'a t -> int

(** [add t k v] binds [k] to [v], replacing any previous binding. *)
val add : 'a t -> int -> 'a -> unit

val find : 'a t -> int -> 'a option

(** [rank t k] is the number of keys strictly smaller than [k]. *)
val rank : 'a t -> int -> int

(** [count_range t ~lo ~hi] is the number of keys in the inclusive interval
    [lo, hi]; 0 when [lo > hi]. *)
val count_range : 'a t -> lo:int -> hi:int -> int

(** [iter_range t ~lo ~hi f] applies [f] to the bindings with keys in
    [lo, hi], in increasing key order. *)
val iter_range : 'a t -> lo:int -> hi:int -> (int -> 'a -> unit) -> unit

val iter : 'a t -> (int -> 'a -> unit) -> unit
val min_binding : 'a t -> (int * 'a) option
val max_binding : 'a t -> (int * 'a) option

(** [replace_range t ~lo ~hi entries] atomically removes every binding with
    key in [lo, hi] and adds [entries] (which must be sorted by key and lie
    within [lo, hi]).  Used by the virtual L-Tree to relabel a split region
    in place.  Raises [Invalid_argument] when [entries] is not sorted or
    strays outside the interval. *)
val replace_range : 'a t -> lo:int -> hi:int -> (int * 'a) list -> unit

(** [check t] verifies the B+-tree invariants (key order, separator
    placement, fill factors, uniform leaf depth, size bookkeeping) and
    raises [Failure] with a diagnostic on the first violation. *)
val check : 'a t -> unit

