(** Pure layout arithmetic shared by the materialized and the virtual
    L-Tree, so that both assign bit-identical labels.

    A subtree of height [h] over [count] leaves is laid out by chunking the
    leaf sequence into [q = max 1 (count / m^(h-1))] children: the first
    [q - 1] children receive exactly [m^(h-1)] leaves and the last child
    absorbs the remainder (which keeps every child's leaf count within the
    paper's [[m^h', s * m^h')] window).  When [count = m^h] this is exactly
    the paper's complete [m]-ary tree (§2.2), used by bulk loading and by
    node splits. *)

(** [chunk_count params ~height ~count] is the number [q] of children of
    a height-[height] node over [count] leaves.  Requires [height >= 1]
    and [1 <= count < s * m^height] (else [Invalid_argument]). *)
val chunk_count : Params.t -> height:int -> count:int -> int

(** [chunk_size params ~height ~count i] is the leaf count of child [i]
    ([0 <= i < chunk_count params ~height ~count]) of that node: pure
    arithmetic, so rebuilds chunk a leaf range without building a list. *)
val chunk_size : Params.t -> height:int -> count:int -> int -> int

(** [iter_labels params ~base ~height ~count f] calls [f] with the label of
    each of the [count] leaves of a chunked subtree rooted at number [base],
    in leaf order. *)
val iter_labels :
  Params.t -> base:int -> height:int -> count:int -> (int -> unit) -> unit

(** [labels params ~base ~height ~count] collects {!iter_labels}. *)
val labels : Params.t -> base:int -> height:int -> count:int -> int array
