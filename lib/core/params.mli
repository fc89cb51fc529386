(** L-Tree shape parameters (paper §2.1).

    An L-Tree is governed by two integers [f] and [s]:

    - [m = f / s] (an integer, at least 2) is the arity of the complete
      subtrees produced by bulk loading and splitting;
    - an internal node [v] at height [h] may hold at most
      [lmax = s * m^h] leaves in its subtree, and splits into [s] complete
      [m]-ary trees when it reaches that limit;
    - labels are assigned in radix [radix = f - 1]: the [i]-th child of [u]
      has [num = num(u) + i * radix^h(child)], so the base-[radix] digits
      of a leaf label spell out its ancestors (paper §4.2).

    The radix is exactly the maximum stable fanout, which is what makes the
    label intervals tight (verified against the paper's Figure 2, where
    [f = 4, s = 2] yields per-level steps 9, 3, 1 = 3^2, 3^1, 3^0). *)

type t = private {
  f : int;
  s : int;
  m : int; (** [f / s] *)
  radix : int; (** [f - 1] *)
  max_height : int; (** tallest tree whose labels fit in an OCaml [int] *)
}

exception Label_overflow
(** Raised when an operation would need a tree taller than [max_height]. *)

(** [make ~f ~s] validates [s >= 2], [f mod s = 0], [f / s >= 2].
    Raises [Invalid_argument] otherwise. *)
val make : f:int -> s:int -> t

(** The running example of the paper's Figure 2: [f = 4], [s = 2]. *)
val fig2 : t

(** [pow_radix t h] is [radix^h].  Raises {!Label_overflow} when the result
    exceeds the [int] range. *)
val pow_radix : t -> int -> int

(** [pow_m t h] is [m^h] (same overflow discipline). *)
val pow_m : t -> int -> int

(** [lmax t ~height] is the leaf limit [s * m^height] of an internal node. *)
val lmax : t -> height:int -> int

(** [height_for t n] is the smallest [h] with [m^h >= n] and [h >= 1]: the
    bulk-loading height for [n] leaves (paper §2.2). *)
val height_for : t -> int -> int

val pp : Format.formatter -> t -> unit
