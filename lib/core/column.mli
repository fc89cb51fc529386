(** Growable untagged-int columns over [Bigarray.Array1].

    The columnar backbone of the read structures: label-index entries
    and their snapshot copies store their rows as five parallel columns
    (start, end, row id, level, Dom id).  A column is a [Bigarray] of native ints (no tag
    bit rewriting on read, no boxing, dense cache lines) plus a logical
    length; capacity grows by doubling and the buffer is {e reused}
    across incremental repairs, so a steady-state repair or query
    allocates nothing.

    Two access families: {!get}/{!set} are unchecked single-instruction
    accessors for audited [\[@ltree.hot\]] loops (the R9 analyzer keeps
    those loops allocation-free); {!get_checked} is the bounds-checked
    twin for tests and invariant checks.  Out-of-bounds
    unchecked access into the slack between [length] and [capacity] is
    memory-safe but unspecified; beyond [capacity] it is undefined —
    callers doing raw cursor arithmetic must {!reserve} first. *)

type t

(** [create ?capacity ()] is an empty column with room for [capacity]
    (default 16, minimum 1) values before the first growth. *)
val create : ?capacity:int -> unit -> t

val length : t -> int

(** [clear t] sets the length to 0.  The buffer is kept — refilling up
    to the old length never reallocates. *)
val clear : t -> unit

(** [set_len t n] sets the logical length to [n] directly ([n] at least
    0 and within the reserved capacity, or [Invalid_argument]).  For
    raw-cursor writers that fill [t] via {!set} after a {!reserve}. *)
val set_len : t -> int -> unit

(** Unchecked read/write of position [i].  Single load/store on the
    untagged buffer; the caller owns the bounds proof. *)
val get : t -> int -> int

val set : t -> int -> int -> unit

(** Bounds-checked twins of {!get}/{!set} ([0 <= i < length t] or
    [Invalid_argument]). *)
val get_checked : t -> int -> int

(** [push t v] appends [v], doubling capacity when full (the only
    allocating operation on a column, and only when it grows). *)
val push : t -> int -> unit

(** [reserve t n] ensures capacity at least [n], preserving the first
    [length t] values.  No-op when already large enough. *)
val reserve : t -> int -> unit

(** The backing buffer type, for kernels that index a column directly. *)
type buf = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

(** [unsafe_buf t] is [t]'s current buffer: [Bigarray.Array1.unsafe_get]
    on it is an inline load even where the compiler cannot inline
    {!get} across modules.  Valid until [t] next grows, so a writer
    {!reserve}s first and finishes with {!set_len}. *)
val unsafe_buf : t -> buf

(** [gather src ~idx dst] overwrites [dst] with [src]'s values at the
    positions listed in [idx], in [idx]'s order. *)
val gather : t -> idx:t -> t -> unit

(** [swap a b] exchanges the buffers and lengths of [a] and [b] in
    O(1) — the reuse primitive for double-buffered rebuilds. *)
val swap : t -> t -> unit

(** [copy_sub t pos len] is a fresh column holding a copy of positions
    [pos, pos + len), made by one block copy. *)
val copy_sub : t -> int -> int -> t

val to_list : t -> int list

(** [upper_bound_sub counters t ~hi key] is the first position in
    [0, hi) holding a value [> key], or [hi] — binary search over a
    sorted column, one comparison charged per probe. *)
val upper_bound_sub : Ltree_metrics.Counters.t -> t -> hi:int -> int -> int

(** [sort_dedup t ~mark] sorts [t] ascending and drops duplicates, in
    place, allocation-free once [mark] has grown.  Meant for positions
    into one entry, whose span [max - min] is bounded by the entry's
    length: the values are scattered through [mark] — a reused bitset
    column of [(max - min) / 32 + 1] words — and collected back in
    order, in O([length t] + (max - min) / 32).  [mark]'s contents are
    scratch. *)
val sort_dedup : t -> mark:t -> unit

(** [sort3 counters s e r n] co-sorts the first [n] triples of three
    parallel columns in place by [s], charging one comparison per key
    comparison.  Insertion sort for the small batches incremental
    repairs see; an already-sorted check plus in-place heapsort above
    that, so bulk rebuilds of preorder-enumerated rows stay linear.
    Keys are assumed distinct (label starts are), so stability is
    moot. *)
val sort3 : Ltree_metrics.Counters.t -> t -> t -> t -> int -> unit
