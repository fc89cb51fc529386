(** Persistent (never-relabeled) bit-string labels.

    The other end of the design space the paper positions itself against:
    Cohen, Kaplan and Milo (PODS 2002) show that an order-preserving
    scheme that never relabels needs Ω(n) bits per label in the worst
    case.  This module realizes such a scheme: labels are dyadic
    fractions in (0, 1), stored as bit strings; an insertion takes the
    exact midpoint of its neighbours, which always exists and never
    disturbs any other label — at the price of labels one bit longer than
    the deeper neighbour.

    Under adversarial (always-same-spot) insertion, label length grows
    linearly with n; under uniform insertion it stays logarithmic.
    Experiment E9b measures both, completing the paper's Figure-of-merit:
    sequential = O(n) relabels / O(log n) bits, bit strings = 0 relabels /
    O(n) bits, L-Tree = O(log n) / O(log n).

    This scheme does not fit {!Scheme.S} (labels are not machine
    integers), so it has its own interface. *)

type t
type handle

(** [bulk_load n] spreads [n] labels evenly (⌈log₂ n⌉ + 1 bits each). *)
val bulk_load : int -> t * handle array

val insert_after : t -> handle -> handle

(** [max_bits t] is the widest label currently live. *)
val max_bits : t -> int

(** [check t] verifies that list order and label order agree. *)
val check : t -> unit
