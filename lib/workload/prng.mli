(** SplitMix64: a tiny, fast, deterministic PRNG.

    Every experiment seeds one of these explicitly, so benchmark tables
    and property tests are reproducible run to run. *)

type t

val create : int -> t

(** [int t bound] is uniform in [0, bound); requires [bound > 0]. *)
val int : t -> int -> int

(** [float t] is uniform in [0, 1). *)
val float : t -> float

val bool : t -> bool

(** [pick t arr] is a uniformly random element; requires a non-empty
    array. *)
val pick : t -> 'a array -> 'a
