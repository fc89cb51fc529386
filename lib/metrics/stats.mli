(** Running statistics over float samples (an incremental mean) and
    exact percentiles over retained samples. *)

type t

val create : unit -> t
val add : t -> float -> unit
val mean : t -> float
val max : t -> float

(** [percentile t p] with [p] in [0,100]; exact over all retained samples
    (nearest-rank: the smallest sample with at least p% of samples at or
    below it).  [percentile t 0.] is [min t] and [percentile t 100.] is
    [max t], exactly.  Raises [Invalid_argument] when empty or [p] is out
    of range. *)
val percentile : t -> float -> float

