(** Zipf-distributed sampling over ranks [0, n), used to skew insertion
    positions and tag choices toward a hot head. *)

type t

(** [create ~n ~alpha] precomputes the CDF; [alpha > 0] controls skew
    (1.0 is classic Zipf; larger is more skewed). *)
val create : n:int -> alpha:float -> t

(** [sample t prng] draws a rank in [0, n). *)
val sample : t -> Prng.t -> int

