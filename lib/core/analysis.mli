(** Closed-form cost model from paper §3.1 and §4.1.

    With [h = ceil(log n / log m)] the L-Tree height for [n] leaves:

    - amortized insertion cost
      [cost(f, s, n) = h * (1 + 2f / (s - 1)) + f]
      (the [h] term maintains ancestor leaf counts; [f] pays the
      right-sibling relabeling; each of the [h] levels charges
      [2f / (s - 1)] for its share of splits);
    - label size [bits(f, s, n) = h * log2(f - 1)] since the largest label
      is below [(f - 1)^h];
    - a batch of [k = (s - 1) * m^h0] leaves inserted at one point pays per
      leaf roughly
      [h / k + f / k + (2f / (s - 1)) * (h - h0 + 1)] (§4.1). *)

(** [height ~params ~n] is the real-valued tree height [log n / log m]
    (0 when [n <= 1]). *)
val height : params:Params.t -> n:int -> float

(** [amortized_cost ~params ~n] is the §3.1 bound on amortized nodes
    touched per single-leaf insertion. *)
val amortized_cost : params:Params.t -> n:int -> float

(** [bits ~params ~n] is the §3.1 bound on bits per label. *)
val bits : params:Params.t -> n:int -> float

(** [batch_amortized_cost ~params ~n ~k] is the §4.1 per-leaf bound for a
    batch of [k] leaves. *)
val batch_amortized_cost : params:Params.t -> n:int -> k:int -> float

(** [query_cost ~params ~n ~word_bits] models §3.2's query side: label
    comparison costs 1 when the label fits a machine word and grows
    linearly in the number of words otherwise. *)
val query_cost : params:Params.t -> n:int -> word_bits:int -> float
