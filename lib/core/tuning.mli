(** Parameter tuning (paper §3.2).

    The paper derives the insertion-cost and label-size functions of
    [(f, s)] and proposes choosing the parameters per application:

    - minimize the update cost alone;
    - minimize the update cost subject to a label-size budget
      (their Lagrange-multiplier formulation — here solved exactly over the
      integer lattice, since [f] and [s] are small integers with
      [s >= 2, f = s * m, m >= 2]);
    - minimize a weighted overall cost of queries and updates, where a
      label comparison costs 1 while labels fit in a machine word and
      degrades linearly beyond (§3.2 "Minimize the Overall Cost").

    All optimizers scan the integer lattice exhaustively up to
    [max_f] — the objective is cheap to evaluate, so exact discrete
    optimization is both simpler and stronger than the paper's continuous
    relaxation. *)

type choice = {
  params : Params.t;
  cost : float; (** amortized insertion cost at the optimum *)
  bits : float; (** label bits at the optimum *)
}

(** [minimize_cost ?max_f ~n ()] finds the [(f, s)] minimizing the §3.1
    amortized insertion cost for documents of size [n].
    [max_f] defaults to 4096. *)
val minimize_cost : ?max_f:int -> n:int -> unit -> choice

(** [minimize_cost_bounded ?max_f ~n ~max_bits ()] optimizes under the
    constraint [bits(f, s, n) <= max_bits]; [None] when no lattice point
    satisfies it. *)
val minimize_cost_bounded :
  ?max_f:int -> n:int -> max_bits:float -> unit -> choice option

(** [minimize_overall ?max_f ?word_bits ~n ~query_weight ~update_weight ()]
    minimizes [query_weight * query_cost + update_weight * update_cost]
    for a workload issuing that mix (weights are per-operation frequencies,
    any non-negative scale). *)
val minimize_overall :
  ?max_f:int -> ?word_bits:int -> n:int -> query_weight:float ->
  update_weight:float -> unit -> choice

