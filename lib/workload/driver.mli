(** Generic update-stream driver over any labeling scheme.

    [Make (S)] keeps a pool of live handles so insertion positions can be
    drawn without maintaining an explicit rank index: a uniform draw from
    the pool is a uniform position in the list, the hotspot mode hammers
    one region (the adversarial pattern the L-Tree's local slack is built
    for), and append/prepend model document growth at the edges.  The
    driver is what E3/E9 race the schemes through. *)

type pattern =
  | Uniform (** insert after a uniformly random live item *)
  | Hotspot (** insert at one fixed, drifting point *)
  | Append
  | Prepend

val pattern_name : pattern -> string
val all_patterns : pattern list

module Make (S : Ltree_labeling.Scheme.S) : sig
  type t

  (** [init ?counters ~n ()] bulk-loads [n] items. *)
  val init : ?counters:Ltree_metrics.Counters.t -> n:int -> unit -> t

  val scheme : t -> S.t
  val size : t -> int

  (** [insert t prng pattern] applies one insertion. *)
  val insert : t -> Prng.t -> pattern -> unit

  (** [run t prng pattern ~ops] applies [ops] insertions. *)
  val run : t -> Prng.t -> pattern -> ops:int -> unit

  (** [check t] delegates to the scheme's invariant checker and verifies
      that label order matches insertion order bookkeeping. *)
  val check : t -> unit
end
