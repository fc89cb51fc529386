(** The common contract for order-preserving labeling schemes.

    A scheme maintains an ordered list of items, each carrying an integer
    label such that list order and label order coincide at all times.
    Handles stay valid across relabelings; [label] always returns the
    current label.  Relabeling work is reported through the
    {!Ltree_metrics.Counters.t} supplied at creation time (one [relabel]
    tick per overwritten label), which is how the benchmark harness compares
    schemes. *)

module type S = sig
  type t
  type handle

  val name : string

  val create : ?counters:Ltree_metrics.Counters.t -> unit -> t

  (** [bulk_load ?counters n] builds a fresh structure holding [n] items,
      spread as evenly as the scheme can (paper §2.2); returns the handles
      in list order.  Bulk loading does not count as relabeling. *)
  val bulk_load :
    ?counters:Ltree_metrics.Counters.t -> int -> t * handle array

  (** [insert_first t] inserts in front of every existing item (or into an
      empty [t]). *)
  val insert_first : t -> handle

  val insert_after : t -> handle -> handle
  val insert_before : t -> handle -> handle

  (** [delete t h] removes the item.  Schemes follow the paper's stance
      (§2.3): deletion never relabels. *)
  val delete : t -> handle -> unit

  val label : t -> handle -> int
  val length : t -> int

  (** [compare t a b] orders two live handles; consistent with list order. *)
  val compare : t -> handle -> handle -> int

  (** [bits_per_label t] is the number of bits needed for the largest label
      the scheme may currently hand out. *)
  val bits_per_label : t -> int

  (** [check t] validates the scheme's internal invariants ([Failure] on
      violation). *)
  val check : t -> unit
end

(** Number of bits needed to represent [v >= 0]. *)
let bits_for_value v =
  if v < 0 then invalid_arg "Scheme.bits_for_value: negative";
  let rec go acc v = if v = 0 then acc else go (acc + 1) (v lsr 1) in
  Int.max 1 (go 0 v)
