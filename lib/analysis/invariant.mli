(** A unified registry for runtime invariant checks.

    The paper's correctness argument rests on structural invariants
    (Prop. 1-3: strictly increasing leaf labels, occupancy windows
    [m^h <= leaves(v) < s*m^h], at most one split per insert).  Each
    structure in the codebase encodes its own slice of them as a
    [check : t -> unit] function; this module gives those scattered
    checkers one registration point and one entry point
    ({!run_all}), so harnesses ([ltree_cli check],
    [ltree_stress --selfcheck]) validate {e every} registered invariant
    instead of the ones a test happened to remember.

    The module also owns the error type ({!Violation}) that validated
    constructors ({!Ltree.of_labels} in particular) raise on rejection,
    and the {!Counterexample} format the harnesses dump on failure. *)

(** How expensive a check is.  [Cheap] checks are safe to run after every
    few mutations; [Deep] checks (full structural scans, cross-structure
    parity) are meant for checkpoints. *)
type depth = Cheap | Deep

exception Violation of { name : string; detail : string }
(** A named invariant violation.  [name] identifies the invariant
    (e.g. ["ltree.of_labels"]); [detail] is the diagnostic. *)

(** [fail ~name fmt ...] raises {!Violation} with a formatted detail. *)
val fail : name:string -> ('a, unit, string, 'b) format4 -> 'a

(** {1 Registry} *)

type registry

val create : unit -> registry

(** [register reg ~name ~depth run] adds an invariant.  [run] must raise
    ({!Violation}, [Failure], [Invalid_argument] or [Not_found]) when the
    invariant does not hold, and return unit otherwise.  Raises
    [Invalid_argument] when [name] is already registered. *)
val register : registry -> name:string -> depth:depth -> (unit -> unit) -> unit

(** [names reg] lists registered invariant names, in registration order. *)
val names : registry -> string list

val size : registry -> int

(** {1 Checking} *)

type failure = { name : string; detail : string }

(** [run_all ?depth reg] runs every registered check ([?depth:Cheap]
    restricts to the cheap ones) and returns the failures, in
    registration order; [[]] means every invariant holds.  Exceptions
    other than the four listed under {!register} propagate. *)
val run_all : ?depth:depth -> registry -> failure list

val pp_failure : Format.formatter -> failure -> unit

(** {1 Counterexamples} *)

module Counterexample : sig
  (** A reproducible witness of an invariant failure: the L-Tree
      parameters, the PRNG seed, the operation log that led to the
      failure and the leaf labels at the point of failure.  The textual
      form round-trips: [of_string (to_string c) = c]. *)
  type t = {
    f : int;
    s : int;
    seed : int;
    failing : string;  (** name of the violated invariant *)
    detail : string;
    ops : string list;  (** one printable line per operation, oldest first *)
    labels : int array;  (** leaf labels at failure, in order *)
  }

  val to_string : t -> string

  (** [of_string s] parses a dump.  Raises {!Violation} (name
      ["counterexample.parse"]) on malformed input. *)
  val of_string : string -> t

  val equal : t -> t -> bool
  val pp : Format.formatter -> t -> unit
  val save : path:string -> t -> unit
end

(** The most [fails] calls one {!minimize} makes, the first included. *)
val shrink_budget : int

(** A shrunk log: [at_budget] is [true] when {!shrink_budget} ran out
    before the shrink finished, and [log] is then the smallest failing
    log found by that point. *)
type 'a shrunk = { log : 'a list; at_budget : bool }

(** [minimize ~fails ops] shrinks a failing operation log: [fails ops]
    must be [true]; the result still satisfies [fails].  Strategy: binary
    search for a minimal failing prefix, then ddmin-style removal of
    contiguous chunks (halving the chunk size down to pairs), then — for
    results of at most [max_greedy] ops (default 64) — greedy removal of
    single operations.  [fails] is called O(k) times in the worst case
    (k the prefix length), plus O(k^2) for the final greedy pass, and
    never more than {!shrink_budget} times. *)
val minimize :
  ?max_greedy:int -> fails:('a list -> bool) -> 'a list -> 'a shrunk
