(** A fixed-size pool of worker domains with a chunked task queue.

    Domains are spawned once at {!create} and live until {!shutdown}.
    Work is submitted as a half-open index range cut into chunks; the
    submitting domain participates alongside the workers, claiming
    chunks off a shared atomic cursor, so a pool of [size] runs at
    most [size] chunks concurrently and a pool of size 1 degenerates
    to a plain serial loop with no synchronisation beyond two mutex
    acquisitions.

    The pool runs one job at a time.  A {!map} issued from
    inside a running task (re-entrant use) is executed inline in the
    calling domain instead of deadlocking on the job slot.

    Bodies must not touch shared mutable state unless that state is
    itself domain-safe; see DESIGN.md §11 for the threading model. *)

type t

(** Aggregate pool counters since {!create}.  [per_worker.(0)] counts
    chunks run by the submitting domain, slot [k >= 1] by worker [k];
    their imbalance is the "steal" signal. *)
type stats = {
  size : int;
  parallel_jobs : int;  (** jobs fanned out across domains *)
  serial_jobs : int;  (** jobs run inline: size 1, tiny range, or re-entrant *)
  chunk_tasks : int;  (** chunk tasks executed by parallel jobs *)
  claim_ops : int;
      (** atomic cursor claims issued by parallel jobs.  Each claim
          grabs a span of K chunks (K adaptive on range size), so
          [claim_ops] over [parallel_jobs] — also the
          [exec_pool_claims_per_job] histogram, folded from a traced
          run's ["pool.job"] points — measures how well the batching
          amortizes cursor contention. *)
  claim_adaptations : int;
      (** claim-size halvings triggered by skew detection: a span whose
          wall time dominates the job's running mean (and exceeds an
          absolute floor) halves the job's chunks-per-claim so the
          remaining hot chunks rebalance across workers. *)
  per_worker : int array;
}

val create : size:int -> t
(** [create ~size] spawns [size - 1] worker domains ([size >= 1] or
    [Invalid_argument]).  The caller counts as the remaining
    participant. *)

val shutdown : t -> unit
(** Stop and join all worker domains.  Idempotent.  Call before the
    process exits: un-joined domains keep the runtime alive. *)

val with_pool : size:int -> (t -> 'a) -> 'a
(** [with_pool ~size f] runs [f] over a fresh pool and guarantees
    {!shutdown}, even if [f] raises. *)

val map : ?chunk:int -> t -> ('a -> 'b) -> 'a array -> 'b array
(** [map t f arr] is [Array.map f arr] with elements computed in
    parallel over disjoint chunks of [chunk] elements (default: about a
    quarter of an even split per participant, so stragglers rebalance).
    Result order matches input order.  Runs serially when the pool has
    size 1 or the array fits in a single chunk.  If any [f] raises, the
    first exception (in completion order) is re-raised in the caller
    after all chunks finish. *)

val stats : t -> stats

val default_size : unit -> int
(** Pool size from the [LTREE_DOMAINS] environment variable (clamped
    to [1, 64]); 1 — serial — when unset or unparseable. *)
