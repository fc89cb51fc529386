(** A fixed-size pool of worker domains with a task queue.

    Domains are spawned once at {!create} and live until {!shutdown}.
    Work is submitted as an array of tasks; the submitting domain
    participates alongside the workers, each participant claiming one
    task index per [Atomic.fetch_and_add] on a shared cursor, so a pool
    of [size] runs at most [size] tasks concurrently and a pool of size
    1 degenerates to a plain serial loop with no synchronisation beyond
    one mutex acquisition.

    The pool runs one job at a time.  A {!map} issued from
    inside a running task (re-entrant use) or after {!shutdown} is
    executed inline in the calling domain instead of deadlocking on the
    job slot.

    Bodies must not touch shared mutable state unless that state is
    itself domain-safe; see DESIGN.md §11 for the threading model. *)

type t

(** Aggregate pool counters since {!create}. *)
type stats = {
  size : int;
  parallel_jobs : int;  (** jobs fanned out across domains *)
  serial_jobs : int;  (** jobs run inline: size 1, one task, or re-entrant *)
  claim_ops : int;
      (** atomic cursor claims issued by parallel jobs: one per task,
          so [claim_ops] over [parallel_jobs] — also the
          [exec_pool_claims_per_job] histogram, folded from a traced
          run's ["pool.job"] points — is the mean tasks per job. *)
  claim_adaptations : int;
      (** always 0: the pool never resizes its claims.  Kept only
          because the end-to-end benchmark (bench/e2e/workload.ml)
          reads it. *)
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

val map : t -> ('a -> 'b) -> 'a array -> 'b array
(** [map t f arr] is [Array.map f arr] with each element one task,
    computed in parallel.  Result order matches input order.  Runs
    serially when the pool has size 1 or the array has one element.
    If any [f] raises, the first exception (in completion order) is
    re-raised in the caller after every task has finished. *)

val stats : t -> stats

val default_size : unit -> int
(** Pool size from the [LTREE_DOMAINS] environment variable (clamped
    to [1, 64]); 1 — serial — when unset or unparseable. *)
