(** A miniature paged-storage simulator.

    The paper measures query and maintenance cost "as the number of disk
    accesses".  This module provides that yardstick: rows live in fixed
    size pages; a bounded LRU buffer pool tracks residency; a page touch
    that misses the pool counts as one [page_read] on the shared
    {!Ltree_metrics.Counters.t}.  Nothing is actually written to disk —
    the simulator is deterministic and measures exactly what the paper's
    cost model talks about. *)

type t

(** [create ?capacity counters] makes a pool holding up to [capacity]
    pages (default 64, at most 2{^24}, or [Invalid_argument]).  Residency
    slots are allocated as pages arrive, not up front. *)
val create : ?capacity:int -> Ltree_metrics.Counters.t -> t

val counters : t -> Ltree_metrics.Counters.t

(** [touch ?write t ~table ~page] records a logical access to a page;
    counts a [page_read] when the page was not resident.  With
    [~write:true] the page is additionally marked dirty: its eventual
    write-back (at eviction or {!flush_dirty}) counts one
    [page_write].

    Residency is tracked in dense per-table page maps (untagged-int
    columns), so a hit costs two array loads and a store — no hashing,
    no allocation and no LRU bookkeeping, which keeps the row fetches of
    the R9-audited query emit path on the zero-alloc spine.

    Eviction is exact LRU: the victim is always the resident page with
    the oldest last touch.  It is found through a min-heap of resident
    pages whose keys are refreshed lazily, only when a stale entry
    reaches the top, so a miss costs O(log capacity) amortized and the
    hit path is left untouched. *)
val touch : ?write:bool -> t -> table:int -> page:int -> unit

(** [touch_read t ~table ~page] is [touch ~write:false], shaped for the
    R9-audited hot row-fetch path (no optional argument, hence no
    hidden default-handling closure). *)
val touch_read : t -> table:int -> page:int -> unit

(** [flush_dirty t] writes back every dirty page — each through the same
    per-key path eviction uses, so a page's dirty bit is consumed
    exactly once (one [page_write]) no matter how it leaves the pool —
    and returns how many pages were written. *)
val flush_dirty : t -> int

(** [flush t] writes back dirty pages, then empties the pool (e.g.
    between query plans, so each plan is measured cold).  Pages evicted
    before the flush already paid their write-back; flushing again does
    not recount them. *)
val flush : t -> unit

(** [fresh_table_id t] allocates a table namespace. *)
val fresh_table_id : t -> int

(** Number of resident pages. *)
val resident : t -> int

