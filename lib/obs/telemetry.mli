(** Periodic gauge sampler with bounded time-series rings.

    Subsystems {!register} pull-based gauge sources (GC stats, pool
    queue depth, journal sizes, bits-per-label); a driver calls
    {!sample} on its clock — the virtual clock in tests and sessions,
    wall-clock ticks elsewhere — and each source's readings land in a
    bounded [(tick, value)] ring.  {!expose} renders the latest sample
    of every source as a Prometheus gauge; {!top} renders a text
    dashboard with per-source sparklines for [ltree top]. *)

type t

(** [create ~capacity ()] makes an empty sampler whose per-source rings
    hold [capacity] samples (default 256). *)
val create : ?capacity:int -> unit -> t

(** The process-wide sampler used when [?t] is omitted. *)
val default : t

(** [register ~name ~help fn] adds a gauge source; [fn] is polled at
    every {!sample}.  Re-registering a name replaces the source and
    drops its samples. *)
val register : ?t:t -> name:string -> help:string -> (unit -> float) -> unit

(** [sample ~now ()] polls every source once and appends [(now, value)]
    to its ring, overwriting the oldest when full.  Source closures run
    outside the sampler's lock. *)
val sample : ?t:t -> now:int -> unit -> unit

(** [series name] is the retained samples oldest-first; [[]] for
    unknown sources. *)
val series : ?t:t -> string -> (int * float) list

(** Most recent sample, if any. *)
val latest : ?t:t -> string -> (int * float) option

(** Latest sample of every source as Prometheus [gauge] metrics. *)
val expose : ?t:t -> unit -> string

(** [top ()] renders the text dashboard: one row per source with the
    latest value, the min..max range, and a sparkline over the last
    [width] samples (default 32). *)
val top : ?t:t -> ?width:int -> unit -> string

(** Register the built-in GC sources ([telemetry_gc_*]). *)
val register_gc : ?t:t -> unit -> unit
