(** Periodic gauge sampler with bounded time-series rings.

    Subsystems {!register} pull-based gauge sources (GC stats, pool
    queue depth, journal sizes, bits-per-label); a driver calls
    {!sample} on its clock — the virtual clock in tests and sessions,
    wall-clock ticks elsewhere — and each source's readings land in a
    bounded [(tick, value)] ring of 256 samples.  {!top} renders a
    text dashboard with per-source sparklines for [ltree top].  The
    sampler is process-wide. *)

(** [register ~name fn] adds a gauge source; [fn] is polled at
    every {!sample}.  Re-registering a name replaces the source and
    drops its samples. *)
val register : name:string -> (unit -> float) -> unit

(** [sample ~now ()] polls every source once and appends [(now, value)]
    to its ring, overwriting the oldest when full.  Source closures run
    outside the sampler's lock. *)
val sample : now:int -> unit -> unit

(** [top ()] renders the text dashboard: one row per source with the
    latest value, the min..max range, and a sparkline over the last
    [width] samples (default 32). *)
val top : ?width:int -> unit -> string

(** Register the built-in GC sources ([telemetry_gc_*]). *)
val register_gc : unit -> unit
