(** Periodic gauge sampler, as notes in the one event ring.

    Subsystems {!register} pull-based gauge sources (GC stats, journal
    sizes, bits-per-label); a driver calls {!sample} on its clock — the
    virtual clock in tests, the operation count in the CLI — and each
    reading lands as one [gauge] {!Span.note} in the ring [Span] owns,
    so a diagnostic bundle carries the gauges next to the spans and
    notes that led up to it.  {!top} folds the [gauge] entries of
    [Span.entries ()] back into per-gauge series and renders the
    [ltree top] dashboard.  The module keeps no samples of its own: a
    dashboard is only complete when the ring dropped nothing. *)

(** [register ~name fn] adds a gauge source; [fn] is polled at every
    {!sample}.  Registering a name again replaces its closure. *)
val register : name:string -> (unit -> float) -> unit

(** [sample ~now ()] polls every source once and writes one [gauge]
    note per source, named after it, stamped with tick [now] and
    carrying the reading as its ["value"] attribute, printed by
    {!Json}'s number rule so it reads back exactly. *)
val sample : now:int -> unit -> unit

(** [top ()] renders the text dashboard from the ring: one row per
    gauge name, sorted, with the latest value, the min..max range and a
    sparkline over the last [width] readings (default 32).  [Error]
    when the ring dropped entries ([Span.dropped () > 0]): the rows
    would cover only the tail of the run. *)
val top : ?width:int -> unit -> (string, string) result

(** Register the built-in GC sources ([telemetry_gc_*]). *)
val register_gc : unit -> unit
