(** Named histogram/counter registry with Prometheus-style exposition.

    Instrumented modules call {!histogram} or {!counter} at first use;
    the same name always yields the same instance, so instrumentation
    sites need no plumbing.  The registry is process-wide; it backs the
    [ltree metrics] subcommand and bench reports. *)

(** [histogram ~name ~help ?labels ~bounds ()] returns the histogram
    registered under [name] with exactly [labels] (order-insensitive;
    default none), creating it on first call.  Later calls ignore
    [help] and [bounds] and return the existing series.  Distinct label
    sets under one [name] are distinct series of one metric — e.g.
    [~labels:[("shard", "2")]] for per-shard latency — and exposition
    groups them under a single HELP/TYPE header. *)
val histogram :
  name:string ->
  help:string ->
  ?labels:(string * string) list ->
  bounds:float array ->
  unit ->
  Histogram.t


(** {1 Counters}

    Monotonic counters: a registered name plus an atomic cell, so
    increments from worker domains take no lock. *)

type counter

(** [counter ~name ~help ()] returns the counter registered under
    [name], creating it (at zero) on first call. *)
val counter : name:string -> help:string -> unit -> counter

val counter_incr : counter -> unit

(** [counter_add c n] adds [n] when positive; negative deltas are
    ignored (counters are monotonic). *)
val counter_add : counter -> int -> unit

(** [expose ()] renders every histogram in Prometheus text exposition
    format — [# HELP]/[# TYPE] headers, cumulative [_bucket{le="..."}]
    lines ending in [+Inf], then [_sum] and [_count] — followed by every
    registered counter as a [counter]-typed metric. *)
val expose : unit -> string

(** [expose_json ?extra ()] is the same registry content as {!expose}
    as one JSON object: [{"histograms": [...], "counters": [...]}],
    bucket labels matching the text format, then each [extra] field. *)
val expose_json : ?extra:(string * Json.t) list -> unit -> Json.t

(** [expose_counters buf ~prefix c] appends one [counter]-typed metric
    per {!Ltree_metrics.Counters} field, named
    [<prefix>_<field>_total]. *)
val expose_counters :
  Buffer.t -> prefix:string -> Ltree_metrics.Counters.t -> unit
