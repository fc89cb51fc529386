(** Metrics as a fold over the one event ring.

    A metric is a row of {!series}: its name, its help text, the ring
    entries it reads (spans, points or notes, by name), the value it
    takes from each (the span's duration, a counter delta or a numeric
    attribute), its bucket bounds and an optional label attribute.
    {!histograms} folds any list of ring entries ([Span.entries ()],
    say) into one {!Histogram} per series and label value; {!expose}
    and {!expose_json} render them.  The module keeps no store: an
    untraced process records no spans or points, so it has no
    histograms, and a fold is only whole when the ring dropped nothing
    ({!of_ring}). *)

type value =
  | Duration  (** the entry's duration, in seconds *)
  | Delta of string  (** a counter delta the span carries *)
  | Attr of string  (** a numeric attribute; entries without it are skipped *)

type series = {
  name : string;
  help : string;
  reads : (string * value) list;
      (** entry name → the value one such entry observes *)
  bounds : float array;
  label : string option;
      (** attribute whose value labels the series (e.g. ["shard"]) *)
}

(** [expose ?series ?dropped entries] folds [entries] into one histogram
    per series and label value and renders them in Prometheus text
    exposition format, sorted by name, then labels — one
    [# HELP]/[# TYPE] header per metric name, cumulative
    [_bucket{le="..."}] lines ending in [+Inf], then [_sum] and
    [_count] — followed by the counter [obs_trace_dropped_total] at
    [dropped] (default 0).  A series with a label attribute gets one
    histogram per label value seen; a series no entry observed still
    prints one empty, unlabeled histogram, so its name and bounds
    always show.

    The default [series] are the ones [ltree metrics] and
    [ltree replicate --metrics] expose: [query_join_comparisons], the
    per-shard [shard_commit_seconds], [shard_query_seconds] and
    [shard_journal_pending], the [repl_*] histograms and
    [exec_pool_claims_per_job]. *)
val expose :
  ?series:series list -> ?dropped:int -> Trace.record list -> string

(** [expose_json ?series ?dropped ?extra entries] is the same content as
    {!expose} as one JSON object: [{"histograms": [...], "counters":
    [...]}], bucket labels matching the text format, then each [extra]
    field. *)
val expose_json :
  ?series:series list ->
  ?dropped:int ->
  ?extra:(string * Json.t) list ->
  Trace.record list ->
  Json.t

(** [expose_counters buf ~prefix c] appends one [counter]-typed metric
    per {!Ltree_metrics.Counters} field, named
    [<prefix>_<field>_total]. *)
val expose_counters :
  Buffer.t -> prefix:string -> Ltree_metrics.Counters.t -> unit

(** [of_ring ()] is [Span.entries ()], or [Error] when the ring dropped
    entries ([Span.dropped () > 0]): the histograms would cover only
    the tail of the run. *)
val of_ring : unit -> (Trace.record list, string) result
