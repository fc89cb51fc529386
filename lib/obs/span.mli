(** Nestable, named, timed regions, and the process-wide event ring
    they are recorded into.

    Spans are cheap enough to leave on in production code paths: entering
    one pushes a name onto a stack and reads the clock; leaving it builds
    one {!Trace.record} and appends it to the global ring.  When disabled
    ({!set_enabled} [false]), [with_] runs its thunk with no overhead
    beyond one atomic flag read — no clock read, no allocation, no
    domain-local-storage access.

    The ring is the one event store of the process: span closes, point
    events and notes ({!note}: flight-recorder entries, causal stamps,
    gauge readings) share its mutex, its capacity and its count of
    overwritten entries ({!dropped}; exposed as
    [obs_trace_dropped_total]).  Notes are always on;
    {!set_enabled} gates spans and points only.

    Domain safety: the stack of open spans is domain-local, so spans
    opened by a worker domain nest among themselves and never corrupt
    another domain's path; the shared ring is mutex-guarded.
    The stack-clearing part of {!reset} acts on the calling domain's
    stack only. *)

(** [with_ ?attrs ?counters ~name fn] runs [fn ()] inside a span
    called [name], nested under any spans already open on this domain's
    stack.  When [counters] is given, the span's record carries the
    counter deltas accumulated while it ran ([Counters.diff] of after
    vs. entry snapshot); {!Exposition} folds histograms out of those
    records.  If [fn] raises, the span is still closed (with an
    ["error"] attribute) and the exception is re-raised. *)
val with_ :
  ?attrs:(string * string) list ->
  ?counters:Ltree_metrics.Counters.t ->
  name:string ->
  (unit -> 'a) ->
  'a

(** [event ?attrs name] records a zero-duration point event at the
    current nesting depth. *)
val event : ?attrs:(string * string) list -> string -> unit

(** Tracing is on by default; disabling makes [with_]/[event] no-ops. *)
val set_enabled : bool -> unit

(** [enabled ()] reads the flag (one atomic load).  Call sites whose
    attributes cost a [string_of_int] and a list test it first, so the
    disabled path builds nothing. *)
val enabled : unit -> bool

(** [set_capacity n] replaces the global ring with an empty one holding
    [n] entries.  Raises [Invalid_argument] when [n < 1]. *)
val set_capacity : int -> unit

(** [set_capacity_for ~ops] sizes the ring to keep every entry of a run
    of [ops] operations: 8192 plus 64 per operation.  Measured needs
    sit well inside that: an observed workload writes 20 to 30 entries
    per operation plus about 5,100 from its closing validation, a
    causally traced replication session under 35 per operation plus a
    few hundred, even when every second chunk is damaged.  A view
    folded from the ring (a waterfall, a dashboard, a trace, a bundle
    or a metrics exposition) is whole only when {!dropped} stays 0, so
    its callers check that afterwards. *)
val set_capacity_for : ops:int -> unit

(** Completed span and point records, oldest first (notes excluded). *)
val records : unit -> Trace.record list

(** Entries overwritten because the ring was full, whatever their kind. *)
val dropped : unit -> int

(** Drop every entry and force-close any spans open on this domain. *)
val reset : unit -> unit

(** {1 Notes}

    The one way to write a ring entry that is not a span or a point;
    {!Recorder} dumps the ring as a bundle. *)

(** [note ?tick ?attrs ~kind name] appends one zero-duration entry of
    [kind] (["fault"], ["channel"], ["cell"], ["invariant"],
    ["causal"], ["gauge"], ...; ["span"] and ["point"] are the span
    layer's), overwriting the oldest when the ring is full.  [tick]
    defaults to the last {!set_tick} value. *)
val note :
  ?tick:int -> ?attrs:(string * string) list -> kind:string -> string -> unit

(** [set_tick n] stamps subsequent entries, spans included, with
    virtual-clock tick [n].  Session pumps call this so entries line up
    with the causal trace. *)
val set_tick : int -> unit

(** Every entry (spans, points and notes), oldest first. *)
val entries : unit -> Trace.record list
