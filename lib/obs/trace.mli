(** Ring-buffer event log: the entry type, the ring, the one JSONL
    entry-line writer, its reader and the flamegraph.

    The process-wide ring ({!Span} owns it) holds completed spans, point
    events and flight-recorder notes as one entry type, so a trace
    export and a diagnostic bundle print the same line for the same
    entry. *)

(** One ring entry: a completed span, a point event (zero duration) or
    a flight-recorder note (zero duration, [path = name], [depth = 0]). *)
type record = {
  kind : string;
      (** ["span"], ["point"], or the note's kind (["fault"], ["cell"], ...) *)
  name : string;  (** leaf span name, e.g. ["insert"], or the note name *)
  path : string;  (** '/'-joined ancestry, e.g. ["harness/op/insert"] *)
  depth : int;    (** nesting depth at the time the span ran (root = 0) *)
  domain : int;   (** id of the domain that ran the span (main = 0) *)
  tick : int;     (** virtual-clock tick ({!Span.set_tick}); [0] outside sessions *)
  start : float;  (** [Unix.gettimeofday] at span entry *)
  duration : float;  (** seconds; [0.] for point events and notes *)
  deltas : (string * int) list;
      (** counter deltas attributed to this span, from [Counters.diff] *)
  attrs : (string * string) list;  (** free-form user attributes *)
}

(** [delta r key] is the counter delta named [key], or [0] when absent. *)
val delta : record -> string -> int

type t

(** [create ~capacity] makes an empty ring holding at most [capacity]
    records.  Raises [Invalid_argument] when [capacity < 1]. *)
val create : capacity:int -> t

(** [add t r] appends [r], overwriting the oldest record when full. *)
val add : t -> record -> unit

(** Number of records overwritten because the ring was full. *)
val dropped : t -> int

val clear : t -> unit

(** Records oldest-first. *)
val to_list : t -> record list

(** {1 JSONL export} *)

(** [json_escape] is {!Json.escape}, kept under this name for
    [bench/e2e/json.ml]. *)
val json_escape : string -> string

(** [to_jsonl records] is one entry line per record, newline-terminated:
    a {!Json} object with ["kind"], ["name"], ["path"], ["depth"],
    ["domain"], ["tick"], ["start"] and ["dur_us"], then ["counters"]
    and ["attrs"] objects when non-empty.  The one writer of entry
    lines: [ltree trace] and {!Recorder.dump} both print through it. *)
val to_jsonl : record list -> string

(** {1 Reading JSONL back} *)

(** [validate_jsonl data] parses every non-blank line of [data] with
    {!Json.parse}, requires each to be an object and returns them in
    order; [Error] names the first bad line. *)
val validate_jsonl : string -> (Json.t list, string) result

(** {1 Flamegraph} *)

(** [flamegraph records] renders a text table of total time, self time
    (total minus time in recorded child spans from the same domain) and
    call count per span path, indented by nesting depth.  Records from
    different domains aggregate separately; when more than one domain
    contributed, each gets its own [domain N] section so pool-worker
    paths never interleave with the main domain's. *)
val flamegraph : record list -> string
