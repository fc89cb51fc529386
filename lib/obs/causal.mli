(** Causal record tracing across the replication pipeline, as a view
    over the one event ring.

    Each journal record has a content-derived trace id — FNV-1a over
    its sequence number and payload — so every stage computes the same
    id from [(seq, payload)] without shipping it.  Pipeline stages
    {!stamp} the record as it passes (append → ship → deliver → apply →
    readable): each stamp is one [causal] {!Span.note} in the ring
    {!Span} owns, named after the stage, with the seq and the id as
    attributes and the ring's virtual-clock tick.  {!records} folds
    any list of ring entries ([Span.entries ()], or the entry lines of
    a bundle read back) into per-record timelines and {!waterfall}
    renders them.  The module keeps no store of its own: a waterfall
    is only complete when the ring dropped nothing
    ([Span.dropped () = 0]).

    Tracing is OFF by default: [ltree replicate --trace] and the tests
    enable it.  When disabled, {!stamp} is one atomic load. *)

type stage = Append | Ship | Deliver | Apply | Readable

val stage_name : stage -> string

(** {1 Stamping} *)

val set_enabled : bool -> unit

(** [stamp ?tick stage ~seq ~payload] notes that the record reached
    [stage] at [tick] (default: the ring's tick, {!Span.set_tick}).
    A record may be stamped at a stage more than once (a retransmit, a
    replica re-appending the record it applies); {!records} keeps the
    first.  No-op while disabled. *)
val stamp : ?tick:int -> stage -> seq:int -> payload:string -> unit

(** [note_retry ~seq ~payload] attributes one send retry to the
    record. *)
val note_retry : seq:int -> payload:string -> unit

(** {1 Inspection} *)

type trace = {
  trace_id : int;
  trace_seq : int;
  stamps : (stage * int) list;  (** stamped stages in pipeline order *)
  retries : int;
}

(** [records entries] folds the [causal] entries among [entries]
    (oldest first) into per-record traces, sorted by sequence number.
    First-wins: each stage keeps the tick of its first stamp. *)
val records : Trace.record list -> trace list

(** [stage_tick tr s] is the tick at which [tr] reached [s], if
    stamped. *)
val stage_tick : trace -> stage -> int option

(** [e2e tr] is the record's end-to-end lag, [readable - append], when
    both are stamped. *)
val e2e : trace -> int option

(** [waterfall trs] renders one row per trace: the append tick, the
    [+n] ticks spent reaching each later stage, retries, and the
    end-to-end total, which the [+n] cells of a complete row sum to. *)
val waterfall : trace list -> string
