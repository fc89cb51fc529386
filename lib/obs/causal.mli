(** Causal record tracing across the replication pipeline.

    Each journal record gets a content-derived trace id — FNV-1a over
    its sequence number and payload — computed independently at both
    ends of the pipeline, so a replica can verify a received id against
    its own recomputation and a damaged frame can never claim a wrong
    causal parent.  Pipeline stages {!stamp} the id as the record passes
    (append → ship → deliver → apply → readable, in virtual-clock
    ticks); {!waterfall} renders the per-record timeline and the
    [repl_e2e_lag_ticks] histogram accumulates the true end-to-end lag.

    Tracing is OFF by default: [ltree replicate --trace] and the tests
    enable it.  When disabled, {!stamp} is one atomic load. *)

type stage = Append | Ship | Deliver | Apply | Readable

val stage_name : stage -> string

(** {1 Trace ids} *)

(** [id_of ~seq ~payload] is the 32-bit FNV-1a trace id of a record. *)
val id_of : seq:int -> payload:string -> int

(** {1 Stamping} *)

val set_enabled : bool -> unit
val is_enabled : unit -> bool

(** [set_now fn] installs the virtual-clock provider used when [?tick]
    is omitted.  Sessions install [fun () -> clock] at creation. *)
val set_now : (unit -> int) -> unit

(** Drop all stamps and restore the zero clock provider. *)
val reset : unit -> unit

(** [stamp ?tick stage ~seq ~payload] records that the record reached
    [stage] at [tick] (default: the {!set_now} clock).  First-wins: a
    re-delivered or replayed record keeps the tick of the first time
    the stage really happened.  The first [Readable] stamp of a record
    whose [Append] is known feeds [repl_e2e_lag_ticks] with
    [readable - append].  No-op while disabled. *)
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

(** Per-record traces, sorted by sequence number. *)
val records : unit -> trace list

(** [stage_tick tr s] is the tick at which [tr] reached [s], if
    stamped. *)
val stage_tick : trace -> stage -> int option

(** [waterfall ()] renders one row per record: the append tick, the
    [+n] ticks spent reaching each later stage, retries, and the
    end-to-end total. *)
val waterfall : unit -> string

(** [check_waterfall ()] cross-checks the waterfall against the
    [repl_e2e_lag_ticks] histogram: per-record stage durations must
    telescope to the histogram's observations within one virtual-clock
    tick.  [Ok summary] on success. *)
val check_waterfall : unit -> (string, string) result
