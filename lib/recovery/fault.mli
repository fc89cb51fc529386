(** Deterministic fault injection for the durability layer.

    {!Durable_doc} performs every byte of I/O through an {!io} record,
    so the same store code runs against the real filesystem
    ({!real_io}) or against a simulated disk ({!create_sim}) whose
    failure behavior is scripted.  The simulation is the point: a crash
    test must be able to kill the store at {e every} write boundary, in
    every corruption flavor, and replay any failure exactly — so every
    choice an injection makes (where a torn write tears, which bit
    flips) derives from the plan's seed via {!Ltree_workload.Prng}.

    The simulated disk is write-through: each primitive applies
    immediately and [fsync] is an ordering point with no further
    buffering semantics.  That makes "what survives the crash" exact
    and deterministic — everything fully written before the crash
    point, plus whatever the failing write itself left behind — which
    is the worst case the recovery protocol must already handle
    (a weaker disk only loses {e more} of the un-synced tail, moving
    the recovered prefix earlier; the crash matrix sweeps those shorter
    prefixes as earlier crash points).

    The simulated disk also charges what a real disk charges, because
    every crash matrix and benchmark that runs on it reads its costs as
    the durable layer's: an append costs O(appended bytes), not
    O(file), and a read flattens a file's appended chunks into one
    string at most once per append (reads with no append between them
    share the flattened string).  [write_file], [rename_file] and
    [remove_file] cost O(1) beyond the payload they are handed. *)

(** Simulated power loss.  [point] is the write-point counter at the
    failing primitive; [what] names it (e.g. ["append store/journal"]). *)
exception Crash of { point : int; what : string }

(** The I/O surface the durable store consumes.  [read_file] returns
    [None] for missing files; [rename_file] is atomic;
    [write_file]/[append_file] create missing files. *)
type io = {
  read_file : string -> string option;
  write_file : string -> string -> unit;
  append_file : string -> string -> unit;
  rename_file : src:string -> dst:string -> unit;
  fsync : string -> unit;
  remove_file : string -> unit;
  file_exists : string -> bool;
}

(** How a failing I/O primitive misbehaves.  The first three are disk
    damage: [Clean] applies nothing (crash at the boundary), [Torn]
    applies a seeded strict prefix of the payload (torn sector), [Flip]
    applies the full payload with one seeded bit flipped (detectable
    only by checksum).  Primitives without a payload (rename, fsync,
    remove) degrade [Torn]/[Flip] to [Clean].

    [Short_read] and [Delay] extend the same vocabulary to transports
    ({!Ltree_replication.Channel}): [Short_read] delivers a seeded
    strict prefix now and the remainder later as a separate chunk;
    [Delay] delivers the full payload late, letting younger traffic
    overtake it within a bounded window.  On the simulated disk — where
    there is no "later" — both degrade to [Clean]. *)
type mode = Clean | Torn | Flip | Short_read | Delay

val mode_name : mode -> string

(** [mode_of_name s] inverts {!mode_name} ([None] on unknown names) —
    the parser behind [--only CELL] style flags. *)
val mode_of_name : string -> mode option

(** The disk damage modes, [[Clean; Torn; Flip]] — the crash matrices
    sweep exactly these, so existing plans are unchanged by the
    transport kinds. *)
val all_modes : mode list

(** Every kind a {!Ltree_replication.Channel} can inject:
    [all_modes @ [Short_read; Delay]]. *)
val channel_modes : mode list

(** A scripted failure: crash at the [crash_point]-th write primitive,
    misbehaving per [mode], with all injection randomness derived from
    [seed]. *)
type plan = { crash_point : int; mode : mode; seed : int }

(** {1 Simulated disk} *)

type sim

(** [create_sim ?plan ?files ()] is a fresh simulated disk, optionally
    preloaded with [files] (path, contents) and armed with a failure
    [plan].  Without a plan it never fails. *)
val create_sim : ?plan:plan -> ?files:(string * string) list -> unit -> sim

val sim_io : sim -> io

(** [points t] is the number of write primitives executed so far — run
    a workload once uninjected to learn the matrix width. *)
val points : sim -> int

(** [dump t] is every file's surviving contents, sorted by path — what
    a restarted process would find. *)
val dump : sim -> (string * string) list

(** [corrupt_file t ~path ~f] replaces a file's contents with [f
    contents]: external damage (fuzzing) as opposed to crash damage.
    Raises [Invalid_argument] when the file does not exist. *)
val corrupt_file : sim -> path:string -> f:(string -> string) -> unit

(** {1 Real disk}

    The same surface over the actual filesystem, with [fsync] backed by
    [Unix.fsync].  Paths are used as given; parent directories must
    exist. *)
val real_io : io
