(** Process-wide flight recorder: self-describing diagnostic bundles of
    the one event ring.

    Subsystems write notes at interesting moments — fault injections,
    channel damage, recovery decisions, matrix cell verdicts — with
    {!Span.note} into {!Span}'s ring, next to span closes, so the ring
    keeps the most recent entries of every kind.  Notes are always on
    (a black box that has to be switched on before the crash records
    nothing).  When something goes wrong (an [Invariant] violation, a
    failed cell of any crash matrix, or an explicit [ltree bundle]) the
    caller {!dump}s a JSONL bundle of the entries leading up to the
    failure.  The recorder itself keeps no storage; histograms are a
    fold over the bundle's own entries ({!Exposition}). *)

(** [dump ?reason ?attrs ()] renders the whole ring as a JSONL bundle:
    a header line (version 3) carrying [reason], the entry and dropped
    counts and [attrs], one {!Trace.to_jsonl} line per entry, and a
    footer with the entry count.  A matrix dump's [attrs] are [cell]
    (the failed cell's coordinate), [failure] (its failures, joined by ["; "]) and
    [rerun] (the space-separated [ltree] arguments that rerun exactly
    that cell at the run's seed and config, without
    [--inject-cell-failure], [--bundle] or [--domains]);
    [ltree bundle --replay] reads [rerun] back through
    {!attr_of_bundle} and runs it. *)
val dump : ?reason:string -> ?attrs:(string * string) list -> unit -> string

(** [validate data] checks that [data] is a well-formed bundle: every
    line parses as JSON, the first line is a bundle header, the last is
    a footer, and the header's and the footer's ["events"] counts both
    equal the number of entry lines in between.  [Ok n] gives the
    number of lines. *)
val validate : string -> (int, string) result

(** [attr_of_bundle data key] extracts a string attribute from the
    bundle header, e.g. [attr_of_bundle data "rerun"] for the command
    that replays a failed matrix cell. *)
val attr_of_bundle : string -> string -> string option
