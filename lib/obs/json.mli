(** The one JSON value type, printer and parser: trace entry lines,
    flight-recorder bundles, [ltree metrics --json] and the committed
    [BENCH_*.json] records print through {!to_buffer} and are read back
    with {!parse}.  Constructors, separators and the number rule match
    [bench/e2e/json.ml], so both print the same text for one value. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(** [escape s] escapes quotes, backslashes and control characters for a
    JSON string literal; other bytes (UTF-8 included) pass through. *)
val escape : string -> string

(** [to_buffer ?break_depth buf v] appends [v]: [", "] between elements,
    [": "] after keys; integral numbers below 1e15 without a fraction,
    other finite numbers with [%.17g], NaN and infinity as [0].
    Containers nested fewer than [break_depth] levels deep (default 0:
    one line) put each element on its own line, indented two spaces
    per level. *)
val to_buffer : ?break_depth:int -> Buffer.t -> t -> unit

val to_string : ?break_depth:int -> t -> string

(** [parse s] reads exactly one value, with optional surrounding
    whitespace.  [\uXXXX] escapes (surrogate pairs included) decode to
    UTF-8; trailing data, trailing commas, raw control characters in
    strings and numbers outside JSON's grammar are errors naming the
    byte offset. *)
val parse : string -> (t, string) result

(** [member k v] is field [k] of object [v], if any. *)
val member : string -> t -> t option
