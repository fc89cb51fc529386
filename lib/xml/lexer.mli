(** A hand-written XML tokenizer.

    Covers the subset of XML 1.0 that document databases care about:
    elements with attributes, character data with the five predefined
    entities and numeric character references, CDATA sections, comments,
    processing instructions, an optional XML declaration and a DOCTYPE
    (kept verbatim, internal subsets are not parsed).  Namespaces are left
    as plain colonized names. *)

exception Error of string * Token.position

(** [tokenize s] is the token stream of [s], with positions.
    Raises {!Error} on malformed input. *)
val tokenize : string -> Token.spanned list
