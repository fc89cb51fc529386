(** Journal entries for labeled documents: one structural update each,
    addressed by label, with the binary codec durability layers frame
    and the function that applies an entry to a document.

    What makes replay exact is label determinism: the L-Tree assigns the
    same labels for the same operations, so an entry can address its
    target by the {e label} of the anchoring tag — {!apply_entry}
    resolves it in O(height) with {!Ltree_core.Ltree.find_by_label} and,
    applied in order on top of a {!Snapshot}, re-produces bit-identical
    labels (property-tested).  {!Ltree_recovery.Durable_doc} is the
    write-ahead log built on these entries. *)

(** {1 Entries} *)

type entry =
  | Insert of { anchor : int; index : int; xml : string }
      (** [anchor] is the begin-tag label of the parent; [xml] a
          serialized fragment inserted as its [index]-th child. *)
  | Delete of { anchor : int }
  | Set_text of { anchor : int; text : string }

(** [entry_to_line e] is the one-line textual form of an entry, for
    printing (no newline; fragments and text are XML-escaped). *)
val entry_to_line : entry -> string

(** [encode_entry e] is the bytes a journal record and a data frame
    carry: a kind byte ([I], [D], [T]), the anchor varint, then an
    insert's index varint and fragment or a set_text's text, each
    string a varint length and its raw bytes (no escaping). *)
val encode_entry : entry -> string

(** [decode_entry s] reads the entry that fills [s], or raises
    {!Corrupt}.  If it returns [e], [encode_entry e = s]. *)
val decode_entry : string -> entry

(** [apply_entry ldoc e] applies one entry to a document.  Raises
    {!Replay_error} when the anchor label does not resolve
    (journal/snapshot mismatch) and {!Corrupt} when an insert's fragment
    does not parse — both typed, so recovery can distinguish a corrupt
    journal tail from a logic bug. *)
val apply_entry : Labeled_doc.t -> entry -> unit

(** {1 Errors} *)

(** An undecodable entry or unparsable fragment; {!Varint.Corrupt}. *)
exception Corrupt of string

(** An entry whose anchor label resolves to no live node: the journal
    does not belong to the snapshot it is being replayed on.  [what]
    names the operation kind (["insert"], ["delete"], ["set_text"]). *)
exception Replay_error of { what : string; anchor : int }
