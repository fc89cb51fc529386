(** An operation journal for labeled documents: write-ahead logging of
    structural updates, replayable on top of a {!Snapshot}.

    The classic recovery pair: persist a snapshot occasionally, append
    every update to a journal, and after a crash reload the snapshot and
    replay the tail.  What makes replay exact here is label determinism:
    the L-Tree assigns the same labels for the same operations, so a
    journal entry can address its target by the {e label} of the
    anchoring tag — replay resolves it in O(height) with
    {!Ltree_core.Ltree.find_by_label} and re-produces bit-identical
    labels (property-tested).

    Entries are recorded by performing updates {e through} the journal
    ([insert_subtree], [delete_subtree], [set_text]); mixing in direct
    {!Labeled_doc} updates would desynchronize the log. *)

open Ltree_xml

type t

(** [create ()] is an empty journal. *)
val create : unit -> t

val length : t -> int

(** {1 Journaled updates} — same semantics as the {!Labeled_doc}
    operations they wrap. *)

val insert_subtree :
  t -> Labeled_doc.t -> parent:Dom.node -> index:int -> Dom.node -> unit

val delete_subtree : t -> Labeled_doc.t -> Dom.node -> unit

(** [set_text j ldoc node s] journals a text replacement (label-free: the
    slot keeps its label). *)
val set_text : t -> Labeled_doc.t -> Dom.node -> string -> unit

(** {1 Entries}

    The entry type is public so durability layers
    ({!Ltree_recovery.Durable_doc}) can frame, checksum and replay
    records one at a time instead of round-tripping whole journals. *)

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

(** {1 Replay} *)

(** An undecodable entry or unparsable fragment; {!Varint.Corrupt}. *)
exception Corrupt of string

(** An entry whose anchor label resolves to no live node: the journal
    does not belong to the snapshot it is being replayed on.  [what]
    names the operation kind (["insert"], ["delete"], ["set_text"]). *)
exception Replay_error of { what : string; anchor : int }

(** [replay j ldoc] applies the journal to a document restored from the
    snapshot taken when the journal was started.  Raises {!Replay_error}
    when an entry's anchor label cannot be resolved (journal/snapshot
    mismatch). *)
val replay : t -> Labeled_doc.t -> unit

(** [clear j] empties the journal (call after taking a fresh snapshot). *)
val clear : t -> unit
