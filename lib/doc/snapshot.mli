(** Persistence for labeled documents.

    A snapshot stores the document text together with its current label
    state (parameters, tree height, every slot's label, tombstone
    positions).  Loading reconstructs the L-Tree from the labels alone
    ({!Ltree.of_labels}, the §4.2 implicit-structure property), so label
    values survive process restarts — the "persistent labels" concern of
    the paper's related-work discussion.

    The image is binary: a magic line, then unsigned LEB128 varints
    ({!Varint}), then the XML:

    {v
    ltree-snapshot 2\n
    f  s  height  n
    g1 ... gn            one per leaf slot, in document order
    k  len1 ... lenk     text count and decoded text lengths
    <serialized XML document, to the end>
    v}

    [gi] is [(label_i - label_(i-1)) lsl 1 lor deleted_i] with
    [label_0 = 0]: the §4.2 leaf-label image as gaps, each slot's
    tombstone flag in bit 0.  Labels increase strictly along the
    leaves, so every gap is non-negative, and at (8,2) most take one or
    two bytes where §3.1 sizes a label at [h·log₂(f−1)] bits.

    The text lengths record the decoded length of every text node in
    document order: DOM edits can leave adjacent text siblings, which an
    XML reparse would merge into one node (changing the tag count), so
    the loader re-splits them to the recorded lengths.  Documents
    containing {e empty} text nodes cannot be snapshotted (they would
    vanish entirely in the serialization); [save] raises
    [Invalid_argument] naming the offending text node (its document-order
    index among text nodes, plus its DOM id). *)

(** The one decoding error, {!Varint.Corrupt} itself. *)
exception Corrupt of string

(** [add_image buf ldoc] appends the image of [ldoc] to [buf] in one
    pass over the leaves, the text nodes and the DOM. *)
val add_image : Buffer.t -> Labeled_doc.t -> unit

(** [save ldoc] is the image {!add_image} writes, as a string. *)
val save : Labeled_doc.t -> string

(** [read c] decodes an image from [c]'s position to the end of its
    string.  Every malformed input — a truncated, overlong or
    non-minimal varint, a count larger than the bytes left, a label gap
    that overflows, an XML section that does not parse or a label state
    {!Labeled_doc.restore} rejects — raises {!Corrupt}. *)
val read : ?counters:Ltree_metrics.Counters.t -> Varint.cursor -> Labeled_doc.t

(** [load s] is {!read} from the start of [s]. *)
val load : ?counters:Ltree_metrics.Counters.t -> string -> Labeled_doc.t

val save_file : Labeled_doc.t -> string -> unit
val load_file : ?counters:Ltree_metrics.Counters.t -> string -> Labeled_doc.t
