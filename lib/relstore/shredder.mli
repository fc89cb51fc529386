(** Shredding a labeled XML document into relations.

    Two storage layouts from the paper's §1 survey:

    - the {e edge table} (Florescu–Kossmann): one row per node carrying its
      parent id, so every navigation step is a self-join;
    - the {e label table}: one row per node carrying its L-Tree
      [(start, end, level)] label, so ancestor-descendant navigation is a
      single label-predicate join.

    Both are built over the same {!Pager} so their page-read counts are
    directly comparable (experiment E8). *)

open Ltree_xml

type edge_row = {
  e_id : int; (** Dom node id *)
  e_parent : int; (** parent's Dom id, -1 for the root *)
  e_tag : string; (** element name, or ["#text"] for text nodes *)
  e_pos : int; (** position among siblings *)
}

type label_row = {
  l_id : int;
  l_tag : string;
  l_start : int;
  l_end : int;
  l_level : int;
  l_dead : bool; (** tombstoned by {!Label_sync} after a node deletion *)
}

type edge_store = {
  edge_table : edge_row Rel_table.t;
  edge_by_tag : (string, int list) Hashtbl.t; (* tag -> row ids *)
  edge_by_parent : int list Ltree_metrics.Int_tbl.t;
      (* node id -> child row ids *)
}

type label_store = {
  label_table : label_row Rel_table.t;
  label_by_tag : (string, int list) Hashtbl.t; (* tag -> row ids *)
  label_by_node : int Ltree_metrics.Int_tbl.t; (* Dom id -> row id *)
  label_index : Label_index.t;
      (* per-tag sorted (start, end, row id) arrays — the secondary
         index behind the structural-join plans; built lazily per tag
         and incrementally repaired when {!Label_sync.flush} reports
         which rows moved *)
  mutable label_epoch : int;
      (* store-level incarnation stamp, bumped by {!Label_sync.resync}
         after a crash recovery replaces the backing document; sync
         handles created against an older epoch refuse to write, so a
         restarted store can never be fed through a stale handle *)
}

(** [tag_of n] is the relational tag of a node: its element name,
    ["#text"] for text, [None] for comments/PIs (not stored). *)
val tag_of : Dom.node -> string option

(** [shred_edge pager ?rows_per_page doc] builds the edge relation
    (documents only need the DOM, not the labels). *)
val shred_edge :
  Pager.t -> ?rows_per_page:int -> Dom.document -> edge_store

(** [shred_label pager ?rows_per_page ldoc] builds the label relation from
    a labeled document and starts the document's dirty tracking
    ({!Ltree_doc.Labeled_doc.track_dirty}), so a {!Label_sync} over the
    result sees every later change. *)
val shred_label :
  Pager.t -> ?rows_per_page:int -> Ltree_doc.Labeled_doc.t -> label_store
