(** Synthetic XML document generation.

    The paper evaluates against XML corpora we do not ship; this generator
    produces documents with the shape knobs the analysis actually depends
    on (size, depth, fanout, tag skew) — see DESIGN.md §5.  The default
    vocabulary mimics XMark's auction site schema so examples read
    naturally. *)

open Ltree_xml

type profile = {
  target_nodes : int; (** approximate number of DOM nodes to emit *)
  max_depth : int;
  mean_fanout : int;
  text_probability : float; (** chance a child slot is a text node *)
  tags : string array; (** sampled with Zipf skew *)
  tag_alpha : float;
}

(** A reasonable default profile at the given size. *)
val default_profile : ?target_nodes:int -> unit -> profile

(** [generate ?seed profile] builds a random document. *)
val generate : ?seed:int -> profile -> Dom.document

(** [xmark ?seed ~scale ()] builds a structured auction-site document in
    the spirit of the XMark benchmark: regions with items, categories,
    people with addresses, and open/closed auctions whose [itemref]/
    [personref] attributes cross-reference real ids.  [scale = 1.0]
    yields roughly 4–5k DOM nodes, linearly more with larger scales.
    Fully deterministic per seed. *)
val xmark : ?seed:int -> scale:float -> unit -> Dom.document

(** [fig1 ()] is exactly the paper's Figure 1 document: a [book] whose
    first child [chapter] holds a [title], followed by a sibling
    [title]. *)
val fig1 : unit -> Dom.document

