open Ltree_xml
open Ltree_core

exception Corrupt = Varint.Corrupt

let magic = "ltree-snapshot 2\n"

(* [iter_texts f nodes] visits the text nodes under [nodes] in document
   order.  Plain recursion, not [Dom.iter_preorder], so no closure is
   built per node. *)
let rec iter_texts f = function
  | [] -> ()
  | n :: rest ->
    (match Dom.kind n with
     | Dom.Text s -> f n s
     | Dom.Element _ | Dom.Comment _ | Dom.Pi _ ->
       iter_texts f (Dom.children n));
    iter_texts f rest

(* The number of text nodes, after checking that none is empty. *)
let count_texts roots =
  let count = ref 0 in
  iter_texts
    (fun n s ->
      if s = "" then
        invalid_arg
          (Printf.sprintf
             "Snapshot.save: text node #%d (document order, dom id %d) is \
              empty — empty text nodes vanish in the serialization and \
              cannot be snapshotted"
             !count (Dom.id n));
      incr count)
    roots;
  !count

(* One pass over the leaves writes each label as the varint of its
   gap to the previous one, shifted left once with the tombstone flag in
   bit 0.  Labels increase strictly in document order, so the gaps are
   non-negative and small; the first gap is from 0. *)
let add_image buf ldoc =
  let tree = Labeled_doc.tree ldoc in
  let params = Ltree.params tree in
  let doc = Labeled_doc.document ldoc in
  let roots = Option.to_list doc.Dom.root in
  let ntexts = count_texts roots in
  Buffer.add_string buf magic;
  Varint.add buf params.Params.f;
  Varint.add buf params.Params.s;
  Varint.add buf (Ltree.height tree);
  Varint.add buf (Ltree.length tree);
  let prev = ref 0 in
  Ltree.iter_leaves tree (fun l ->
      let label = Ltree.label tree l in
      let gap = label - !prev in
      if gap < 0 || gap > max_int lsr 1 then
        invalid_arg "Snapshot.save: leaf label gap out of range";
      Varint.add buf ((gap lsl 1) lor Bool.to_int (Ltree.is_deleted l));
      prev := label);
  (* Reparsing merges adjacent text siblings; their decoded lengths let
     the loader split them back. *)
  Varint.add buf ntexts;
  iter_texts (fun _ s -> Varint.add buf (String.length s)) roots;
  Serializer.add_document buf doc

let save ldoc =
  let nslots = Ltree.length (Labeled_doc.tree ldoc) in
  let buf = Buffer.create (4096 + (nslots * 16)) in
  add_image buf ldoc;
  Buffer.contents buf

let corrupt fmt = Printf.ksprintf (fun m -> raise (Corrupt m)) fmt

(* Undo the text merging the reparse performed: walk the parsed text
   nodes in document order and split any whose length spans several
   recorded lengths. *)
let resplit_texts (doc : Dom.document) expected =
  let next = ref 0 in
  let take () =
    if !next >= Array.length expected then
      corrupt "more text content than recorded";
    incr next;
    expected.(!next - 1)
  in
  let parsed = ref [] in
  iter_texts (fun n s -> parsed := (n, s) :: !parsed)
    (Option.to_list doc.root);
  List.iter
    (fun (node, s) ->
      let len = String.length s in
      let first = take () in
      if first = len then ()
      else if first > len then corrupt "text shorter than recorded"
      else begin
        (* This parsed node is a merge: split to the recorded lengths. *)
        Dom.set_text node (String.sub s 0 first);
        let off = ref first in
        let anchor = ref node in
        while !off < len do
          let next_len = take () in
          if !off + next_len > len then corrupt "text lengths do not add up";
          let piece = Dom.text (String.sub s !off next_len) in
          Dom.insert_after ~anchor:!anchor piece;
          anchor := piece;
          off := !off + next_len
        done
      end)
    (List.rev !parsed);
  if !next <> Array.length expected then
    corrupt "fewer text nodes than recorded"

let read ?counters c =
  Varint.expect c magic;
  let f = Varint.uint c in
  let s = Varint.uint c in
  let params =
    try Params.make ~f ~s with Invalid_argument m -> corrupt "bad params: %s" m
  in
  let height = Varint.uint c in
  if height < 1 then corrupt "bad height %d" height;
  let labels = Array.make (Varint.count c "label") 0 in
  let deleted = ref [] in
  let prev = ref 0 in
  for i = 0 to Array.length labels - 1 do
    let v = Varint.uint c in
    let label = !prev + (v lsr 1) in
    if label < !prev then corrupt "label %d: delta overflows" i;
    labels.(i) <- label;
    if v land 1 = 1 then deleted := i :: !deleted;
    prev := label
  done;
  let texts = Array.make (Varint.count c "text") 0 in
  for i = 0 to Array.length texts - 1 do
    (* [save] refuses empty text nodes, so a zero length is damage. *)
    let len = Varint.uint c in
    if len = 0 then corrupt "text %d: empty" i;
    texts.(i) <- len
  done;
  let doc =
    try Parser.parse_string (Varint.rest c) with
    | Parser.Error (msg, pos) ->
      corrupt "embedded document: %s at %s" msg
        (Format.asprintf "%a" Token.pp_position pos)
    | Lexer.Error (msg, pos) ->
      corrupt "embedded document: %s at %s" msg
        (Format.asprintf "%a" Token.pp_position pos)
  in
  resplit_texts doc texts;
  (* Restoration validates the label state; damage it rejects is still
     a corrupt snapshot, so surface it as such, typed. *)
  try
    Labeled_doc.restore ?counters ~params ~height ~labels
      ~deleted:(List.rev !deleted) doc
  with
  | Invalid_argument m -> corrupt "label state rejected: %s" m
  | Ltree_analysis.Invariant.Violation { name; detail } ->
    corrupt "label state rejected: %s: %s" name detail

let load ?counters s = read ?counters (Varint.cursor s)

let save_file ldoc path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (save ldoc))

let load_file ?counters path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> load ?counters (really_input_string ic (in_channel_length ic)))
