(* Snapshot persistence: labels survive a save/load round trip unchanged
   and the restored document keeps working. *)

open Ltree_xml
open Ltree_core
open Ltree_doc
module Xml_gen = Ltree_workload.Xml_gen
module Prng = Ltree_workload.Prng

let case = Alcotest.test_case

let labels_of ldoc =
  List.map snd (Labeled_doc.labeled_events ldoc)

let roundtrip_simple () =
  let doc = Parser.parse_string "<a><b>x</b><c/></a>" in
  let ldoc = Labeled_doc.of_document ~params:Params.fig2 doc in
  let before = labels_of ldoc in
  let restored = Snapshot.load (Snapshot.save ldoc) in
  Labeled_doc.check restored;
  Alcotest.(check (list int)) "labels preserved" before (labels_of restored);
  (* The restored document's structure matches. *)
  (match ((Labeled_doc.document restored).root, doc.root) with
   | Some a, Some b ->
     Alcotest.(check bool) "same document" true (Dom.equal_structure a b)
   | _ -> Alcotest.fail "missing root")

let roundtrip_after_edits () =
  let doc =
    Xml_gen.generate ~seed:3 (Xml_gen.default_profile ~target_nodes:300 ())
  in
  let ldoc = Labeled_doc.of_document ~params:(Params.make ~f:6 ~s:2) doc in
  let root = Option.get doc.root in
  (* Edit so that labels are no longer the pristine bulk assignment and
     tombstones exist. *)
  let prng = Prng.create 9 in
  for i = 1 to 25 do
    let elements = List.filter Dom.is_element (Dom.descendants root) in
    let target = List.nth elements (Prng.int prng (List.length elements)) in
    if i mod 5 = 0 && target != root then
      Labeled_doc.delete_subtree ldoc target
    else begin
      let sub = Parser.parse_fragment (Printf.sprintf "<patch n=\"%d\"/>" i) in
      Labeled_doc.insert_subtree ldoc ~parent:target
        ~index:(Prng.int prng (Dom.child_count target + 1))
        sub
    end
  done;
  Labeled_doc.check ldoc;
  let before = labels_of ldoc in
  let tree = Labeled_doc.tree ldoc in
  let slots_before = Ltree.length tree in
  let restored = Snapshot.load (Snapshot.save ldoc) in
  Labeled_doc.check restored;
  Alcotest.(check (list int)) "labels preserved across edits+tombstones"
    before (labels_of restored);
  Alcotest.(check int) "tombstoned slots preserved" slots_before
    (Ltree.length (Labeled_doc.tree restored));
  (* The restored tree continues to accept updates. *)
  let r_root = Option.get (Labeled_doc.document restored).root in
  let sub = Parser.parse_fragment "<after-restore/>" in
  Labeled_doc.insert_subtree restored ~parent:r_root ~index:0 sub;
  Labeled_doc.check restored

let adjacent_text_regression () =
  (* Deleting <b/> leaves "left" and "right" as adjacent text siblings;
     the snapshot must restore them as two nodes, not one. *)
  let doc = Parser.parse_string "<a>left<b/>right</a>" in
  let ldoc = Labeled_doc.of_document doc in
  let root = Option.get doc.root in
  let b = List.nth (Dom.children root) 1 in
  Labeled_doc.delete_subtree ldoc b;
  Labeled_doc.check ldoc;
  let restored = Snapshot.load (Snapshot.save ldoc) in
  Labeled_doc.check restored;
  Alcotest.(check (list int)) "labels preserved" (labels_of ldoc)
    (labels_of restored);
  let r_root = Option.get (Labeled_doc.document restored).root in
  Alcotest.(check int) "two text nodes" 2 (Dom.child_count r_root);
  Alcotest.(check string) "content intact" "<a>leftright</a>"
    (Serializer.node_to_string r_root);
  (* Empty text nodes are rejected up front. *)
  let doc2 = Parser.parse_string "<a><b/></a>" in
  let ldoc2 = Labeled_doc.of_document doc2 in
  let empty = Dom.text "" in
  Labeled_doc.insert_subtree ldoc2 ~parent:(Option.get doc2.root) ~index:0
    empty;
  Alcotest.(check bool) "empty text rejected" true
    (try
       ignore (Snapshot.save ldoc2);
       false
     with Invalid_argument _ -> true)

let file_roundtrip () =
  let doc = Parser.parse_string "<r><x/><y>t</y></r>" in
  let ldoc = Labeled_doc.of_document doc in
  let path = Filename.temp_file "ltree" ".snap" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Snapshot.save_file ldoc path;
      let restored = Snapshot.load_file path in
      Labeled_doc.check restored;
      Alcotest.(check (list int)) "file round trip" (labels_of ldoc)
        (labels_of restored))

(* A plain image encoder, written apart from [Snapshot]: one LEB128
   varint per entry, labels from [Ltree.labels] and tombstones from a
   separate pass.  Returns the image and the offsets where its label
   section and its XML start (the text lengths lie in between). *)
let add_leb128 buf n =
  let rec go n =
    if n < 0x80 then Buffer.add_char buf (Char.chr n)
    else begin
      Buffer.add_char buf (Char.chr ((n land 0x7F) + 0x80));
      go (n lsr 7)
    end
  in
  go n

let reference_image ldoc =
  let tree = Labeled_doc.tree ldoc in
  let params = Ltree.params tree in
  let labels = Ltree.labels tree in
  let deleted = Array.make (Array.length labels) false in
  let i = ref 0 in
  Ltree.iter_leaves tree (fun l ->
      deleted.(!i) <- Ltree.is_deleted l;
      incr i);
  let texts = ref [] in
  let doc = Labeled_doc.document ldoc in
  Option.iter
    (fun root ->
      Dom.iter_preorder root (fun n ->
          match Dom.kind n with
          | Dom.Text s -> texts := String.length s :: !texts
          | Dom.Element _ | Dom.Comment _ | Dom.Pi _ -> ()))
    doc.Dom.root;
  let texts = List.rev !texts in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "ltree-snapshot 2\n";
  List.iter (add_leb128 buf)
    [ params.Params.f; params.Params.s; Ltree.height tree;
      Array.length labels ];
  let labels_at = Buffer.length buf in
  Array.iteri
    (fun i l ->
      let prev = if i = 0 then 0 else labels.(i - 1) in
      add_leb128 buf ((2 * (l - prev)) + if deleted.(i) then 1 else 0))
    labels;
  add_leb128 buf (List.length texts);
  List.iter (add_leb128 buf) texts;
  let xml_at = Buffer.length buf in
  Buffer.add_string buf (Serializer.to_string doc);
  (Buffer.contents buf, labels_at, xml_at)

let reference_save ldoc =
  let image, _, _ = reference_image ldoc in
  image

let corrupt_rejected () =
  let doc = Parser.parse_string "<a/>" in
  let ldoc = Labeled_doc.of_document doc in
  let good = Snapshot.save ldoc in
  let rejects name s =
    Alcotest.(check bool) name true
      (try
         ignore (Snapshot.load s);
         false
       with Snapshot.Corrupt _ -> true)
  in
  let _, labels_at, _ = reference_image ldoc in
  (* The two slots of <a/> hold labels 0 and 1: gaps 0 and 1, doubled. *)
  Alcotest.(check string) "label section" "\000\002"
    (String.sub good labels_at 2);
  let with_labels gaps =
    String.sub good 0 labels_at ^ gaps
    ^ String.sub good (labels_at + 2) (String.length good - labels_at - 2)
  in
  rejects "empty" "";
  rejects "bad magic" ("nonsense\n" ^ good);
  rejects "version 1 magic"
    ("ltree-snapshot 1\n" ^ String.sub good 17 (String.length good - 17));
  rejects "truncated" (String.sub good 0 (String.length good / 2));
  rejects "label tampering" (with_labels "\002\000");
  rejects "truncated varint" (String.sub good 0 labels_at ^ "\x80");
  rejects "non-minimal varint" (with_labels "\x80\000");
  rejects "overlong varint"
    (with_labels "\xff\xff\xff\xff\xff\xff\xff\xff\x7f");
  rejects "count past the end"
    (String.sub good 0 (labels_at - 1) ^ "\x7f"
     ^ String.sub good labels_at (String.length good - labels_at));
  (* Three slots, each gap 2^61 - 1: the third label passes max_int. *)
  let widest = "\xfe\xff\xff\xff\xff\xff\xff\xff\x3f" in
  match
    Snapshot.load
      (String.sub good 0 (labels_at - 1) ^ "\003" ^ widest ^ widest ^ widest
      ^ String.sub good (labels_at + 2) (String.length good - labels_at - 2))
  with
  | _ -> Alcotest.fail "overflowing gap accepted"
  | exception Snapshot.Corrupt m ->
    Alcotest.(check string) "delta overflow" "label 2: delta overflows" m

let snapshot_prop =
  QCheck.Test.make ~count:30 ~name:"snapshot round trip on generated docs"
    QCheck.(make Gen.(pair (int_bound 100000) (int_range 10 200)))
    (fun (seed, size) ->
      let doc =
        Xml_gen.generate ~seed (Xml_gen.default_profile ~target_nodes:size ())
      in
      let ldoc = Labeled_doc.of_document doc in
      let restored = Snapshot.load (Snapshot.save ldoc) in
      Labeled_doc.check restored;
      labels_of ldoc = labels_of restored)

(* Empty text nodes vanish when the document is serialized, so [save]
   must refuse them — and the error must say which node, in document
   order, so the caller can find it. *)
let empty_text_named () =
  let doc = Parser.parse_string "<a><t>one</t><u>two</u></a>" in
  let ldoc = Labeled_doc.of_document doc in
  let root = Option.get doc.root in
  let u_text = List.hd (Dom.children (List.nth (Dom.children root) 1)) in
  Dom.set_text u_text "";
  (match Snapshot.save ldoc with
   | (_ : string) -> Alcotest.fail "empty text node must be rejected"
   | exception Invalid_argument msg ->
     let mentions sub =
       let n = String.length sub in
       let rec scan i =
         i + n <= String.length msg
         && (String.equal (String.sub msg i n) sub || scan (i + 1))
       in
       scan 0
     in
     (* "one" is text node #0; the emptied one under <u> is #1. *)
     Alcotest.(check bool) "names the offending node" true
       (mentions "text node #1");
     Alcotest.(check bool) "explains why" true
       (mentions "vanish in the serialization"));
  (* Restoring the text makes the document snapshotable again. *)
  Dom.set_text u_text "two";
  let restored = Snapshot.load (Snapshot.save ldoc) in
  Labeled_doc.check restored;
  Alcotest.(check (list int)) "round trip after repair" (labels_of ldoc)
    (labels_of restored)

(* [Snapshot.save] must equal [reference_save] byte for byte on
   documents that cover label 0, tombstoned slots and the large labels
   of a tall tree with the smallest fan-out. *)
(* A generated document edited at random: inserts concentrated on a few
   parents grow the tree, deletions leave tombstones. *)
let edited_doc ~seed ~size ~params ~edits =
  let doc =
    Xml_gen.generate ~seed (Xml_gen.default_profile ~target_nodes:size ())
  in
  let ldoc = Labeled_doc.of_document ~params doc in
  let root = Option.get doc.root in
  let prng = Prng.create seed in
  for i = 1 to edits do
    let elements = List.filter Dom.is_element (Dom.descendants root) in
    let target =
      List.nth elements (Prng.int prng (min 4 (List.length elements)))
    in
    if i mod 7 = 0 then begin
      let victim = List.nth elements (Prng.int prng (List.length elements)) in
      if victim != root then Labeled_doc.delete_subtree ldoc victim
    end
    else
      Labeled_doc.insert_subtree ldoc ~parent:target
        ~index:(Prng.int prng (Dom.child_count target + 1))
        (Parser.parse_fragment (Printf.sprintf "<e i=\"%d\">t%d</e>" i i))
  done;
  ldoc

let save_matches_reference () =
  let cases =
    [ ("fig2 plain", 0, 40, Params.fig2, 0);
      ("fig2 edited", 1, 80, Params.fig2, 60);
      ("tall tree, f=4", 2, 400, Params.make ~f:4 ~s:2, 3000);
      ("f=6", 3, 300, Params.make ~f:6 ~s:2, 120);
      ("f=16", 4, 500, Params.make ~f:16 ~s:4, 200) ]
  in
  let max_label = ref 0 and saw_zero = ref false and saw_deleted = ref false in
  List.iter
    (fun (name, seed, size, params, edits) ->
      let ldoc = edited_doc ~seed ~size ~params ~edits in
      let tree = Labeled_doc.tree ldoc in
      Array.iter
        (fun l ->
          if l = 0 then saw_zero := true;
          max_label := max !max_label l)
        (Ltree.labels tree);
      Ltree.iter_leaves tree (fun l ->
          if Ltree.is_deleted l then saw_deleted := true);
      let saved = Snapshot.save ldoc in
      Alcotest.(check string) (name ^ ": byte-identical") (reference_save ldoc)
        saved;
      let restored = Snapshot.load saved in
      Labeled_doc.check restored;
      Alcotest.(check (list int)) (name ^ ": round trip") (labels_of ldoc)
        (labels_of restored))
    cases;
  Alcotest.(check bool) "covers label 0" true !saw_zero;
  Alcotest.(check bool) "covers tombstones" true !saw_deleted;
  Alcotest.(check bool) "covers six-digit labels" true (!max_label > 500_000)

let save_matches_reference_prop =
  QCheck.Test.make ~count:40 ~name:"random docs save like the reference"
    QCheck.(
      make
        Gen.(
          quad (int_bound 100000) (int_range 5 150) (int_range 0 80)
            (oneofl [ (4, 2); (6, 2); (6, 3); (9, 3); (16, 4) ])))
    (fun (seed, size, edits, (f, s)) ->
      let ldoc = edited_doc ~seed ~size ~params:(Params.make ~f ~s) ~edits in
      let saved = Snapshot.save ldoc in
      String.equal saved (reference_save ldoc)
      && labels_of (Snapshot.load saved) = labels_of ldoc)

(* Every damaged image either raises [Snapshot.Corrupt] or restores a
   document that passes [Labeled_doc.check]: any other exception is a
   leak.  [name] says which damage. *)
let typed_or_valid name s =
  match Snapshot.load s with
  | restored -> (
      try Labeled_doc.check restored
      with e ->
        Alcotest.failf "%s: accepted image fails check: %s" name
          (Printexc.to_string e))
  | exception Snapshot.Corrupt _ -> ()
  | exception e ->
    Alcotest.failf "%s: decoder leaked %s" name (Printexc.to_string e)

let small_edited_doc () =
  let ldoc = edited_doc ~seed:5 ~size:40 ~params:Params.fig2 ~edits:30 in
  let tombstones = ref 0 in
  Ltree.iter_leaves (Labeled_doc.tree ldoc) (fun l ->
      if Ltree.is_deleted l then incr tombstones);
  Alcotest.(check bool) "the document has tombstones" true (!tombstones > 0);
  ldoc

let every_truncation () =
  let image = Snapshot.save (small_edited_doc ()) in
  for len = 0 to String.length image - 1 do
    typed_or_valid
      (Printf.sprintf "truncated to %d bytes" len)
      (String.sub image 0 len)
  done

(* Every bit before the XML: the magic and the header varints as well
   as the label and text-length sections (a height too tall for an
   [int] label must be a typed rejection, not [Params.Label_overflow]). *)
let every_bit_flip () =
  let ldoc = small_edited_doc () in
  let image, _, xml_at = reference_image ldoc in
  Alcotest.(check string) "image is the reference" image (Snapshot.save ldoc);
  let corrupt = ref 0 in
  for byte = 0 to xml_at - 1 do
    for bit = 0 to 7 do
      let b = Bytes.of_string image in
      Bytes.set b byte
        (Char.chr (Char.code (Bytes.get b byte) lxor (1 lsl bit)));
      let s = Bytes.to_string b in
      typed_or_valid (Printf.sprintf "bit %d of byte %d flipped" bit byte) s;
      match Snapshot.load s with
      | _ -> ()
      | exception Snapshot.Corrupt _ -> incr corrupt
    done
  done;
  Alcotest.(check bool) "most flips are caught" true
    (!corrupt * 2 > xml_at * 8)

let suite =
  ( "snapshot",
    [ case "simple round trip" `Quick roundtrip_simple;
      case "round trip after edits" `Quick roundtrip_after_edits;
      case "adjacent text nodes after deletion" `Quick
        adjacent_text_regression;
      case "file round trip" `Quick file_roundtrip;
      case "corruption rejected" `Quick corrupt_rejected;
      case "empty text node rejected by index" `Quick empty_text_named;
      case "save is byte-identical to the reference" `Quick
        save_matches_reference;
      case "every truncation is typed" `Quick every_truncation;
      case "every header/label/text bit flip is typed" `Quick every_bit_flip;
      QCheck_alcotest.to_alcotest save_matches_reference_prop;
      QCheck_alcotest.to_alcotest snapshot_prop ] )
