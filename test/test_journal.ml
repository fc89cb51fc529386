(* Journal: snapshot + replayed log reproduces the exact document state,
   labels included — the recovery property that label determinism buys. *)

open Ltree_xml
open Ltree_doc
module Xml_gen = Ltree_workload.Xml_gen
module Prng = Ltree_workload.Prng

let case = Alcotest.test_case

let labels_of ldoc = List.map snd (Labeled_doc.labeled_events ldoc)

let basic_roundtrip () =
  let doc = Parser.parse_string "<a><b>x</b><c/></a>" in
  let ldoc = Labeled_doc.of_document doc in
  let snap = Snapshot.save ldoc in
  let j = Journal.create () in
  let root = Option.get doc.root in
  Journal.insert_subtree j ldoc ~parent:root ~index:1
    (Parser.parse_fragment "<d><e/></d>");
  let b = List.nth (Dom.children root) 0 in
  Journal.set_text j ldoc (List.hd (Dom.children b)) "updated";
  (* children are now [b; d; c]. *)
  let c = List.nth (Dom.children root) 2 in
  Journal.delete_subtree j ldoc c;
  Alcotest.(check int) "three entries" 3 (Journal.length j);
  (* Crash: reload the snapshot and replay the journal. *)
  let recovered = Snapshot.load snap in
  Journal.replay j recovered;
  Labeled_doc.check recovered;
  Alcotest.(check (list int)) "labels identical" (labels_of ldoc)
    (labels_of recovered);
  (match ((Labeled_doc.document recovered).root, doc.root) with
   | Some a, Some b ->
     Alcotest.(check bool) "documents identical" true
       (Dom.equal_structure a b)
   | _ -> Alcotest.fail "missing root")

let special_characters () =
  let doc = Parser.parse_string "<a><t>old</t></a>" in
  let ldoc = Labeled_doc.of_document doc in
  let snap = Snapshot.save ldoc in
  let j = Journal.create () in
  let root = Option.get doc.root in
  let t_node = List.hd (Dom.children root) in
  Journal.set_text j ldoc
    (List.hd (Dom.children t_node))
    "multi\nline & <specials> \"quoted\"";
  Journal.insert_subtree j ldoc ~parent:root ~index:1
    (Parser.parse_fragment "<note lang=\"fr\">d&#233;j&#224; vu\nencore</note>");
  let recovered = Snapshot.load snap in
  Journal.replay j recovered;
  Labeled_doc.check recovered;
  (match ((Labeled_doc.document recovered).root, doc.root) with
   | Some a, Some b ->
     Alcotest.(check bool) "specials survive" true (Dom.equal_structure a b)
   | _ -> Alcotest.fail "missing root");
  (* The binary codec durability layers frame records with: raw bytes,
     no escaping; the printed line stays on one line. *)
  List.iter
    (fun e ->
      Alcotest.(check bool) "one line" false
        (String.contains (Journal.entry_to_line e) '\n');
      let bytes = Journal.encode_entry e in
      Alcotest.(check bool) "binary codec round trip" true
        (Journal.decode_entry bytes = e))
    [
      Journal.Set_text
        { anchor = 3; text = "multi\nline & <specials> \"quoted\"" };
      Journal.Insert
        {
          anchor = 0;
          index = 1;
          xml = "<note lang=\"fr\">d\195\169j\195\160 vu\nencore</note>";
        };
      Journal.Delete { anchor = 7 };
    ]

(* After a fresh snapshot the journal is cleared: replaying it onto that
   snapshot changes nothing, and new edits log from an empty journal. *)
let clear_after_snapshot () =
  let doc = Parser.parse_string "<a><b/></a>" in
  let ldoc = Labeled_doc.of_document doc in
  let j = Journal.create () in
  let root = Option.get doc.root in
  Journal.insert_subtree j ldoc ~parent:root ~index:1
    (Parser.parse_fragment "<c><d/></c>");
  Alcotest.(check int) "one entry" 1 (Journal.length j);
  let snap = Snapshot.save ldoc in
  Journal.clear j;
  Alcotest.(check int) "cleared" 0 (Journal.length j);
  let recovered = Snapshot.load snap in
  Journal.replay j recovered;
  Alcotest.(check (list int)) "replaying nothing keeps the snapshot"
    (labels_of ldoc) (labels_of recovered);
  Journal.delete_subtree j ldoc (List.hd (Dom.children root));
  Alcotest.(check int) "logging resumes from empty" 1 (Journal.length j);
  Journal.replay j recovered;
  Labeled_doc.check recovered;
  Alcotest.(check (list int)) "later edits replay on the new snapshot"
    (labels_of ldoc) (labels_of recovered)

let corrupt_rejected () =
  let rejects what s =
    Alcotest.(check bool) ("rejects " ^ what) true
      (try
         ignore (Journal.decode_entry s);
         false
       with Journal.Corrupt _ -> true)
  in
  let insert =
    Journal.encode_entry
      (Journal.Insert { anchor = 300; index = 2; xml = "<x/>" })
  in
  rejects "empty" "";
  rejects "unknown kind" "Z\001";
  rejects "truncated insert" (String.sub insert 0 (String.length insert - 1));
  rejects "trailing byte" (insert ^ "\000");
  (* 300 as a padded three-byte varint: every value has one encoding. *)
  rejects "non-minimal anchor" "D\172\130\000";
  rejects "string past the end" "T\001\009abc"

(* Causal ids and replication chain links hash the stored bytes, and a
   replica re-encodes what it decodes: the decoder may accept only the
   encoder's own output.  Arbitrary byte strings, plus mutations of
   valid entries so the accepting cases are not rare. *)
let canonical_prop =
  let entry_gen =
    QCheck.Gen.(
      let str = string_size ~gen:char (int_bound 20) in
      oneof
        [ map3
            (fun anchor index xml -> Journal.Insert { anchor; index; xml })
            (int_bound 100_000) (int_bound 300) str;
          map (fun anchor -> Journal.Delete { anchor }) (int_bound 100_000);
          map2
            (fun anchor text -> Journal.Set_text { anchor; text })
            (int_bound 100_000) str ])
  in
  let bytes_gen =
    QCheck.Gen.(
      oneof
        [ string_size ~gen:char (int_bound 12);
          map3
            (fun e i c ->
              let b = Bytes.of_string (Journal.encode_entry e) in
              let i = i mod Bytes.length b in
              let flipped = Char.code (Bytes.get b i) lxor (1 lsl c) in
              Bytes.set b i (Char.chr flipped);
              Bytes.to_string b)
            entry_gen nat (int_bound 7);
          map (fun e -> Journal.encode_entry e) entry_gen ])
  in
  QCheck.Test.make ~count:2000
    ~name:"accepted entry bytes re-encode to themselves"
    (QCheck.make ~print:String.escaped bytes_gen)
    (fun b ->
      match Journal.decode_entry b with
      | e -> String.equal (Journal.encode_entry e) b
      | exception Journal.Corrupt _ -> true)

let replay_prop =
  QCheck.Test.make ~count:25
    ~name:"snapshot + journal replay = live state (random edits)"
    QCheck.(make Gen.(pair (int_bound 50_000) (int_range 20 150)))
    (fun (seed, size) ->
      let prng = Prng.create seed in
      let doc =
        Xml_gen.generate ~seed (Xml_gen.default_profile ~target_nodes:size ())
      in
      let ldoc = Labeled_doc.of_document doc in
      let snap = Snapshot.save ldoc in
      let j = Journal.create () in
      let root = Option.get doc.root in
      for i = 1 to 30 do
        let elements = List.filter Dom.is_element (Dom.descendants root) in
        let target =
          List.nth elements (Prng.int prng (List.length elements))
        in
        match Prng.int prng 4 with
        | 0 when target != root -> Journal.delete_subtree j ldoc target
        | 1 ->
          let texts =
            List.filter Dom.is_text (Dom.descendants root)
          in
          if texts <> [] then
            Journal.set_text j ldoc
              (List.nth texts (Prng.int prng (List.length texts)))
              (Printf.sprintf "edit %d" i)
        | _ ->
          Journal.insert_subtree j ldoc ~parent:target
            ~index:(Prng.int prng (Dom.child_count target + 1))
            (Parser.parse_fragment
               (Printf.sprintf "<patch n=\"%d\"><x/>y</patch>" i))
      done;
      let recovered = Snapshot.load snap in
      Journal.replay j recovered;
      Labeled_doc.check recovered;
      labels_of ldoc = labels_of recovered
      && Dom.equal_structure (Option.get doc.root)
           (Option.get (Labeled_doc.document recovered).root))

let suite =
  ( "journal",
    [ case "basic recovery round trip" `Quick basic_roundtrip;
      case "special characters" `Quick special_characters;
      case "corruption rejected" `Quick corrupt_rejected;
      QCheck_alcotest.to_alcotest canonical_prop;
      case "clear after a snapshot" `Quick clear_after_snapshot;
      QCheck_alcotest.to_alcotest replay_prop ] )
