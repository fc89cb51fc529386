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
  (* The one-line codec durability layers frame records with. *)
  List.iter
    (fun e ->
      let line = Journal.entry_to_line e in
      Alcotest.(check bool) "one line" false (String.contains line '\n');
      Alcotest.(check bool) "line codec round trip" true
        (Journal.entry_of_line line = e))
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
  let rejects s =
    Alcotest.(check bool) ("rejects " ^ s) true
      (try
         ignore (Journal.entry_of_line s);
         false
       with Journal.Corrupt _ -> true)
  in
  rejects "";
  rejects "nonsense";
  rejects "I notanint 2 x";
  rejects "Z 1"

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
      case "clear after a snapshot" `Quick clear_after_snapshot;
      QCheck_alcotest.to_alcotest replay_prop ] )
