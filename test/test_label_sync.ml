(* Label_sync: the stored relation tracks the document's labels through
   arbitrary edits; queries stay exact after each flush; write volume is
   proportional to the relabeled region, not the document. *)

open Ltree_xml
open Ltree_relstore
module Counters = Ltree_metrics.Counters
module Labeled_doc = Ltree_doc.Labeled_doc
module Xml_gen = Ltree_workload.Xml_gen
module Prng = Ltree_workload.Prng

let case = Alcotest.test_case

let setup src =
  let doc = Parser.parse_string src in
  let ldoc = Labeled_doc.of_document doc in
  let counters = Counters.create () in
  let pager = Pager.create counters in
  let store = Shredder.shred_label pager ldoc in
  let sync = Label_sync.create pager store ldoc in
  (doc, ldoc, pager, store, sync, counters)

let insert_then_query () =
  let doc, ldoc, pager, store, sync, _ =
    setup "<a><b><c/></b><d/></a>"
  in
  let root = Option.get doc.root in
  let sub = Parser.parse_fragment "<b><c/></b>" in
  Labeled_doc.insert_subtree ldoc ~parent:root ~index:1 sub;
  let stats = Label_sync.flush sync in
  Label_sync.check sync;
  Alcotest.(check int) "two rows inserted" 2 stats.Label_sync.rows_inserted;
  Alcotest.(check (list int)) "query sees the new subtree"
    (List.sort compare [ Dom.id (List.hd (Dom.children sub));
                         Dom.id (List.hd (Dom.children (List.nth (Dom.children root) 0))) ])
    (Query.label_descendants pager store ~anc:"b" ~desc:"c")

let delete_then_query () =
  let doc, ldoc, pager, store, sync, _ = setup "<a><b><c/></b><d/></a>" in
  let root = Option.get doc.root in
  let b = List.nth (Dom.children root) 0 in
  Labeled_doc.delete_subtree ldoc b;
  let stats = Label_sync.flush sync in
  Label_sync.check sync;
  Alcotest.(check int) "two rows tombstoned" 2
    stats.Label_sync.rows_tombstoned;
  Alcotest.(check (list int)) "deleted rows invisible" []
    (Query.label_descendants pager store ~anc:"a" ~desc:"c");
  Alcotest.(check int) "d still visible" 1
    (List.length (Query.label_descendants pager store ~anc:"a" ~desc:"d"))

let idempotent_flush () =
  let _, ldoc, _, _, sync, _ = setup "<a><b/></a>" in
  ignore ldoc;
  let s1 = Label_sync.flush sync in
  Alcotest.(check int) "nothing dirty initially" 0
    (s1.Label_sync.rows_updated + s1.Label_sync.rows_inserted
    + s1.Label_sync.rows_tombstoned);
  let s2 = Label_sync.flush sync in
  Alcotest.(check int) "still nothing" 0
    (s2.Label_sync.rows_updated + s2.Label_sync.rows_inserted
    + s2.Label_sync.rows_tombstoned)

let writes_are_local () =
  (* A single small insert into a large document rewrites a handful of
     rows, not the table. *)
  let doc =
    Xml_gen.generate ~seed:21 (Xml_gen.default_profile ~target_nodes:5_000 ())
  in
  let ldoc = Labeled_doc.of_document doc in
  let counters = Counters.create () in
  let pager = Pager.create counters in
  let store = Shredder.shred_label pager ldoc in
  let sync = Label_sync.create pager store ldoc in
  let root = Option.get doc.root in
  let target = List.hd (List.filter Dom.is_element (Dom.children root)) in
  Labeled_doc.insert_subtree ldoc ~parent:target ~index:0
    (Parser.parse_fragment "<tiny/>");
  let stats = Label_sync.flush sync in
  Label_sync.check sync;
  let touched =
    stats.Label_sync.rows_updated + stats.Label_sync.rows_inserted
  in
  let total = Rel_table.length store.Shredder.label_table in
  Alcotest.(check bool)
    (Printf.sprintf "touched %d of %d rows" touched total)
    true
    (touched < total / 10)

let random_edits_stay_exact =
  QCheck.Test.make ~count:25 ~name:"synced store stays query-exact"
    QCheck.(make Gen.(pair (int_bound 50_000) (int_range 30 200)))
    (fun (seed, size) ->
      let prng = Prng.create seed in
      let doc =
        Xml_gen.generate ~seed (Xml_gen.default_profile ~target_nodes:size ())
      in
      let ldoc = Labeled_doc.of_document doc in
      let pager = Pager.create (Counters.create ()) in
      let store = Shredder.shred_label pager ldoc in
      let sync = Label_sync.create pager store ldoc in
      let root = Option.get doc.root in
      for i = 1 to 25 do
        let elements = List.filter Dom.is_element (Dom.descendants root) in
        let target =
          List.nth elements (Prng.int prng (List.length elements))
        in
        (match Prng.int prng 4 with
         | 0 when target != root -> Labeled_doc.delete_subtree ldoc target
         | _ ->
           Labeled_doc.insert_subtree ldoc ~parent:target
             ~index:(Prng.int prng (Dom.child_count target + 1))
             (Parser.parse_fragment
                (Printf.sprintf "<patch n=\"%d\"><inner/></patch>" i)));
        ignore (Label_sync.flush sync);
        Label_sync.check sync
      done;
      (* Queries against the synced store match DOM truth. *)
      let dom_truth anc desc =
        let result = ref [] in
        Dom.iter_preorder root (fun a ->
            if Dom.is_element a && Dom.name a = anc then
              Dom.iter_preorder a (fun d ->
                  if d != a && Dom.is_element d && Dom.name d = desc then
                    result := Dom.id d :: !result));
        List.sort_uniq compare !result
      in
      List.for_all
        (fun (anc, desc) ->
          Query.label_descendants pager store ~anc ~desc = dom_truth anc desc)
        [ ("site", "patch"); ("item", "name"); ("patch", "inner");
          ("site", "inner") ])

let suite =
  ( "label_sync",
    [ case "insert then query" `Quick insert_then_query;
      case "delete then query" `Quick delete_then_query;
      case "idempotent flush" `Quick idempotent_flush;
      case "writes are local" `Quick writes_are_local;
      QCheck_alcotest.to_alcotest random_edits_stay_exact ] )
