(* Relative Region Coordinates (the paper's ref [6]): correctness of the
   predicates against DOM truth, locality of updates, and the query-cost
   trade-off. *)

open Ltree_xml
open Ltree_doc
module Counters = Ltree_metrics.Counters
module Xml_gen = Ltree_workload.Xml_gen
module Prng = Ltree_workload.Prng

let case = Alcotest.test_case

let dom_is_ancestor a d =
  let rec up n =
    match Dom.parent n with
    | None -> false
    | Some p -> p == a || up p
  in
  up d

let basics () =
  let doc = Parser.parse_string "<a><b><c/>t</b><d/></a>" in
  let t = Rrc_doc.of_document doc in
  Rrc_doc.check t;
  let root = Option.get doc.root in
  let b = List.nth (Dom.children root) 0 in
  let c = List.nth (Dom.children b) 0 in
  let d = List.nth (Dom.children root) 1 in
  Alcotest.(check bool) "a anc c" true (Rrc_doc.is_ancestor t ~anc:root ~desc:c);
  Alcotest.(check bool) "b anc c" true (Rrc_doc.is_ancestor t ~anc:b ~desc:c);
  Alcotest.(check bool) "b not anc d" false
    (Rrc_doc.is_ancestor t ~anc:b ~desc:d);
  Alcotest.(check bool) "not reflexive" false
    (Rrc_doc.is_ancestor t ~anc:b ~desc:b)

let predicates_match_dom =
  QCheck.Test.make ~count:40 ~name:"rrc predicates match the DOM"
    QCheck.(make Gen.(pair (int_bound 50_000) (int_range 20 200)))
    (fun (seed, size) ->
      let doc =
        Xml_gen.generate ~seed (Xml_gen.default_profile ~target_nodes:size ())
      in
      let t = Rrc_doc.of_document doc in
      Rrc_doc.check t;
      let root = Option.get doc.root in
      let nodes = Array.of_list (Dom.descendants root) in
      let prng = Prng.create (seed + 1) in
      let ok = ref true in
      for _ = 1 to 60 do
        let a = Prng.pick prng nodes and d = Prng.pick prng nodes in
        if a != d then begin
          if Rrc_doc.is_ancestor t ~anc:a ~desc:d <> dom_is_ancestor a d then
            ok := false
        end
      done;
      !ok)

let updates_stay_consistent =
  QCheck.Test.make ~count:25 ~name:"rrc random edits stay consistent"
    QCheck.(make Gen.(pair (int_bound 50_000) (int_range 20 150)))
    (fun (seed, size) ->
      let prng = Prng.create seed in
      let doc =
        Xml_gen.generate ~seed (Xml_gen.default_profile ~target_nodes:size ())
      in
      let t = Rrc_doc.of_document doc in
      let root = Option.get doc.root in
      for i = 1 to 30 do
        let elements = List.filter Dom.is_element (Dom.descendants root) in
        let target =
          List.nth elements (Prng.int prng (List.length elements))
        in
        let sub =
          Parser.parse_fragment (Printf.sprintf "<n i=\"%d\"><x/></n>" i)
        in
        Rrc_doc.insert_subtree t ~parent:target
          ~index:(Prng.int prng (Dom.child_count target + 1))
          sub;
        Rrc_doc.check t
      done;
      (* Spot-check predicates after the churn. *)
      let nodes = Array.of_list (Dom.descendants root) in
      let ok = ref true in
      for _ = 1 to 40 do
        let a = Prng.pick prng nodes and d = Prng.pick prng nodes in
        if
          a != d
          && Rrc_doc.is_ancestor t ~anc:a ~desc:d <> dom_is_ancestor a d
        then ok := false
      done;
      !ok)

let update_locality () =
  (* Inserting a small subtree into a gap costs O(1) writes; the L-Tree
     pays a region relabel.  RRC's point. *)
  let doc = Parser.parse_string "<a><b/><c/><d/></a>" in
  let counters = Counters.create () in
  let t = Rrc_doc.of_document ~counters doc in
  let root = Option.get doc.root in
  (* A text node fits the inter-sibling gap: O(1) writes. *)
  Counters.reset counters;
  let txt = Dom.text "x" in
  Rrc_doc.insert_subtree t ~parent:root ~index:1 txt;
  Rrc_doc.check t;
  Alcotest.(check bool)
    (Printf.sprintf "gap insert is O(1) writes (%d)"
       (Counters.relabels counters))
    true
    (Counters.relabels counters <= 2);
  (* An element that misses the gap renumbers one sibling list only —
     writes bounded by the parent's child count, and nothing inside the
     moved subtrees changes (relative coordinates move for free). *)
  Counters.reset counters;
  let sub = Parser.parse_fragment "<x><y/></x>" in
  Rrc_doc.insert_subtree t ~parent:root ~index:1 sub;
  Rrc_doc.check t;
  Alcotest.(check bool)
    (Printf.sprintf "sibling-local insert (%d writes)"
       (Counters.relabels counters))
    true
    (Counters.relabels counters <= Dom.child_count root + 3)

let query_cost_grows_with_depth () =
  let deep =
    let rec nest n = if n = 0 then "<leaf/>" else "<b>" ^ nest (n - 1) ^ "</b>" in
    Parser.parse_string ("<a>" ^ nest 30 ^ "</a>")
  in
  let counters = Counters.create () in
  let t = Rrc_doc.of_document ~counters deep in
  let root = Option.get deep.root in
  let leaf =
    let rec down n =
      match Dom.children n with [] -> n | c :: _ -> down c
    in
    down root
  in
  Counters.reset counters;
  ignore (Rrc_doc.is_ancestor t ~anc:root ~desc:leaf);
  Alcotest.(check bool)
    (Printf.sprintf "deep query walks the chain (%d accesses)"
       (Counters.node_accesses counters))
    true
    (Counters.node_accesses counters >= 30)

let growth_cascade () =
  (* Hammering one element must eventually grow its region through the
     ancestor chain without breaking any nesting invariant. *)
  let doc = Parser.parse_string "<a><b><c/></b></a>" in
  let t = Rrc_doc.of_document doc in
  let root = Option.get doc.root in
  let b = List.nth (Dom.children root) 0 in
  let c = List.hd (Dom.children b) in
  for i = 1 to 200 do
    Rrc_doc.insert_subtree t ~parent:c ~index:0
      (Parser.parse_fragment (Printf.sprintf "<leaf n=\"%d\"/>" i))
  done;
  Rrc_doc.check t;
  Alcotest.(check int) "200 leaves" 200
    (List.length (Dom.children c));
  (* Absolute intervals still nest. *)
  Alcotest.(check bool) "nested after growth" true
    (Rrc_doc.is_ancestor t ~anc:root ~desc:c)

let suite =
  ( "rrc_doc",
    [ case "basics" `Quick basics;
      case "update locality" `Quick update_locality;
      case "query cost grows with depth" `Quick query_cost_grows_with_depth;
      case "growth cascades through ancestors" `Quick growth_cascade;
      QCheck_alcotest.to_alcotest predicates_match_dom;
      QCheck_alcotest.to_alcotest updates_stay_consistent ] )
