(* Labeled documents: Figure 1 semantics, subtree updates, and long random
   edit sessions with full consistency checks. *)

open Ltree_xml
open Ltree_core
open Ltree_doc
module Xml_gen = Ltree_workload.Xml_gen
module Prng = Ltree_workload.Prng

let case = Alcotest.test_case

(* Figure 1's document: the interval-containment reading of the labels
   must identify exactly the ancestor-descendant pairs of the figure,
   whatever the concrete numbers are. *)
let fig1_containment () =
  let doc = Xml_gen.fig1 () in
  let ldoc = Labeled_doc.of_document ~params:Params.fig2 doc in
  Labeled_doc.check ldoc;
  let root = Option.get doc.root in
  let chapter = List.nth (Dom.children root) 0 in
  let title1 = List.nth (Dom.children chapter) 0 in
  let title2 = List.nth (Dom.children root) 1 in
  Alcotest.(check bool) "book anc chapter" true
    (Labeled_doc.is_ancestor ldoc ~anc:root ~desc:chapter);
  Alcotest.(check bool) "book anc title1" true
    (Labeled_doc.is_ancestor ldoc ~anc:root ~desc:title1);
  Alcotest.(check bool) "chapter anc title1" true
    (Labeled_doc.is_ancestor ldoc ~anc:chapter ~desc:title1);
  Alcotest.(check bool) "chapter not anc title2" false
    (Labeled_doc.is_ancestor ldoc ~anc:chapter ~desc:title2);
  Alcotest.(check bool) "not reflexive" false
    (Labeled_doc.is_ancestor ldoc ~anc:root ~desc:root);
  let level n = (Labeled_doc.label ldoc n).Labeled_doc.level in
  Alcotest.(check int) "parent is one level up" (level chapter + 1)
    (level title1);
  Alcotest.(check int) "grandparent is two levels up" (level root + 2)
    (level title1);
  Alcotest.(check bool) "doc order" true
    ((Labeled_doc.label ldoc title1).Labeled_doc.start_pos
    < (Labeled_doc.label ldoc title2).Labeled_doc.start_pos);
  let l = Labeled_doc.label ldoc root in
  Alcotest.(check int) "root level" 0 l.Labeled_doc.level;
  Alcotest.(check bool) "root spans all" true
    (l.Labeled_doc.start_pos < l.Labeled_doc.end_pos)

let insert_subtree_basic () =
  let doc = Parser.parse_string "<a><b/><c/></a>" in
  let ldoc = Labeled_doc.of_document ~params:Params.fig2 doc in
  let root = Option.get doc.root in
  let b = List.nth (Dom.children root) 0 in
  let sub = Parser.parse_fragment "<d><e>x</e></d>" in
  Labeled_doc.insert_subtree ldoc ~parent:root ~index:1 sub;
  Labeled_doc.check ldoc;
  Alcotest.(check (list string)) "DOM order"
    [ "b"; "d"; "c" ]
    (List.map Dom.name (Dom.children root));
  (* The new subtree is fully labeled and properly nested. *)
  let e = List.nth (Dom.children sub) 0 in
  Alcotest.(check bool) "d anc e" true
    (Labeled_doc.is_ancestor ldoc ~anc:sub ~desc:e);
  Alcotest.(check bool) "root anc d" true
    (Labeled_doc.is_ancestor ldoc ~anc:root ~desc:sub);
  Alcotest.(check bool) "b precedes d" true
    ((Labeled_doc.label ldoc b).Labeled_doc.start_pos
    < (Labeled_doc.label ldoc sub).Labeled_doc.start_pos);
  Alcotest.(check int) "levels" 2 (Labeled_doc.label ldoc e).Labeled_doc.level

let insert_positions () =
  let doc = Parser.parse_string "<a><b/></a>" in
  let ldoc = Labeled_doc.of_document doc in
  let root = Option.get doc.root in
  let b = List.hd (Dom.children root) in
  let first = Parser.parse_fragment "<first/>" in
  Labeled_doc.insert_subtree ldoc ~parent:root ~index:0 first;
  let last = Parser.parse_fragment "<last/>" in
  Labeled_doc.insert_subtree ldoc ~parent:root
    ~index:(Dom.child_count root) last;
  let mid = Parser.parse_fragment "<mid/>" in
  Labeled_doc.insert_subtree ldoc ~parent:root ~index:(Dom.index_in_parent b)
    mid;
  Labeled_doc.check ldoc;
  Alcotest.(check (list string)) "order"
    [ "first"; "mid"; "b"; "last" ]
    (List.map Dom.name (Dom.children root));
  Alcotest.(check bool) "attached subtree rejected" true
    (try
       Labeled_doc.insert_subtree ldoc ~parent:root ~index:0 b;
       false
     with Invalid_argument _ -> true)

let delete_subtree () =
  let doc = Parser.parse_string "<a><b><c/><d/></b><e/></a>" in
  let ldoc = Labeled_doc.of_document doc in
  let root = Option.get doc.root in
  let b = List.nth (Dom.children root) 0 in
  let e = List.nth (Dom.children root) 1 in
  let size_before = Labeled_doc.size ldoc in
  Labeled_doc.delete_subtree ldoc b;
  Labeled_doc.check ldoc;
  Alcotest.(check int) "6 slots tombstoned" (size_before - 6)
    (Labeled_doc.size ldoc);
  Alcotest.(check bool) "b unlabeled" false (Labeled_doc.mem ldoc b);
  Alcotest.(check bool) "e still labeled" true (Labeled_doc.mem ldoc e);
  Alcotest.(check (list string)) "DOM detached" [ "e" ]
    (List.map Dom.name (Dom.children root));
  Alcotest.(check bool) "root undeletable" true
    (try
       Labeled_doc.delete_subtree ldoc root;
       false
     with Invalid_argument _ -> true);
  Labeled_doc.compact ldoc;
  Labeled_doc.check ldoc

(* Long random edit sessions: every label query must stay consistent with
   the DOM after arbitrary subtree inserts/deletes. *)
let random_edits_prop =
  QCheck.Test.make ~count:30 ~name:"random subtree edits stay consistent"
    QCheck.(make Gen.(pair (int_bound 10_000) (int_range 20 200)))
    (fun (seed, size) ->
      let prng = Prng.create seed in
      let profile = Xml_gen.default_profile ~target_nodes:size () in
      let doc = Xml_gen.generate ~seed profile in
      let ldoc = Labeled_doc.of_document ~params:Params.fig2 doc in
      let root = Option.get doc.root in
      for _ = 1 to 40 do
        let elements =
          List.filter Dom.is_element (Dom.descendants root)
        in
        let pick () = List.nth elements (Prng.int prng (List.length elements)) in
        (match Prng.int prng 3 with
         | 0 ->
           let target = pick () in
           let sub =
             Xml_gen.generate ~seed:(Prng.int prng 100000)
               (Xml_gen.default_profile ~target_nodes:(1 + Prng.int prng 10) ())
           in
           let sub = Option.get sub.root in
           Labeled_doc.insert_subtree ldoc ~parent:target
             ~index:(Prng.int prng (Dom.child_count target + 1))
             sub
         | 1 ->
           let target = pick () in
           if target != root then Labeled_doc.delete_subtree ldoc target
         | _ ->
           (* Order spot-check between two random live elements. *)
           let a = pick () and b = pick () in
           if a != b && Labeled_doc.mem ldoc a && Labeled_doc.mem ldoc b
           then begin
             let correct =
               let rec is_anc x y =
                 match Dom.parent y with
                 | None -> false
                 | Some p -> p == x || is_anc x p
               in
               Bool.equal
                 (Labeled_doc.is_ancestor ldoc ~anc:a ~desc:b)
                 (is_anc a b)
             in
             if not correct then failwith "ancestor predicate diverged"
           end);
        Labeled_doc.check ldoc
      done;
      true)

(* A move is a delete (the subtree's slots become tombstones) followed
   by a re-insert of the same nodes under the new parent. *)
let move_subtree () =
  let doc = Parser.parse_string "<a><b><c/></b><d/></a>" in
  let ldoc = Labeled_doc.of_document doc in
  let root = Option.get doc.root in
  let b = List.nth (Dom.children root) 0 in
  let c = List.hd (Dom.children b) in
  let d = List.nth (Dom.children root) 1 in
  (* Move <b> under <d>. *)
  Labeled_doc.delete_subtree ldoc b;
  Labeled_doc.insert_subtree ldoc ~parent:d ~index:0 b;
  Labeled_doc.check ldoc;
  Alcotest.(check (list string)) "DOM shape" [ "d" ]
    (List.map Dom.name (Dom.children root));
  Alcotest.(check bool) "d anc c now" true
    (Labeled_doc.is_ancestor ldoc ~anc:d ~desc:c);
  Alcotest.(check bool) "b still anc c" true
    (Labeled_doc.is_ancestor ldoc ~anc:b ~desc:c);
  Alcotest.(check int) "c one level deeper" 3
    (Labeled_doc.label ldoc c).Labeled_doc.level;
  (* A moved node cannot be inserted again while it is attached. *)
  Alcotest.(check bool) "attached subtree rejected" true
    (try
       Labeled_doc.insert_subtree ldoc ~parent:root ~index:0 b;
       false
     with Invalid_argument _ -> true)

(* A feed reports from its registration on: an inserted subtree's nodes
   first, in document order; a moved subtree once each, live; an
   inserted then deleted node as dead only.  Registering and draining a
   second feed leaves the first one's set intact. *)
let feeds_report_since_registration () =
  let doc = Parser.parse_string "<a><b/><c>x</c></a>" in
  let ldoc = Labeled_doc.of_document doc in
  let root = Option.get doc.root in
  let b = List.nth (Dom.children root) 0 in
  let d = Parser.parse_fragment "<d><e/>t</d>" in
  Labeled_doc.insert_subtree ldoc ~parent:root ~index:1 d;
  let f = Labeled_doc.track_dirty ldoc in
  let drain f =
    let live = ref [] and dead = ref [] in
    Labeled_doc.drain_dirty f
      ~live:(fun s -> live := Dom.id (Labeled_doc.slot_node s) :: !live)
      ~dead:(fun n -> dead := Dom.id n :: !dead);
    (List.rev !live, List.rev !dead)
  in
  let preorder n =
    let acc = ref [] in
    Dom.iter_preorder n (fun x -> acc := Dom.id x :: !acc);
    List.rev !acc
  in
  let drained = Alcotest.(pair (list int) (list int)) in
  Alcotest.check drained "nothing since registration" ([], []) (drain f);
  let g = Parser.parse_fragment "<g><h/>u</g>" in
  Labeled_doc.insert_subtree ldoc ~parent:b ~index:0 g;
  let live, dead = drain f in
  Alcotest.(check (list int)) "the inserted subtree first, in document order"
    (preorder g)
    (List.filteri (fun i _ -> i < List.length (preorder g)) live);
  Alcotest.(check (list int)) "no deletion" [] dead;
  let f2 = Labeled_doc.track_dirty ldoc in
  (* a move: tombstone the subtree, label it again *)
  Labeled_doc.delete_subtree ldoc d;
  Labeled_doc.insert_subtree ldoc ~parent:b ~index:0 d;
  let h = Parser.parse_fragment "<h/>" in
  Labeled_doc.insert_subtree ldoc ~parent:root ~index:0 h;
  Labeled_doc.delete_subtree ldoc h;
  let live, dead = drain f2 in
  Alcotest.(check (list int)) "a moved subtree appears once, live"
    (List.sort Int.compare (preorder d))
    (List.sort Int.compare
       (List.filter (fun id -> List.mem id (preorder d)) live));
  Alcotest.(check (list int)) "inserted then deleted is dead only"
    [ Dom.id h ] dead;
  Alcotest.check drained "draining one feed leaves the other's set intact"
    (live, dead) (drain f);
  Alcotest.check drained "both feeds are empty after their drains"
    ([], []) (drain f2);
  Labeled_doc.check ldoc

let labeled_events_view () =
  let doc = Parser.parse_string "<a><b>t</b></a>" in
  let ldoc = Labeled_doc.of_document doc in
  let evs = Labeled_doc.labeled_events ldoc in
  Alcotest.(check int) "five slots" 5 (List.length evs);
  let positions = List.map snd evs in
  let sorted = List.sort compare positions in
  Alcotest.(check (list int)) "positions ordered" sorted positions

let suite =
  ( "labeled_doc",
    [ case "figure 1 containment" `Quick fig1_containment;
      case "insert subtree" `Quick insert_subtree_basic;
      case "insert positions" `Quick insert_positions;
      case "delete subtree + compact" `Quick delete_subtree;
      case "move subtree" `Quick move_subtree;
      case "feeds report since registration" `Quick
        feeds_report_since_registration;
      case "labeled events view" `Quick labeled_events_view;
      QCheck_alcotest.to_alcotest random_edits_prop ] )
