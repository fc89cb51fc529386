(* The dirty set against an oracle.  Random insert / delete / move /
   set_text / compact sequences run on a tracked Labeled_doc, with drains
   at random points.  Each drain must report exactly:
   - live: the nodes still in the document whose (start, end, level)
     changed in some operation since the last drain (found by diffing
     full label snapshots around every operation), plus the nodes
     labeled since then (inserted or moved);
   - dead: the ids deleted since then that are not in the document.
   Two feeds on the document are drained at different cadences, each
   against its own oracle (one of them sometimes skipping relabels).  The same sequences drive a Label_sync store
   (check after every flush), and node_by_start_label is compared with
   a brute-force scan. *)

open Ltree_xml
open Ltree_core
module Labeled_doc = Ltree_doc.Labeled_doc
module Label_sync = Ltree_relstore.Label_sync
module Shredder = Ltree_relstore.Shredder
module Pager = Ltree_relstore.Pager
module Counters = Ltree_metrics.Counters
module Prng = Ltree_workload.Prng
module Xml_gen = Ltree_workload.Xml_gen
module IS = Set.Make (Int)

let case = Alcotest.test_case

(* Dom id -> (start, end, level) for every node of the document. *)
let snapshot ldoc =
  let tbl = Hashtbl.create 256 in
  (match (Labeled_doc.document ldoc).root with
   | None -> ()
   | Some root ->
     Dom.iter_preorder root (fun n ->
         let l = Labeled_doc.label ldoc n in
         Hashtbl.replace tbl (Dom.id n)
           (l.Labeled_doc.start_pos, l.Labeled_doc.end_pos, l.Labeled_doc.level)));
  tbl

let ids_of n =
  let acc = ref [] in
  Dom.iter_preorder n (fun x -> acc := Dom.id x :: !acc);
  !acc

let elements root =
  let acc = ref [] in
  Dom.iter_preorder root (fun n -> if Dom.is_element n then acc := n :: !acc);
  Array.of_list (List.rev !acc)

let texts root =
  let acc = ref [] in
  Dom.iter_preorder root (fun n -> if Dom.is_text n then acc := n :: !acc);
  Array.of_list (List.rev !acc)

let fragment prng =
  let mail = Dom.element "mail" in
  for _ = 0 to Prng.int prng 3 do
    let c = Dom.element (if Prng.bool prng then "from" else "to") in
    Dom.append_child c (Dom.text "x");
    Dom.append_child mail c
  done;
  mail

let rec inside node p =
  p == node || match Dom.parent p with None -> false | Some q -> inside node q

(* One random operation; returns the ids it deleted and the nodes it
   labeled afresh (inserted or moved). *)
let step prng ldoc ~moved_last =
  let root = Option.get (Labeled_doc.document ldoc).root in
  let els = elements root in
  let pick_nonroot () =
    let cands = Array.of_list (List.tl (Array.to_list els)) in
    if Array.length cands = 0 then None else Some (Prng.pick prng cands)
  in
  let move n =
    let targets =
      Array.of_list
        (List.filter (fun p -> not (inside n p)) (Array.to_list els))
    in
    let parent = Prng.pick prng targets in
    let deleted = ids_of n in
    (* the index counts [parent]'s children once [n] has left *)
    let stays = match Dom.parent n with Some p -> p == parent | None -> false in
    let slots = Dom.child_count parent - if stays then 0 else -1 in
    (* a move: tombstone the subtree, label it again *)
    Labeled_doc.delete_subtree ldoc n;
    Labeled_doc.insert_subtree ldoc ~parent ~index:(Prng.int prng slots) n;
    (deleted, Dom.descendants n @ [ n ], Some n)
  in
  match Prng.int prng 100 with
  | r when r < 40 ->
    let parent = Prng.pick prng els in
    let sub = fragment prng in
    Labeled_doc.insert_subtree ldoc ~parent
      ~index:(Prng.int prng (Dom.child_count parent + 1))
      sub;
    ([], Dom.descendants sub @ [ sub ], None)
  | r when r < 60 -> (
      match pick_nonroot () with
      | None -> ([], [], None)
      | Some n ->
        let deleted = ids_of n in
        Labeled_doc.delete_subtree ldoc n;
        (deleted, [], None))
  | r when r < 75 -> (
      (* Moving the node moved last time exercises a move done twice
         between drains. *)
      match moved_last with
      | Some n when Dom.parent n <> None && Prng.bool prng -> move n
      | Some _ | None -> (
          match pick_nonroot () with None -> ([], [], None) | Some n -> move n))
  | r when r < 90 ->
    let ts = texts root in
    if Array.length ts > 0 then
      Dom.set_text (Prng.pick prng ts) (string_of_int (Prng.int prng 1000));
    ([], [], None)
  | _ ->
    Labeled_doc.compact ldoc;
    ([], [], None)

let doc_of_seed seed =
  Xml_gen.generate ~seed (Xml_gen.default_profile ~target_nodes:120 ())

(* One feed and the oracle's view of what it must report next. *)
type tracked = {
  feed : Labeled_doc.feed;
  every : int; (* drained with probability 1/every after each step *)
  skipping : bool; (* every other drain skips the relabel log *)
  mutable changed : IS.t;
  mutable fresh : IS.t;
  mutable deleted : IS.t;
  mutable drains : int;
}

(* Two feeds on one document, drained at different cadences: each must
   match its own oracle, so draining one leaves the other's set intact.
   The second feed skips the relabel log on every other drain; such a
   drain must report every inserted or moved node and no node outside
   the oracle's set. *)
let drain_matches_oracle params seed () =
  let prng = Prng.create seed in
  let ldoc = Labeled_doc.of_document ~params (doc_of_seed seed) in
  let track every skipping =
    { feed = Labeled_doc.track_dirty ldoc; every; skipping;
      changed = IS.empty; fresh = IS.empty; deleted = IS.empty; drains = 0 }
  in
  let feeds = [ track 4 false; track 7 true ] in
  let moved_last = ref None in
  for _ = 1 to 400 do
    let before = snapshot ldoc in
    let dels, labeled, moved = step prng ldoc ~moved_last:!moved_last in
    moved_last := moved;
    let after = snapshot ldoc in
    let changed = ref IS.empty in
    Hashtbl.iter
      (fun id lab ->
        match Hashtbl.find_opt before id with
        | Some old when old <> lab -> changed := IS.add id !changed
        | Some _ | None -> ())
      after;
    List.iter
      (fun f ->
        f.changed <- IS.union f.changed !changed;
        List.iter (fun n -> f.fresh <- IS.add (Dom.id n) f.fresh) labeled;
        List.iter (fun id -> f.deleted <- IS.add id f.deleted) dels;
        if Prng.int prng f.every = 0 then begin
          f.drains <- f.drains + 1;
          let relabels = not (f.skipping && f.drains mod 2 = 0) in
          let live = ref [] and dead = ref [] in
          Labeled_doc.drain_dirty ~relabels f.feed
            ~live:(fun s -> live := Dom.id (Labeled_doc.slot_node s) :: !live)
            ~dead:(fun n -> dead := Dom.id n :: !dead);
          let present id = Hashtbl.mem after id in
          let want_live = IS.filter present (IS.union f.changed f.fresh) in
          let want_dead = IS.filter (fun id -> not (present id)) f.deleted in
          let live = List.rev !live and dead = List.rev !dead in
          let got = IS.of_list live in
          Alcotest.(check int) "no node drained twice" (List.length live)
            (IS.cardinal got);
          if relabels then
            Alcotest.(check (list int)) "live set equals the oracle"
              (IS.elements want_live) (IS.elements got)
          else begin
            Alcotest.(check bool) "every labeled node is live" true
              (IS.subset (IS.filter present f.fresh) got);
            Alcotest.(check bool) "no live node outside the oracle" true
              (IS.subset got want_live)
          end;
          Alcotest.(check (list int)) "dead ids, ascending, equal the oracle"
            (IS.elements want_dead) dead;
          f.changed <- IS.empty;
          f.fresh <- IS.empty;
          f.deleted <- IS.empty
        end)
      feeds
  done;
  Labeled_doc.check ldoc;
  List.iter
    (fun f ->
      Alcotest.(check bool) "drained at least once" true (f.drains > 0))
    feeds

let sync_holds_after_every_flush params seed () =
  let prng = Prng.create seed in
  let ldoc = Labeled_doc.of_document ~params (doc_of_seed seed) in
  let pager = Pager.create (Counters.create ()) in
  let store = Shredder.shred_label pager ldoc in
  let sync = Label_sync.create pager store ldoc in
  let moved_last = ref None in
  for _ = 1 to 400 do
    let _, _, moved = step prng ldoc ~moved_last:!moved_last in
    moved_last := moved;
    if Prng.int prng 3 = 0 then begin
      ignore (Label_sync.flush sync : Label_sync.stats);
      Label_sync.check sync
    end
  done;
  ignore (Label_sync.flush sync : Label_sync.stats);
  Label_sync.check sync

(* node_by_start_label: every slot label resolves to the node whose
   begin tag carries it, and nothing else. *)
let lookups_match_scans params seed () =
  let prng = Prng.create seed in
  let ldoc = Labeled_doc.of_document ~params (doc_of_seed seed) in
  let moved_last = ref None in
  for i = 1 to 300 do
    let _, _, moved = step prng ldoc ~moved_last:!moved_last in
    moved_last := moved;
    if i mod 7 = 0 then begin
      let root = Option.get (Labeled_doc.document ldoc).root in
      let by_start = Hashtbl.create 256 in
      Dom.iter_preorder root (fun n ->
          Hashtbl.replace by_start (Labeled_doc.label ldoc n).start_pos n);
      Array.iter
        (fun lab ->
          let want = Hashtbl.find_opt by_start lab in
          match (want, Labeled_doc.node_by_start_label ldoc lab) with
          | None, None -> ()
          | Some a, Some b when a == b -> ()
          | _ -> Alcotest.failf "node_by_start_label %d disagrees" lab)
        (Ltree.labels (Labeled_doc.tree ldoc))
    end
  done

let configs = [ ("f4s2", Params.fig2); ("f8s2", Params.make ~f:8 ~s:2) ]
let seeds = [ 1; 2; 3 ]

let suite =
  ( "dirty-set",
    List.concat_map
      (fun (name, params) ->
        List.concat_map
          (fun seed ->
            let tag = Printf.sprintf "%s seed %d" name seed in
            [ case ("drain equals the oracle, " ^ tag) `Quick
                (drain_matches_oracle params seed);
              case ("label sync exact after each flush, " ^ tag) `Quick
                (sync_holds_after_every_flush params seed);
              case ("lookups match brute-force scans, " ^ tag) `Quick
                (lookups_match_scans params seed) ])
          seeds)
      configs )
