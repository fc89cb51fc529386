(* Soak test: one long randomized session exercising every layer at
   once, with cross-checks at every checkpoint.

     dune exec bin/ltree_stress.exe -- [ops] [seed]

   Defaults: 20_000 operations, seed 1.  Each checkpoint verifies
   - L-Tree and virtual L-Tree invariants and label equality,
   - labeled-document consistency (tag list == live leaves),
   - query parity between the DOM and label XPath engines,
   - the synced relational store against DOM truth,
   - a snapshot+journal recovery round trip.

   The registered-invariant runner with counterexample shrinking is
   `ltree check` (bin/ltree_cli.ml). *)

open Ltree_xml
open Ltree_core
open Ltree_doc
open Ltree_relstore
module Counters = Ltree_metrics.Counters
module Prng = Ltree_workload.Prng
module Xml_gen = Ltree_workload.Xml_gen

let soak ~ops ~seed =
  let prng = Prng.create seed in
  Printf.printf "soak: %d ops, seed %d\n%!" ops seed;

  (* The document under test plus every attached machinery. *)
  let doc = Xml_gen.xmark ~seed ~scale:0.5 () in
  let ldoc = Labeled_doc.of_document ~params:(Params.make ~f:8 ~s:2) doc in
  let root = Option.get doc.root in
  let engine = Ltree_xpath.Label_eval.create ldoc in
  let pager = Pager.create (Counters.create ()) in
  let store = Shredder.shred_label pager ldoc in
  let sync = Label_sync.create pager store ldoc in
  let journal = Journal.create () in
  let snapshot = ref (Snapshot.save ldoc) in

  (* A twin pair of raw trees for materialized/virtual equivalence. *)
  let mt, ml = Ltree.bulk_load ~params:Params.fig2 64 in
  let vt, vl = Virtual_ltree.bulk_load ~params:Params.fig2 64 in
  let mh = ref (Array.to_list ml) and vh = ref (Array.to_list vl) in

  let queries =
    [ "site//item/name"; "//person[address/city]"; "//patch";
      "//open_auction[bidder]/itemref"; "//item/following-sibling::item" ]
  in
  let checkpoint i =
    Ltree.check mt;
    Virtual_ltree.check vt;
    if Ltree.labels mt <> Virtual_ltree.labels vt then
      failwith "materialized/virtual divergence";
    Labeled_doc.check ldoc;
    List.iter
      (fun q ->
        let path = Ltree_xpath.Xpath_parser.parse q in
        let a = List.map Dom.id (Ltree_xpath.Dom_eval.eval doc path) in
        let b =
          List.map Dom.id (Ltree_xpath.Label_eval.eval engine path)
        in
        if a <> b then failwith ("query divergence on " ^ q))
      queries;
    ignore (Label_sync.flush sync);
    Label_sync.check sync;
    (* Recovery drill: snapshot + journal tail == live state. *)
    let recovered = Snapshot.load !snapshot in
    Journal.replay journal recovered;
    Labeled_doc.check recovered;
    if
      List.map snd (Labeled_doc.labeled_events ldoc)
      <> List.map snd (Labeled_doc.labeled_events recovered)
    then failwith "recovery divergence";
    (* Fresh checkpoint: new snapshot, truncate the journal. *)
    snapshot := Snapshot.save ldoc;
    Journal.clear journal;
    Printf.printf "  checkpoint at op %d: ok (%d slots, height %d)\n%!" i
      (Ltree.length (Labeled_doc.tree ldoc))
      (Ltree.height (Labeled_doc.tree ldoc))
  in

  for i = 1 to ops do
    (* Twin trees: single or batch inserts. *)
    (match !mh with
     | [] -> ()
     | hs ->
       let j = Prng.int prng (List.length hs) in
       let m = List.nth hs j and v = List.nth !vh j in
       if Prng.int prng 10 = 0 then begin
         let k = 1 + Prng.int prng 8 in
         mh := Array.to_list (Ltree.insert_batch_after mt m k) @ hs;
         vh := Array.to_list (Virtual_ltree.insert_batch_after vt v k) @ !vh
       end
       else begin
         mh := Ltree.insert_after mt m :: hs;
         vh := Virtual_ltree.insert_after vt v :: !vh
       end);
    (* Document edits through the journal. *)
    let elements = lazy (List.filter Dom.is_element (Dom.descendants root)) in
    (match Prng.int prng 6 with
     | 0 ->
       let es = Lazy.force elements in
       let target = List.nth es (Prng.int prng (List.length es)) in
       if target != root then Journal.delete_subtree journal ldoc target
     | 1 ->
       let texts = List.filter Dom.is_text (Dom.descendants root) in
       if texts <> [] then
         Journal.set_text journal ldoc
           (List.nth texts (Prng.int prng (List.length texts)))
           (Printf.sprintf "soak %d" i)
     | _ ->
       let es = Lazy.force elements in
       let target = List.nth es (Prng.int prng (List.length es)) in
       Journal.insert_subtree journal ldoc ~parent:target
         ~index:(Prng.int prng (Dom.child_count target + 1))
         (Parser.parse_fragment
            (Printf.sprintf "<patch n=\"%d\">p<deep><x/></deep></patch>" i)));
    if i mod (max 1 (ops / 10)) = 0 then checkpoint i
  done;
  checkpoint ops;
  Printf.printf "soak OK: %d ops survived every cross-check\n" ops

let () =
  let usage () =
    Printf.eprintf "usage: ltree_stress [ops] [seed]\n";
    exit 2
  in
  let int_of a = match int_of_string_opt a with Some v -> v | None -> usage () in
  match List.tl (Array.to_list Sys.argv) with
  | [] -> soak ~ops:20_000 ~seed:1
  | [ ops ] -> soak ~ops:(int_of ops) ~seed:1
  | [ ops; seed ] -> soak ~ops:(int_of ops) ~seed:(int_of seed)
  | _ -> usage ()
