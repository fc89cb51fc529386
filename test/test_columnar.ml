(* The columnar backbone: Bigarray column semantics (growth, buffer
   reuse, aliasing views, sorting), differential checks of the columnar
   index/query spine against the boxed sort-on-fetch baseline over
   random edit schedules, and physical slice reuse across snapshot
   refresh. *)

open Ltree_xml
open Ltree_relstore
module Column = Ltree_core.Column
module Counters = Ltree_metrics.Counters
module Labeled_doc = Ltree_doc.Labeled_doc
module Read_snapshot = Ltree_exec.Read_snapshot
module Xml_gen = Ltree_workload.Xml_gen
module Prng = Ltree_workload.Prng

let case = Alcotest.test_case

(* The store's INL plan for [anc//desc]. *)
let label_descendants_inl pager store ~anc ~desc =
  Query.label_plan pager store (Query.Descendants_inl (anc, desc))

(* The current buffer's length: a refill that reuses the buffer leaves it
   unchanged. *)
let capacity c = Bigarray.Array1.dim (Column.unsafe_buf c)

let of_array a =
  let c = Column.create ~capacity:(Int.max 1 (Array.length a)) () in
  Array.iter (Column.push c) a;
  c

(* {1 Column unit tests} *)

let growth_reuses_buffer () =
  let c = Column.create ~capacity:4 () in
  for i = 0 to 99 do
    Column.push c (i * 3)
  done;
  Alcotest.(check int) "length after pushes" 100 (Column.length c);
  Alcotest.(check bool) "capacity grew" true (capacity c >= 100);
  Alcotest.(check (list int)) "values"
    (List.init 100 (fun i -> i * 3))
    (Column.to_list c);
  let cap = capacity c in
  Column.clear c;
  Alcotest.(check int) "cleared length" 0 (Column.length c);
  Alcotest.(check int) "clear keeps buffer" cap (capacity c);
  (* Refilling to the old length must reuse the buffer: capacity is
     stable, which is the whole zero-alloc steady-state claim. *)
  for i = 0 to 99 do
    Column.push c i
  done;
  Alcotest.(check int) "refill reallocates nothing" cap (capacity c);
  Column.reserve c (2 * cap);
  Alcotest.(check bool) "reserve grows" true (capacity c >= 2 * cap);
  Alcotest.(check (list int)) "reserve preserves values"
    (List.init 100 Fun.id) (Column.to_list c)

let checked_accessors_raise () =
  let c = of_array [| 1; 2; 3 |] in
  Alcotest.(check int) "in bounds" 2 (Column.get_checked c 1);
  Alcotest.check_raises "get past length"
    (Invalid_argument "Column.get_checked")
    (fun () -> ignore (Column.get_checked c 3));
  Alcotest.check_raises "get negative"
    (Invalid_argument "Column.get_checked")
    (fun () -> ignore (Column.get_checked c (-1)));
  Alcotest.check_raises "set_len past capacity"
    (Invalid_argument "Column.set_len")
    (fun () -> Column.set_len c 1_000_000)

let copy_sub_is_independent () =
  let c = of_array [| 10; 20; 30; 40; 50 |] in
  (* [copy_sub] snapshots: later writes do not leak either way. *)
  let w = Column.copy_sub c 1 3 in
  Alcotest.(check (list int)) "copied window" [ 20; 30; 40 ]
    (Column.to_list w);
  Column.set w 0 (-1);
  Alcotest.(check int) "copy is independent" 20 (Column.get_checked c 1);
  Column.set c 2 77;
  Alcotest.(check int) "parent is independent" 30 (Column.get_checked w 1)

let roundtrip () =
  let a = [| 5; -3; 0; max_int; min_int |] in
  let c = of_array a in
  Alcotest.(check (list int)) "to_list" (Array.to_list a) (Column.to_list c);
  let e = of_array [||] in
  Alcotest.(check (list int)) "empty" [] (Column.to_list e)

(* sort_dedup against [List.sort_uniq] over positions — a span from
   below the element count up to a few times it, duplicates included —
   reusing one mark column throughout to exercise its growth/reuse. *)
let sort_dedup_matches_reference () =
  let prng = Prng.create 0xc01 in
  let mark = Column.create ~capacity:1 () in
  let trial ~n ~spread =
    let vals = Array.init n (fun _ -> Prng.int prng (max 1 (n * spread))) in
    let c = of_array vals in
    Column.sort_dedup c ~mark;
    Alcotest.(check (list int))
      (Printf.sprintf "n=%d spread=%d" n spread)
      (List.sort_uniq compare (Array.to_list vals))
      (Column.to_list c)
  in
  List.iter
    (fun n ->
      trial ~n ~spread:1;
      trial ~n ~spread:40)
    [ 0; 1; 2; 7; 64; 500; 3000 ]

(* sort3 against a reference sort of the zipped triples.  Keys are
   distinct (as label starts are — the documented precondition). *)
let sort3_matches_reference () =
  let prng = Prng.create 0xc02 in
  let counters = Counters.create () in
  let trial n =
    let keys = Array.init n (fun i -> i * 7) in
    (* Fisher–Yates shuffle for distinct keys in random order. *)
    for i = n - 1 downto 1 do
      let j = Prng.int prng (i + 1) in
      let t = keys.(i) in
      keys.(i) <- keys.(j);
      keys.(j) <- t
    done;
    let s = of_array keys in
    let e = of_array (Array.map (fun k -> k + 1) keys) in
    let r = of_array (Array.map (fun k -> k * 13) keys) in
    Column.sort3 counters s e r n;
    let expect = List.sort compare (Array.to_list keys) in
    Alcotest.(check (list int)) (Printf.sprintf "keys n=%d" n) expect
      (Column.to_list s);
    (* The satellite columns moved with their keys. *)
    Alcotest.(check (list int)) (Printf.sprintf "ends n=%d" n)
      (List.map (fun k -> k + 1) expect)
      (Column.to_list e);
    Alcotest.(check (list int)) (Printf.sprintf "rids n=%d" n)
      (List.map (fun k -> k * 13) expect)
      (Column.to_list r)
  in
  (* Cover insertion (<= 48), the sorted fast path, and heapsort. *)
  List.iter trial [ 0; 1; 2; 3; 48; 49; 300 ];
  let sorted = Array.init 100 (fun i -> i) in
  let s = of_array sorted
  and e = of_array sorted
  and r = of_array sorted in
  Column.sort3 counters s e r 100;
  Alcotest.(check (list int)) "already sorted" (Array.to_list sorted)
    (Column.to_list s)

let upper_bound_matches_linear () =
  let prng = Prng.create 0xc03 in
  let counters = Counters.create () in
  let vals =
    List.sort_uniq compare (List.init 200 (fun _ -> Prng.int prng 1_000))
  in
  let c = of_array (Array.of_list vals) in
  let n = Column.length c in
  let linear hi key =
    let rec go i =
      if i >= hi || Column.get_checked c i > key then i else go (i + 1)
    in
    go 0
  in
  for _ = 1 to 500 do
    let key = Prng.int prng 1_100 - 50 in
    Alcotest.(check int)
      (Printf.sprintf "upper_bound %d" key)
      (linear n key)
      (Column.upper_bound counters c key);
    let hi = Prng.int prng (n + 1) in
    Alcotest.(check int)
      (Printf.sprintf "upper_bound_sub %d hi=%d" key hi)
      (linear hi key)
      (Column.upper_bound_sub counters c ~hi key)
  done

(* {1 Differential property: columnar spine vs. boxed baseline} *)

let index_check store =
  Label_index.check store.Shredder.label_index
    ~fetch:(fun (store : Shredder.label_store) rid r ->
      let row = Rel_table.get store.label_table rid in
      r.Label_index.r_start <- row.Shredder.l_start;
      r.r_end <- row.l_end;
      r.r_level <- row.l_level;
      r.r_dead <- row.l_dead;
      if not row.l_dead then r.r_id <- store.label_ids row.l_id)
    store

(* Random insert/delete/compact schedules; after every flushed batch the
   three columnar plans (indexed, zero-alloc hot, INL) must find the
   sort-on-fetch baseline's ids in document order, and the index
   invariants must hold. *)
let columnar_matches_baseline =
  QCheck.Test.make ~count:15
    ~name:"columnar plans match boxed baseline over edit schedules"
    QCheck.(make Gen.(pair (int_bound 50_000) (int_range 30 150)))
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
      let pairs =
        [ ("site", "patch"); ("item", "name"); ("patch", "inner");
          ("site", "inner"); ("site", "name") ]
      in
      let agree () =
        List.for_all
          (fun (anc, desc) ->
            let base =
              Query.label_descendants_baseline pager store ~anc ~desc
            in
            let idx = Query.label_descendants pager store ~anc ~desc in
            let hot =
              Column.to_list
                (Query.label_plan_hot pager store
                   (Query.Descendants (anc, desc)))
            in
            let inl = label_descendants_inl pager store ~anc ~desc in
            Doc_order.agrees ldoc idx base
            && Doc_order.agrees ldoc hot base
            && Doc_order.agrees ldoc inl base)
          pairs
      in
      let ok = ref true in
      for i = 1 to 20 do
        let elements = List.filter Dom.is_element (Dom.descendants root) in
        let target =
          List.nth elements (Prng.int prng (List.length elements))
        in
        (match Prng.int prng 6 with
         | 0 when target != root -> Labeled_doc.delete_subtree ldoc target
         | 1 -> Labeled_doc.compact ldoc
         | _ ->
           Labeled_doc.insert_subtree ldoc ~parent:target
             ~index:(Prng.int prng (Dom.child_count target + 1))
             (Parser.parse_fragment
                (Printf.sprintf "<patch n=\"%d\"><inner/></patch>" i)));
        ignore (Label_sync.flush sync);
        Label_sync.check sync;
        index_check store;
        ok := !ok && agree ()
      done;
      !ok)

(* {1 Snapshot refresh reuses untouched slices} *)

let refresh_reuses_slices () =
  let doc = Parser.parse_string "<site><a><x/></a><b><y/></b></site>" in
  let ldoc = Labeled_doc.of_document doc in
  let pager = Pager.create (Counters.create ()) in
  let store = Shredder.shred_label pager ldoc in
  let sync = Label_sync.create pager store ldoc in
  let snap1 = Read_snapshot.of_store pager store ldoc in
  (* Append a fresh tag at the very end of the root: no existing row is
     relabeled, so every existing tag's index entry keeps its stamp. *)
  let root = Option.get doc.root in
  Labeled_doc.insert_subtree ldoc ~parent:root
    ~index:(Dom.child_count root)
    (Parser.parse_fragment "<p/>");
  ignore (Label_sync.flush sync);
  let snap2 = Read_snapshot.refresh snap1 in
  Alcotest.(check bool) "refresh produced a new snapshot" true
    (snap1 != snap2);
  (* Entries of tags away from the insertion point are reused
     physically, not re-copied.  (Tags near the appended leaf — here
     [b]/[y] — may be relabeled by the L-Tree and legitimately get
     fresh copies.) *)
  List.iter
    (fun tag ->
      Alcotest.(check bool)
        (Printf.sprintf "slice %S reused" tag)
        true
        (Read_snapshot.entry snap1 tag == Read_snapshot.entry snap2 tag))
    [ "a"; "x" ];
  (* ... while the new tag gets a real copy of its own. *)
  Alcotest.(check int) "new tag frozen" 1
    (Read_snapshot.entry snap2 "p").Label_index.len;
  (* A second refresh with nothing changed returns the same snapshot. *)
  Alcotest.(check bool) "fresh refresh is identity" true
    (Read_snapshot.refresh snap2 == snap2)

let suite =
  ( "columnar",
    [ case "growth reuses buffer" `Quick growth_reuses_buffer;
      case "checked accessors raise" `Quick checked_accessors_raise;
      case "copy_sub is independent" `Quick copy_sub_is_independent;
      case "push/to_list roundtrip" `Quick roundtrip;
      case "sort_dedup matches reference" `Quick sort_dedup_matches_reference;
      case "sort3 matches reference" `Quick sort3_matches_reference;
      case "upper_bound matches linear scan" `Quick upper_bound_matches_linear;
      case "snapshot refresh reuses untouched slices" `Quick
        refresh_reuses_slices;
      QCheck_alcotest.to_alcotest columnar_matches_baseline ] )
