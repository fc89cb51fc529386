(* Relational storage simulator: pager accounting, heap tables, and the
   edge-vs-label query plans of experiment E8. *)

open Ltree_xml
open Ltree_relstore
module Counters = Ltree_metrics.Counters
module Labeled_doc = Ltree_doc.Labeled_doc
module Xml_gen = Ltree_workload.Xml_gen

let case = Alcotest.test_case

(* The store's INL plan for [anc//desc]. *)
let label_descendants_inl pager store ~anc ~desc =
  Query.label_plan pager store (Query.Descendants_inl (anc, desc))

let pager_counts () =
  let counters = Counters.create () in
  let pager = Pager.create ~capacity:2 counters in
  let t = Pager.fresh_table_id pager in
  Pager.touch pager ~table:t ~page:0;
  Pager.touch pager ~table:t ~page:0;
  Alcotest.(check int) "hit after miss" 1 (Counters.page_reads counters);
  Pager.touch pager ~table:t ~page:1;
  Pager.touch pager ~table:t ~page:2;
  (* Page 0 was evicted (capacity 2, LRU). *)
  Pager.touch pager ~table:t ~page:0;
  Alcotest.(check int) "evicted page re-read" 4
    (Counters.page_reads counters);
  Alcotest.(check int) "resident bounded" 2 (Pager.resident pager);
  Pager.flush pager;
  Alcotest.(check int) "flushed" 0 (Pager.resident pager)

let table_paging () =
  let counters = Counters.create () in
  let pager = Pager.create ~capacity:100 counters in
  let t = Rel_table.create pager ~rows_per_page:10 in
  for i = 0 to 99 do
    ignore (Rel_table.append t i)
  done;
  Alcotest.(check int) "pages" 10 (Rel_table.pages t);
  Alcotest.(check int) "length" 100 (Rel_table.length t);
  Alcotest.(check int) "row value" 42 (Rel_table.get t 42);
  Counters.reset counters;
  Pager.flush pager;
  let seen = ref 0 in
  Rel_table.iter t (fun _ _ -> incr seen);
  Alcotest.(check int) "scan touches each page once" 10
    (Counters.page_reads counters);
  Alcotest.(check int) "scan sees every row" 100 !seen;
  (* Random access within one page costs one read. *)
  Counters.reset counters;
  Pager.flush pager;
  ignore (Rel_table.get t 5);
  ignore (Rel_table.get t 6);
  Alcotest.(check int) "same page" 1 (Counters.page_reads counters)

let pager_write_back () =
  let counters = Counters.create () in
  let pager = Pager.create ~capacity:2 counters in
  let tid = Pager.fresh_table_id pager in
  Pager.touch ~write:true pager ~table:tid ~page:0;
  Alcotest.(check int) "no write yet" 0 (Counters.page_writes counters);
  (* Evicting a dirty page writes it back. *)
  Pager.touch pager ~table:tid ~page:1;
  Pager.touch pager ~table:tid ~page:2;
  Alcotest.(check int) "write-back on eviction" 1
    (Counters.page_writes counters);
  (* flush_dirty writes the remaining dirty pages. *)
  Pager.touch ~write:true pager ~table:tid ~page:1;
  Pager.touch ~write:true pager ~table:tid ~page:2;
  let n = Pager.flush_dirty pager in
  Alcotest.(check int) "two flushed" 2 n;
  Alcotest.(check int) "writes counted" 3 (Counters.page_writes counters);
  (* Clean evictions write nothing. *)
  Pager.touch pager ~table:tid ~page:5;
  Pager.touch pager ~table:tid ~page:6;
  Pager.touch pager ~table:tid ~page:7;
  Alcotest.(check int) "clean eviction free" 3
    (Counters.page_writes counters)

let table_set () =
  let counters = Counters.create () in
  let pager = Pager.create counters in
  let t = Rel_table.create pager ~rows_per_page:4 in
  for i = 0 to 15 do
    ignore (Rel_table.append t i)
  done;
  Rel_table.set t 5 500;
  Alcotest.(check int) "updated row" 500 (Rel_table.get t 5);
  Pager.flush pager;
  Alcotest.(check int) "one page written" 1 (Counters.page_writes counters)

let doc_src =
  "<library><shelf><book><title>A</title><author>X</author></book>\
   <book><title>B</title></book></shelf><shelf><book><title>C</title>\
   </book></shelf><title>catalog</title></library>"

(* Ground truth via DOM navigation. *)
let dom_descendants doc ~anc ~desc =
  match (doc : Dom.document).root with
  | None -> []
  | Some root ->
    let result = ref [] in
    Dom.iter_preorder root (fun a ->
        if Dom.is_element a && Dom.name a = anc then
          Dom.iter_preorder a (fun d ->
              if d != a && Dom.is_element d && Dom.name d = desc then
                result := Dom.id d :: !result));
    List.sort_uniq compare !result

let plans_agree () =
  let doc = Parser.parse_string doc_src in
  let ldoc = Labeled_doc.of_document doc in
  let counters = Counters.create () in
  let pager = Pager.create counters in
  let edge = Shredder.shred_edge pager doc in
  let label = Shredder.shred_label pager ldoc in
  List.iter
    (fun (anc, desc) ->
      let truth = dom_descendants doc ~anc ~desc in
      Alcotest.(check (list int))
        (Printf.sprintf "edge %s//%s" anc desc)
        truth
        (Query.edge_descendants edge ~anc ~desc);
      Alcotest.(check (list int))
        (Printf.sprintf "label %s//%s" anc desc)
        truth
        (Query.label_descendants pager label ~anc ~desc))
    [ ("library", "title"); ("shelf", "title"); ("book", "title");
      ("shelf", "book"); ("book", "shelf"); ("library", "nosuch") ]

let children_plans_agree () =
  let doc = Parser.parse_string doc_src in
  let ldoc = Labeled_doc.of_document doc in
  let pager = Pager.create (Counters.create ()) in
  let edge = Shredder.shred_edge pager doc in
  let label = Shredder.shred_label pager ldoc in
  let truth parent child =
    match doc.root with
    | None -> []
    | Some root ->
      let result = ref [] in
      Dom.iter_preorder root (fun p ->
          if Dom.is_element p && Dom.name p = parent then
            List.iter
              (fun c ->
                if Dom.is_element c && Dom.name c = child then
                  result := Dom.id c :: !result)
              (Dom.children p));
      List.sort_uniq compare !result
  in
  List.iter
    (fun (p, c) ->
      let t = truth p c in
      Alcotest.(check (list int))
        (Printf.sprintf "edge %s/%s" p c)
        t
        (Query.edge_children edge ~parent:p ~child:c);
      Alcotest.(check (list int))
        (Printf.sprintf "label %s/%s" p c)
        t
        (Query.label_children pager label ~parent:p ~child:c))
    [ ("library", "title"); ("shelf", "book"); ("book", "title") ]

(* The paper's argument: on a deep document the edge plan reads every
   intermediate level while the label plan touches only the two input
   tag lists. *)
let label_plan_reads_less () =
  let deep =
    (* a > b > b > ... > b > leaf, 40 levels of b. *)
    let rec nest n = if n = 0 then "<leaf/>" else "<b>" ^ nest (n - 1) ^ "</b>" in
    "<a>" ^ nest 40 ^ "</a>"
  in
  let doc = Parser.parse_string deep in
  let ldoc = Labeled_doc.of_document doc in
  let counters = Counters.create () in
  let pager = Pager.create ~capacity:4 counters in
  let edge = Shredder.shred_edge pager ~rows_per_page:4 doc in
  let label = Shredder.shred_label pager ~rows_per_page:4 ldoc in
  Pager.flush pager;
  Counters.reset counters;
  let r1 = Query.edge_descendants edge ~anc:"a" ~desc:"leaf" in
  let edge_reads = Counters.page_reads counters in
  Pager.flush pager;
  Counters.reset counters;
  let r2 = Query.label_descendants pager label ~anc:"a" ~desc:"leaf" in
  let label_reads = Counters.page_reads counters in
  Alcotest.(check (list int)) "same answer" r1 r2;
  Alcotest.(check bool)
    (Printf.sprintf "label %d < edge %d reads" label_reads edge_reads)
    true (label_reads < edge_reads)

(* Ground truth for multi-step descendant paths via DOM navigation. *)
let dom_path doc tags =
  match (doc : Dom.document).root, tags with
  | None, _ | _, [] -> []
  | Some root, first :: rest ->
    let matching tag n = Dom.is_element n && Dom.name n = tag in
    let seed = ref [] in
    Dom.iter_preorder root (fun n ->
        if matching first n then seed := n :: !seed);
    let step nodes tag =
      let out = ref [] in
      List.iter
        (fun a ->
          Dom.iter_preorder a (fun d ->
              if d != a && matching tag d then out := d :: !out))
        nodes;
      List.sort_uniq (fun a b -> compare (Dom.id a) (Dom.id b)) !out
    in
    List.fold_left step (List.sort_uniq (fun a b -> compare (Dom.id a) (Dom.id b)) !seed) rest
    |> List.map Dom.id |> List.sort_uniq compare

let path_plans_agree () =
  let doc = Parser.parse_string doc_src in
  let ldoc = Labeled_doc.of_document doc in
  let pager = Pager.create (Counters.create ()) in
  let edge = Shredder.shred_edge pager doc in
  let label = Shredder.shred_label pager ldoc in
  List.iter
    (fun tags ->
      let truth = dom_path doc tags in
      let name = String.concat "//" tags in
      Alcotest.(check (list int)) ("edge " ^ name) truth
        (Query.edge_path edge tags);
      Alcotest.(check (list int)) ("label " ^ name) truth
        (Query.label_path pager label tags))
    [ [ "library" ]; [ "library"; "book"; "title" ];
      [ "library"; "shelf"; "book" ]; [ "shelf"; "book"; "title" ];
      [ "book"; "title"; "author" ]; [ "shelf"; "shelf" ] ]

let random_paths_agree =
  QCheck.Test.make ~count:25 ~name:"path plans agree on generated documents"
    QCheck.(make Gen.(pair (int_bound 100000) (int_range 30 250)))
    (fun (seed, size) ->
      let profile = Xml_gen.default_profile ~target_nodes:size () in
      let doc = Xml_gen.generate ~seed profile in
      let ldoc = Labeled_doc.of_document doc in
      let pager = Pager.create (Counters.create ()) in
      let edge = Shredder.shred_edge pager doc in
      let label = Shredder.shred_label pager ldoc in
      List.for_all
        (fun tags ->
          let truth = dom_path doc tags in
          Query.edge_path edge tags = truth
          && Query.label_path pager label tags = truth)
        [ [ "site"; "item"; "name" ]; [ "item"; "listitem" ];
          [ "site"; "category"; "name" ]; [ "item"; "item"; "name" ] ])

let inl_plan_agrees () =
  let doc = Parser.parse_string doc_src in
  let ldoc = Labeled_doc.of_document doc in
  let pager = Pager.create (Counters.create ()) in
  let _ = Shredder.shred_edge pager doc in
  let label = Shredder.shred_label pager ldoc in
  List.iter
    (fun (anc, desc) ->
      Alcotest.(check (list int))
        (Printf.sprintf "inl %s//%s" anc desc)
        (dom_descendants doc ~anc ~desc)
        (label_descendants_inl pager label ~anc ~desc))
    [ ("library", "title"); ("shelf", "title"); ("book", "title");
      ("shelf", "book"); ("book", "shelf"); ("library", "nosuch") ]

let inl_plan_random =
  QCheck.Test.make ~count:25 ~name:"inl plan agrees on generated documents"
    QCheck.(make Gen.(pair (int_bound 100000) (int_range 30 250)))
    (fun (seed, size) ->
      let profile = Xml_gen.default_profile ~target_nodes:size () in
      let doc = Xml_gen.generate ~seed profile in
      let ldoc = Labeled_doc.of_document doc in
      let pager = Pager.create (Counters.create ()) in
      let label = Shredder.shred_label pager ldoc in
      let tags = [ "site"; "item"; "name"; "listitem"; "text" ] in
      List.for_all
        (fun anc ->
          List.for_all
            (fun desc ->
              label_descendants_inl pager label ~anc ~desc
              = dom_descendants doc ~anc ~desc)
            tags)
        tags)

let inl_index_invalidation () =
  (* After an update + sync, the rebuilt index must reflect new labels. *)
  let doc = Parser.parse_string doc_src in
  let ldoc = Labeled_doc.of_document doc in
  let pager = Pager.create (Counters.create ()) in
  let label = Shredder.shred_label pager ldoc in
  let sync = Label_sync.create pager label ldoc in
  (* Warm the index. *)
  ignore (label_descendants_inl pager label ~anc:"library" ~desc:"title");
  let root = Option.get doc.root in
  let shelf = List.nth (Dom.children root) 1 in
  Labeled_doc.insert_subtree ldoc ~parent:shelf ~index:0
    (Parser.parse_fragment "<book><title>Fresh</title></book>");
  ignore (Label_sync.flush sync);
  Label_sync.check sync;
  Alcotest.(check int) "new title visible via inl" 5
    (List.length
       (label_descendants_inl pager label ~anc:"library" ~desc:"title"))

let random_docs_agree =
  QCheck.Test.make ~count:30 ~name:"plans agree on generated documents"
    QCheck.(make Gen.(pair (int_bound 100000) (int_range 30 300)))
    (fun (seed, size) ->
      let profile = Xml_gen.default_profile ~target_nodes:size () in
      let doc = Xml_gen.generate ~seed profile in
      let ldoc = Labeled_doc.of_document doc in
      let pager = Pager.create (Counters.create ()) in
      let edge = Shredder.shred_edge pager doc in
      let label = Shredder.shred_label pager ldoc in
      let tags = [ "site"; "item"; "name"; "listitem"; "text"; "category" ] in
      List.for_all
        (fun anc ->
          List.for_all
            (fun desc ->
              let truth = dom_descendants doc ~anc ~desc in
              Query.edge_descendants edge ~anc ~desc = truth
              && Query.label_descendants pager label ~anc ~desc = truth)
            tags)
        tags)

(* {1 Incremental index freshness}

   After [Label_sync.flush] reports updates, inserts and tombstones, the
   indexed plans must agree with a from-scratch sort-on-fetch join and
   with DOM ground truth — the index is repaired, never rebuilt, so this
   is the test that the repair path is exact. *)

let all_plans_agree pager store ldoc tags =
  let doc = Labeled_doc.document ldoc in
  List.for_all
    (fun anc ->
      List.for_all
        (fun desc ->
          let truth = dom_descendants doc ~anc ~desc in
          Query.label_descendants_baseline pager store ~anc ~desc = truth
          && Doc_order.agrees ldoc
               (Query.label_descendants pager store ~anc ~desc) truth
          && Doc_order.agrees ldoc
               (label_descendants_inl pager store ~anc ~desc) truth)
        tags)
    tags

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

let index_fresh_random =
  QCheck.Test.make ~count:20
    ~name:"index stays fresh across random flushed op logs"
    QCheck.(make Gen.(pair (int_bound 100000) (int_range 40 160)))
    (fun (seed, size) ->
      let profile = Xml_gen.default_profile ~target_nodes:size () in
      let doc = Xml_gen.generate ~seed profile in
      let ldoc = Labeled_doc.of_document doc in
      let pager = Pager.create (Counters.create ()) in
      let store = Shredder.shred_label pager ldoc in
      let sync = Label_sync.create pager store ldoc in
      let prng = Ltree_workload.Prng.create seed in
      let tags = [ "site"; "item"; "name"; "listitem" ] in
      (* Materialize the entries first so every later round exercises
         the repair path, not the first-touch rebuild. *)
      let ok = ref (all_plans_agree pager store ldoc tags) in
      for _round = 1 to 8 do
        for _op = 1 to 3 do
          let elems =
            match doc.root with
            | None -> []
            | Some root ->
              List.filter
                (fun n -> Dom.is_element n && n != root)
                (Dom.descendants root)
          in
          match elems with
          | [] -> ()
          | _ :: _ ->
            let target =
              List.nth elems
                (Ltree_workload.Prng.int prng (List.length elems))
            in
            if Ltree_workload.Prng.int prng 4 = 0 then
              Labeled_doc.delete_subtree ldoc target
            else
              Labeled_doc.insert_subtree ldoc
                ~parent:(Option.get (Dom.parent target))
                ~index:(Dom.index_in_parent target + 1)
                (Parser.parse_fragment "<item><name>fresh</name></item>")
        done;
        ignore (Label_sync.flush sync);
        Label_sync.check sync;
        ok := !ok && all_plans_agree pager store ldoc tags;
        index_check store
      done;
      !ok)

let index_repair_not_rebuild () =
  let doc = Parser.parse_string doc_src in
  let ldoc = Labeled_doc.of_document doc in
  let pager = Pager.create (Counters.create ()) in
  let store = Shredder.shred_label pager ldoc in
  let sync = Label_sync.create pager store ldoc in
  (* First access: full build of both entries. *)
  ignore (Query.label_descendants pager store ~anc:"library" ~desc:"title");
  let s0 = Query.index_stats store in
  Alcotest.(check bool) "first access rebuilt" true (s0.Label_index.full_rebuilds > 0);
  (* An insert + flush dirties the touched tags; the next query must
     repair them in place, not rebuild. *)
  let root = Option.get doc.root in
  let shelf = List.nth (Dom.children root) 1 in
  Labeled_doc.insert_subtree ldoc ~parent:shelf ~index:0
    (Parser.parse_fragment "<book><title>Fresh</title></book>");
  ignore (Label_sync.flush sync);
  Alcotest.(check int) "new title visible" 5
    (List.length
       (Query.label_descendants pager store ~anc:"library" ~desc:"title"));
  let s1 = Query.index_stats store in
  Alcotest.(check int) "no further rebuild" s0.Label_index.full_rebuilds
    s1.Label_index.full_rebuilds;
  Alcotest.(check bool) "repair ran" true
    (s1.Label_index.repairs > s0.Label_index.repairs);
  Alcotest.(check bool) "changed rows merged" true
    (s1.Label_index.merged_rows > 0)

let index_compacts_tombstones () =
  let doc = Parser.parse_string doc_src in
  let ldoc = Labeled_doc.of_document doc in
  let pager = Pager.create (Counters.create ()) in
  let store = Shredder.shred_label pager ldoc in
  let sync = Label_sync.create pager store ldoc in
  ignore (Query.label_descendants pager store ~anc:"library" ~desc:"title");
  let root = Option.get doc.root in
  let first_shelf = List.hd (Dom.children root) in
  let first_book = List.hd (Dom.children first_shelf) in
  Labeled_doc.delete_subtree ldoc first_book;
  ignore (Label_sync.flush sync);
  let s0 = Query.index_stats store in
  Alcotest.(check (list int))
    "deleted titles gone"
    (dom_descendants doc ~anc:"library" ~desc:"title")
    (Query.label_descendants pager store ~anc:"library" ~desc:"title");
  let s1 = Query.index_stats store in
  Alcotest.(check int) "tombstones dropped by repair, not rebuild"
    s0.Label_index.full_rebuilds s1.Label_index.full_rebuilds;
  (* The repaired entries must hold no dead rows (lazy compaction). *)
  index_check store

(* Pins the flush-after-evict accounting: a page's dirty bit is consumed
   exactly once, whether the write-back happens at eviction or at flush,
   and a flushed pager has nothing left to write. *)
let flush_after_evict () =
  let counters = Counters.create () in
  let pager = Pager.create ~capacity:2 counters in
  let tid = Pager.fresh_table_id pager in
  Pager.touch ~write:true pager ~table:tid ~page:0;
  Pager.touch ~write:true pager ~table:tid ~page:1;
  (* Touching a third page evicts page 0 (LRU), writing it back. *)
  Pager.touch pager ~table:tid ~page:2;
  Alcotest.(check int) "eviction wrote the dirty page" 1
    (Counters.page_writes counters);
  (* Flush writes exactly the remaining dirty page — the evicted page's
     bit was already consumed. *)
  Pager.flush pager;
  Alcotest.(check int) "flush wrote one more page" 2
    (Counters.page_writes counters);
  (* Flushing again is free. *)
  Alcotest.(check int) "second flush writes nothing" 0
    (Pager.flush_dirty pager);
  Alcotest.(check int) "write count unchanged" 2
    (Counters.page_writes counters)

(* {1 Differential test against the scan-based LRU}

   The reference model is the pager's original eviction policy over a
   hash table: residency maps [(table, page)] to the page's last-use
   clock, and a miss at capacity scans every resident page for the
   smallest clock.  The real pager finds the same
   victim through its lazily re-keyed heap, so both must agree on every
   counter after every step. *)

module Scan_pager = struct
  type t = {
    capacity : int;
    clocks : (int * int, int) Hashtbl.t;
    dirty : (int * int, unit) Hashtbl.t;
    mutable clock : int;
    mutable reads : int;
    mutable writes : int;
  }

  let create capacity =
    { capacity; clocks = Hashtbl.create 64; dirty = Hashtbl.create 64;
      clock = 0; reads = 0; writes = 0 }

  let write_back m key =
    if Hashtbl.mem m.dirty key then begin
      Hashtbl.remove m.dirty key;
      m.writes <- m.writes + 1
    end

  let evict_oldest m =
    let victim =
      Hashtbl.fold
        (fun key c best ->
          match best with
          | Some (_, bc) when bc <= c -> best
          | _ -> Some (key, c))
        m.clocks None
    in
    match victim with
    | None -> ()
    | Some (key, _) ->
      write_back m key;
      Hashtbl.remove m.clocks key

  let touch m ~write ~table ~page =
    m.clock <- m.clock + 1;
    let key = (table, page) in
    if not (Hashtbl.mem m.clocks key) then begin
      m.reads <- m.reads + 1;
      if Hashtbl.length m.clocks >= m.capacity then evict_oldest m
    end;
    Hashtbl.replace m.clocks key m.clock;
    if write then Hashtbl.replace m.dirty key ()

  let flush_dirty m =
    let keys = Hashtbl.fold (fun k () acc -> k :: acc) m.dirty [] in
    List.iter (write_back m) keys;
    List.length keys

  let flush m =
    ignore (flush_dirty m);
    Hashtbl.reset m.clocks
end

(* One random schedule: 1–3 tables, a capacity in 1–40, cubically
   skewed page choices over a page range a few times the capacity, and a
   mix of read touches, write touches, [flush_dirty] and [flush]. *)
let pager_matches_scan_model ~seed ~capacity ~steps =
  let st = Random.State.make [| seed |] in
  let counters = Counters.create () in
  let pager = Pager.create ~capacity counters in
  let model = Scan_pager.create capacity in
  let tables =
    Array.init (1 + Random.State.int st 3) (fun _ -> Pager.fresh_table_id pager)
  in
  let pages =
    Array.map (fun _ -> 1 + Random.State.int st ((3 * capacity) + 8)) tables
  in
  let ok = ref true in
  for _ = 1 to steps do
    let r = Random.State.int st 100 in
    if r < 2 then begin
      let n = Pager.flush_dirty pager in
      if n <> Scan_pager.flush_dirty model then ok := false
    end
    else if r < 3 then begin
      Pager.flush pager;
      Scan_pager.flush model
    end
    else begin
      let i = Random.State.int st (Array.length tables) in
      let u = Random.State.float st 1.0 in
      let page = int_of_float (u *. u *. u *. float_of_int pages.(i)) in
      let write = r >= 75 in
      let table = tables.(i) in
      (match r mod 3 with
       | 0 when not write -> Pager.touch_read pager ~table ~page
       | _ -> Pager.touch ~write pager ~table ~page);
      Scan_pager.touch model ~write ~table ~page
    end;
    if
      Counters.page_reads counters <> model.reads
      || Counters.page_writes counters <> model.writes
      || Pager.resident pager <> Hashtbl.length model.clocks
    then ok := false
  done;
  !ok

let pager_differential =
  QCheck.Test.make ~count:400
    ~name:"pager eviction matches the scan-based LRU model"
    QCheck.(make Gen.(pair (int_bound 1_000_000)
                        (oneof [ return 1; int_range 1 40 ])))
    (fun (seed, capacity) ->
      pager_matches_scan_model ~seed ~capacity ~steps:3_000)

(* A huge pool holding a few pages keeps exactly those resident. *)
let pager_slots_lazy () =
  let pager = Pager.create ~capacity:65_536 (Counters.create ()) in
  let t = Pager.fresh_table_id pager in
  for p = 0 to 99 do
    Pager.touch_read pager ~table:t ~page:p
  done;
  Alcotest.(check int) "resident" 100 (Pager.resident pager);
  Alcotest.check_raises "capacity above 2^24 rejected"
    (Invalid_argument "Pager.create: capacity must be in [1, 2^24]")
    (fun () -> ignore (Pager.create ~capacity:((1 lsl 24) + 1)
                         (Counters.create ())))

let suite =
  ( "relstore",
    [ case "pager LRU accounting" `Quick pager_counts;
      case "pager write-back accounting" `Quick pager_write_back;
      case "flush after evict writes each page once" `Quick
        flush_after_evict;
      case "huge pool keeps only touched pages" `Quick pager_slots_lazy;
      QCheck_alcotest.to_alcotest pager_differential;
      case "heap table paging" `Quick table_paging;
      case "rel_table set" `Quick table_set;
      case "descendant plans agree" `Quick plans_agree;
      case "child plans agree" `Quick children_plans_agree;
      case "label plan reads less on deep paths" `Quick label_plan_reads_less;
      case "multi-step path plans agree" `Quick path_plans_agree;
      case "index-nested-loop plan agrees" `Quick inl_plan_agrees;
      case "inl index invalidation on sync" `Quick inl_index_invalidation;
      case "index repairs instead of rebuilding" `Quick
        index_repair_not_rebuild;
      case "index compacts tombstones lazily" `Quick
        index_compacts_tombstones;
      QCheck_alcotest.to_alcotest index_fresh_random;
      QCheck_alcotest.to_alcotest inl_plan_random;
      QCheck_alcotest.to_alcotest random_paths_agree;
      QCheck_alcotest.to_alcotest random_docs_agree ] )
