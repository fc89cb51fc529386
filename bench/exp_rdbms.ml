(* E8: the §1 motivation — descendant queries in an RDBMS via the edge
   table (iterated self-joins) vs. the label table (one structural
   join), measured in simulated page reads. *)

open Ltree_xml
open Ltree_relstore
module Counters = Ltree_metrics.Counters
module Table = Ltree_metrics.Table
module Labeled_doc = Ltree_doc.Labeled_doc
module Xml_gen = Ltree_workload.Xml_gen

let deep_doc levels =
  let rec nest n =
    if n = 0 then "<leaf/>"
    else Printf.sprintf "<b i=\"%d\">%s</b>" n (nest (n - 1))
  in
  Parser.parse_string ("<a>" ^ nest levels ^ "</a>")

let measure doc pairs title =
  let ldoc = Labeled_doc.of_document doc in
  let counters = Counters.create () in
  let pager = Pager.create ~capacity:8 counters in
  let edge = Shredder.shred_edge pager ~rows_per_page:16 doc in
  let label = Shredder.shred_label pager ~rows_per_page:16 ldoc in
  let rows =
    List.map
      (fun (anc, desc) ->
        Pager.flush pager;
        Counters.reset counters;
        let r_edge = Query.edge_descendants edge ~anc ~desc in
        let edge_reads = Counters.page_reads counters in
        Pager.flush pager;
        Counters.reset counters;
        let r_label = Query.label_descendants pager label ~anc ~desc in
        let label_reads = Counters.page_reads counters in
        assert (
          r_edge = List.sort Int.compare r_label
          && Labeled_doc.in_document_order ldoc r_label);
        [ Printf.sprintf "%s//%s" anc desc;
          string_of_int (List.length r_label);
          string_of_int edge_reads;
          string_of_int label_reads;
          Table.fratio (float_of_int edge_reads) (float_of_int label_reads)
        ])
      pairs
  in
  Table.print ~title
    ~header:[ "query"; "results"; "edge reads"; "label reads"; "speedup" ]
    ~align:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right ]
    rows

(* E8b: multi-step paths t1//t2//…//tk under both plans. *)
let measure_paths doc paths title =
  let ldoc = Labeled_doc.of_document doc in
  let counters = Counters.create () in
  let pager = Pager.create ~capacity:8 counters in
  let edge = Shredder.shred_edge pager ~rows_per_page:16 doc in
  let label = Shredder.shred_label pager ~rows_per_page:16 ldoc in
  let rows =
    List.map
      (fun tags ->
        Pager.flush pager;
        Counters.reset counters;
        let r_edge = Query.edge_path edge tags in
        let edge_reads = Counters.page_reads counters in
        Pager.flush pager;
        Counters.reset counters;
        let r_label = Query.label_path pager label tags in
        let label_reads = Counters.page_reads counters in
        assert (
          r_edge = List.sort Int.compare r_label
          && Labeled_doc.in_document_order ldoc r_label);
        [ String.concat "//" tags;
          string_of_int (List.length r_label);
          string_of_int edge_reads;
          string_of_int label_reads;
          Table.fratio (float_of_int edge_reads) (float_of_int label_reads)
        ])
      paths
  in
  Table.print ~title
    ~header:[ "path"; "results"; "edge reads"; "label reads"; "speedup" ]
    ~align:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right ]
    rows

(* E8d: merge join vs. index-nested-loop over the same label table — the
   crossover as anchor selectivity varies. *)
let crossover () =
  let total_rows = 4_096 in
  let doc_with anchors =
    let root = Dom.element "root" in
    for i = 0 to total_rows - 1 do
      let tag = if i < anchors then "anchor" else "filler" in
      let row = Dom.element tag in
      Dom.append_child row (Dom.element "target");
      Dom.append_child row (Dom.element "target");
      Dom.append_child root row
    done;
    Dom.document root
  in
  let rows =
    List.map
      (fun anchors ->
        let doc = doc_with anchors in
        let ldoc = Labeled_doc.of_document doc in
        let counters = Counters.create () in
        let pager = Pager.create ~capacity:16 counters in
        let store = Shredder.shred_label pager ~rows_per_page:16 ldoc in
        (* Warm the secondary index so both plans are measured on their
           probe phase (indexes are memory-resident in this model). *)
        ignore (Query.label_plan pager store (Query.Descendants_inl ("anchor", "target")));
        Pager.flush pager;
        Counters.reset counters;
        let r1 = Query.label_descendants pager store ~anc:"anchor" ~desc:"target" in
        let merge_reads = Counters.page_reads counters in
        Pager.flush pager;
        Counters.reset counters;
        let r2 = Query.label_plan pager store (Query.Descendants_inl ("anchor", "target")) in
        let inl_reads = Counters.page_reads counters in
        assert (r1 = r2);
        [ string_of_int anchors;
          string_of_int (List.length r1);
          string_of_int merge_reads;
          string_of_int inl_reads;
          (if inl_reads < merge_reads then "INL" else "merge") ])
      [ 1; 8; 64; 256; 1024; 4096 ]
  in
  Table.print
    ~title:
      (Printf.sprintf
         "E8d: anchor//target over %d rows — merge join vs. index nested \
          loop"
         total_rows)
    ~header:[ "anchors"; "results"; "merge reads"; "INL reads"; "winner" ]
    rows;
  print_endline
    "Few selective anchors favour probing the start-label index (reads\n\
     proportional to the matches); once the anchors blanket the document\n\
     the single sorted merge is cheaper — the classic plan crossover,\n\
     now driven purely by L-Tree label predicates."

let run () =
  Bench_util.section
    "E8 | RDBMS plans for a//b: edge-table self-joins vs. one label join";
  let doc =
    Xml_gen.generate ~seed:7 (Xml_gen.default_profile ~target_nodes:20_000 ())
  in
  measure doc
    [ ("site", "name"); ("item", "name"); ("site", "keyword");
      ("listitem", "text"); ("category", "name") ]
    "generated auction document (~20k nodes, page = 16 rows, pool = 8 pages)";
  measure (deep_doc 60)
    [ ("a", "leaf"); ("a", "b") ]
    "pathological 60-level chain";
  let doc =
    Xml_gen.generate ~seed:7 (Xml_gen.default_profile ~target_nodes:20_000 ())
  in
  measure_paths doc
    [ [ "site"; "item"; "name" ]; [ "item"; "listitem"; "text" ];
      [ "site"; "category"; "name" ]; [ "item"; "item"; "name" ] ]
    "E8b: multi-step paths (one pipelined label join per step)";
  let xmark = Xml_gen.xmark ~seed:11 ~scale:4.0 () in
  measure xmark
    [ ("site", "name"); ("regions", "item"); ("item", "text");
      ("people", "city"); ("open_auctions", "personref") ]
    "E8c: structured XMark-style document (scale 4)";
  crossover ();
  print_endline
    "The edge plan re-reads every intermediate level (one self-join per\n\
     step); the label plan reads only the two tag lists once — the paper's\n\
     argument for maintaining order-preserving labels."
