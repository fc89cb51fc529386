(* Durability experiment (E15): what crash safety costs, and how fast it
   pays back.

   Part 1 — append overhead: the same insert workload runs through the
   durable store at group-commit sizes 1/4/16/64, against the real
   filesystem, counting fsyncs and wall time per operation.  Group
   commit amortizes the fsync (the dominant cost) across the batch at
   the price of a bounded durable-prefix lag, so ns/op should fall
   roughly with 1/g while the journal bytes stay identical.

   Part 2 — recovery time: stores are built with journals of increasing
   length (no checkpoint after initialization), then recovered from
   disk; recovery replays every journaled entry through the normal
   update path, so time should grow linearly in journal length.

   Part 3 — the snapshot image (E4, E15): for the documents the
   end-to-end workloads load, at their (8,2), the bits per label of the
   image's delta-coded label section next to the §3.1 formula
   h·log2(f-1) and the fixed-width label, the image size, and the best
   of ten [Durable_doc.checkpoint]s on the simulated disk.

   Rows land in BENCH_recovery.json. *)

open Ltree_recovery
open Ltree_core
module Labeled_doc = Ltree_doc.Labeled_doc
module Journal = Ltree_doc.Journal
module Dom = Ltree_xml.Dom
module Table = Ltree_metrics.Table
module Xml_gen = Ltree_workload.Xml_gen

let bench_dir = "_bench_recovery_store"

(* The real io, with fsyncs and appended bytes counted. *)
let counting_io () =
  let fsyncs = ref 0 and append_bytes = ref 0 in
  let io =
    { Fault.real_io with
      append_file =
        (fun path data ->
          append_bytes := !append_bytes + String.length data;
          Fault.real_io.Fault.append_file path data);
      fsync =
        (fun path ->
          incr fsyncs;
          Fault.real_io.Fault.fsync path) }
  in
  (io, fsyncs, append_bytes)

let fresh_ldoc () =
  Labeled_doc.of_document
    (Xml_gen.generate ~seed:11 (Xml_gen.default_profile ~target_nodes:200 ()))

(* Append-only script: every entry inserts a small subtree under the
   root, so scripts of any length apply to the same base document. *)
let script ldoc n =
  let root = Option.get (Labeled_doc.document ldoc).Dom.root in
  let ops = ref [] in
  for k = 1 to n do
    let anchor = (Labeled_doc.label ldoc root).Labeled_doc.start_pos in
    let entry =
      Journal.Insert
        { anchor;
          index = Dom.child_count root;
          xml = Printf.sprintf "<patch n=\"%d\">p%d</patch>" k k }
    in
    Journal.apply_entry ldoc entry;
    ops := entry :: !ops
  done;
  List.rev !ops

let reset_dir () =
  if Sys.file_exists bench_dir then
    Array.iter
      (fun f -> Sys.remove (Filename.concat bench_dir f))
      (Sys.readdir bench_dir)
  else Sys.mkdir bench_dir 0o755

let remove_dir () =
  if Sys.file_exists bench_dir then begin
    Array.iter
      (fun f -> Sys.remove (Filename.concat bench_dir f))
      (Sys.readdir bench_dir);
    Unix.rmdir bench_dir
  end

type row =
  | Append of {
      group_commit : int;
      ops : int;
      ns_per_op : float;
      fsyncs : int;
      journal_bytes : int;
    }
  | Recover of {
      journal_len : int;
      ms : float;
      replayed : int;
      durable_seq : int;
    }
  | Image of {
      doc : string;
      slots : int;
      label_bytes : int;
      formula_bits : float;
      fixed_bits : int;
      image_bytes : int;
      checkpoint_ms : float;
    }

let run_append ~ops group_commit =
  reset_dir ();
  let io, fsyncs, append_bytes = counting_io () in
  let t = Durable_doc.initialize ~io ~group_commit ~dir:bench_dir
      (fresh_ldoc ())
  in
  let entries = script (fresh_ldoc ()) ops in
  let fsyncs0 = !fsyncs in
  let t0 = Unix.gettimeofday () in
  List.iter (Durable_doc.apply t) entries;
  Durable_doc.sync t;
  let dt = Unix.gettimeofday () -. t0 in
  Append
    { group_commit; ops;
      ns_per_op = dt *. 1e9 /. float_of_int ops;
      fsyncs = !fsyncs - fsyncs0;
      journal_bytes = !append_bytes }

let run_recover journal_len =
  reset_dir ();
  let io = Fault.real_io in
  let t = Durable_doc.initialize ~io ~group_commit:64 ~dir:bench_dir
      (fresh_ldoc ())
  in
  List.iter (Durable_doc.apply t) (script (fresh_ldoc ()) journal_len);
  Durable_doc.sync t;
  let t0 = Unix.gettimeofday () in
  match Durable_doc.recover ~io ~dir:bench_dir () with
  | Error _ -> failwith "exp_recovery: pristine store failed to recover"
  | Ok (report, _) ->
    let dt = Unix.gettimeofday () -. t0 in
    if report.Durable_doc.durable_seq <> journal_len then
      failwith "exp_recovery: recovery lost synced operations";
    if report.Durable_doc.faults <> [] then
      failwith "exp_recovery: pristine store recovered with faults";
    Recover
      { journal_len;
        ms = dt *. 1e3;
        replayed = report.Durable_doc.entries_replayed;
        durable_seq = report.Durable_doc.durable_seq }

(* The documents of bench/e2e/workload.ml: xmark seed 7 at scale 4
   (edit_hotspot and replicated_edit) and 16 (query_cold), and the
   sharded_mix corpus of 64 scale-0.25 sites, here as one L-Tree rather
   than four shards. *)
let image_docs =
  [ ("xmark-4", fun () -> Xml_gen.xmark ~seed:7 ~scale:4. ());
    ("xmark-16", fun () -> Xml_gen.xmark ~seed:7 ~scale:16. ());
    ( "corpus-64x0.25",
      fun () ->
        let root = Dom.element "corpus" in
        for i = 0 to 63 do
          Dom.append_child root
            (Option.get (Xml_gen.xmark ~seed:i ~scale:0.25 ()).Dom.root)
        done;
        Dom.document root ) ]

(* The label section's size, read off the real image: past the magic
   and the f, s and height varints comes the slot count, then one varint
   per slot.  A new image version fails the [expect]. *)
let label_section_bytes image =
  let module Varint = Ltree_doc.Varint in
  let c = Varint.cursor image in
  Varint.expect c "ltree-snapshot 2\n";
  for _ = 1 to 3 do ignore (Varint.uint c : int) done;
  let slots = Varint.count c "label" in
  let start = Varint.pos c in
  for _ = 1 to slots do ignore (Varint.uint c : int) done;
  Varint.pos c - start

let run_image (doc, make) =
  let params = Params.make ~f:8 ~s:2 in
  let ldoc = Labeled_doc.of_document ~params (make ()) in
  let tree = Labeled_doc.tree ldoc in
  let image = Ltree_doc.Snapshot.save ldoc in
  let t =
    Durable_doc.initialize ~io:(Fault.sim_io (Fault.create_sim ()))
      ~dir:"image" ldoc
  in
  let best = ref infinity in
  for _ = 1 to 10 do
    let t0 = Unix.gettimeofday () in
    Durable_doc.checkpoint t;
    best := Float.min !best (Unix.gettimeofday () -. t0)
  done;
  Image
    { doc;
      slots = Ltree.length tree;
      label_bytes = label_section_bytes image;
      formula_bits = Analysis.bits ~params ~n:(Ltree.length tree);
      fixed_bits = Ltree.bits_per_label tree;
      image_bytes = String.length image;
      checkpoint_ms = !best *. 1e3 }

let bits_per_label ~label_bytes ~slots =
  float_of_int (8 * label_bytes) /. float_of_int slots

let print_rows rows =
  Table.print ~title:"journal append cost vs. group commit"
    ~header:[ "group"; "ops"; "ns/op"; "fsyncs"; "journal bytes" ]
    ~align:[ Table.Right; Table.Right; Table.Right; Table.Right; Table.Right ]
    (List.filter_map
       (function
         | Append a ->
           Some
             [ string_of_int a.group_commit; string_of_int a.ops;
               Printf.sprintf "%.0f" a.ns_per_op; string_of_int a.fsyncs;
               string_of_int a.journal_bytes ]
         | Recover _ | Image _ -> None)
       rows);
  Table.print ~title:"recovery time vs. journal length"
    ~header:[ "journal len"; "ms"; "replayed" ]
    ~align:[ Table.Right; Table.Right; Table.Right ]
    (List.filter_map
       (function
         | Recover r ->
           Some
             [ string_of_int r.journal_len; Printf.sprintf "%.2f" r.ms;
               string_of_int r.replayed ]
         | Append _ | Image _ -> None)
       rows);
  Table.print
    ~title:"snapshot image at (8,2): delta-coded label bits vs. h*log2(f-1)"
    ~header:
      [ "document"; "slots"; "label bytes"; "bits/label"; "formula";
        "fixed"; "image bytes"; "checkpoint ms" ]
    ~align:
      [ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right;
        Table.Right; Table.Right; Table.Right ]
    (List.filter_map
       (function
         | Image i ->
           Some
             [ i.doc; string_of_int i.slots; string_of_int i.label_bytes;
               Printf.sprintf "%.2f"
                 (bits_per_label ~label_bytes:i.label_bytes ~slots:i.slots);
               Printf.sprintf "%.2f" i.formula_bits;
               string_of_int i.fixed_bits; string_of_int i.image_bytes;
               Printf.sprintf "%.2f" i.checkpoint_ms ]
         | Append _ | Recover _ -> None)
       rows)

let record_row x =
  let open Bench_record in
  match x with
  | Append a ->
    row
      ~case:
        [ ("section", str "append"); ("group_commit", int a.group_commit);
          ("ops", int a.ops) ]
      ~metrics:
        [ ("ns_per_op", num a.ns_per_op); ("fsyncs", int a.fsyncs);
          ("journal_bytes", int a.journal_bytes) ]
  | Recover r ->
    row
      ~case:[ ("section", str "recover"); ("journal_len", int r.journal_len) ]
      ~metrics:
        [ ("ms", num r.ms); ("replayed", int r.replayed);
          ("durable_seq", int r.durable_seq) ]
  | Image i ->
    row
      ~case:[ ("section", str "image"); ("doc", str i.doc) ]
      ~metrics:
        [ ("slots", int i.slots); ("label_bytes", int i.label_bytes);
          ( "bits_per_label",
            num (bits_per_label ~label_bytes:i.label_bytes ~slots:i.slots) );
          ("formula_bits", num i.formula_bits);
          ("fixed_bits", int i.fixed_bits);
          ("image_bytes", int i.image_bytes);
          ("checkpoint_ms", num i.checkpoint_ms) ]

let () =
  let ops = ref 2_000 and json = ref "" in
  let rec parse = function
    | [] -> ()
    | "--ops" :: v :: rest ->
      ops := int_of_string v;
      parse rest
    | "--json" :: v :: rest ->
      json := v;
      parse rest
    | arg :: _ -> failwith ("exp_recovery: unknown argument " ^ arg)
  in
  parse (List.tl (Array.to_list Sys.argv));
  let append_rows =
    List.map (run_append ~ops:!ops) [ 1; 4; 16; 64 ]
  in
  let recover_rows =
    List.map run_recover
      (List.filter (fun l -> l <= max 100 !ops) [ 100; 500; 1000; 2000 ])
  in
  remove_dir ();
  let rows = append_rows @ recover_rows @ List.map run_image image_docs in
  print_rows rows;
  (* Sanity: group commit must actually reduce fsyncs. *)
  (match (List.hd append_rows, List.nth append_rows 3) with
   | Append g1, Append g64 ->
     if g64.fsyncs * 8 > g1.fsyncs then
       failwith "exp_recovery: group commit failed to amortize fsyncs"
   | _ -> assert false);
  Bench_record.write ~bench:"recovery" !json (List.map record_row rows);
