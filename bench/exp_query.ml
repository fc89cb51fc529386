(* Query fast-path experiment: mixed insert/query workloads racing the
   sort-on-fetch baseline against the incrementally maintained label
   index (plus the zero-alloc hot plan and the INL plan sharing that
   index).

   The document starts small; the workload interleaves subtree inserts
   (driven by the Ltree_workload.Driver patterns) with a//b descendant
   queries, flushing Label_sync between rounds, so every query sees a
   store whose rows just moved.  The baseline plan re-sorts both tags'
   rows on every query; the indexed plan merge-repairs only the rows the
   flush reported dirty; the hot plan then re-runs the same query on the
   already-clean index through the preallocated-workspace spine, which
   must allocate nothing — asserted here per run via GC counters, the
   dynamic twin of the R9 static audit.  Comparisons (sort + merge +
   join, all charged to the same counters) and per-query minor/major
   heap words land in BENCH_query.json. *)

open Ltree_xml
open Ltree_relstore
module Column = Ltree_core.Column
module Counters = Ltree_metrics.Counters
module Table = Ltree_metrics.Table
module Labeled_doc = Ltree_doc.Labeled_doc
module Driver = Ltree_workload.Driver
module Prng = Ltree_workload.Prng
module Params = Ltree_core.Params

let initial_items = 64

type plan = Baseline | Indexed | IndexedHot | Inl

let plan_name = function
  | Baseline -> "baseline"
  | Indexed -> "indexed"
  | IndexedHot -> "indexed_hot"
  | Inl -> "inl"

let plan_index = function
  | Baseline -> 0
  | Indexed -> 1
  | IndexedHot -> 2
  | Inl -> 3

let all_plans = [ Baseline; Indexed; IndexedHot; Inl ]

type row = {
  workload : string;
  plan : string;
  n : int;
  queries : int;
  ns_per_op : float;
  comparisons_per_query : float;
  minor_words_per_query : float;
  major_words_per_query : float;
  index_repairs : int;
  full_rebuilds : int;
}

let item () =
  let it = Dom.element "item" in
  Dom.append_child it (Dom.element "name");
  it

let insert_index prng (pattern : Driver.pattern) count =
  match pattern with
  | Driver.Append -> count
  | Driver.Prepend -> 0
  | Driver.Uniform -> Prng.int prng (count + 1)
  | Driver.Hotspot -> count / 2

(* Reading [Gc.minor_words] itself allocates the boxed float it
   returns, so a delta over an allocation-free region still reports a
   couple of words.  Calibrate that floor (minimum over back-to-back
   readings) and subtract it from every measured delta. *)
let minor_calibration () =
  let best = ref infinity in
  for _ = 1 to 10 do
    let a = Gc.minor_words () in
    let b = Gc.minor_words () in
    let d = b -. a in
    if d < !best then best := d
  done;
  !best

(* One mixed run over one freshly built document/store.  Per round:
   [batch] item inserts at pattern-chosen positions, one flush, then the
   four plans answer site//name — baseline first (it never touches the
   index), indexed second (pays the lazy repair), the hot plan third
   (clean index, warm workspace: the steady state whose allocation must
   be zero), INL last.  Results are checked identical every round. *)
let run_pattern ~n ~queries pattern =
  let prng = Prng.create (0x5eed + Hashtbl.hash (Driver.pattern_name pattern)) in
  let root = Dom.element "site" in
  for _ = 1 to initial_items do
    Dom.append_child root (item ())
  done;
  let doc = Dom.document root in
  let ldoc = Labeled_doc.of_document ~params:Params.fig2 doc in
  let counters = Counters.create () in
  (* Enough buffer pool for the whole store: eviction scans inside the
     measured window would distort both time and allocation counts. *)
  let pager = Pager.create ~capacity:(max 256 (n / 4)) counters in
  let store = Shredder.shred_label pager ~rows_per_page:16 ldoc in
  let sync = Label_sync.create pager store ldoc in
  let count = ref initial_items in
  let batch = max 1 (n / queries) in
  let nplans = List.length all_plans in
  let time = Array.make nplans 0.0 in
  let comps = Array.make nplans 0 in
  let minor = Array.make nplans 0.0 in
  let major = Array.make nplans 0.0 in
  let calib = minor_calibration () in
  (* Warm-up: materialize the index entries once, then snapshot the
     maintenance stats — everything after this point must be repairs,
     never full rebuilds. *)
  let site_name = Query.Descendants ("site", "name") in
  let site_name_inl = Query.Descendants_inl ("site", "name") in
  let r0 = Query.label_descendants pager store ~anc:"site" ~desc:"name" in
  assert (List.length r0 = initial_items);
  let stats0 = Query.index_stats store in
  let measure plan f =
    let i = plan_index plan in
    let before = Counters.comparisons counters in
    let qs0 = Gc.quick_stat () in
    let t0 = Sys.time () in
    let mw0 = Gc.minor_words () in
    let r = f () in
    let mw1 = Gc.minor_words () in
    let t1 = Sys.time () in
    let qs1 = Gc.quick_stat () in
    time.(i) <- time.(i) +. (t1 -. t0);
    comps.(i) <- comps.(i) + (Counters.comparisons counters - before);
    minor.(i) <- minor.(i) +. Float.max 0.0 (mw1 -. mw0 -. calib);
    major.(i) <-
      major.(i) +. Float.max 0.0 (qs1.Gc.major_words -. qs0.Gc.major_words);
    r
  in
  for _ = 1 to queries do
    for _ = 1 to batch do
      Labeled_doc.insert_subtree ldoc ~parent:root
        ~index:(insert_index prng pattern !count)
        (item ());
      incr count
    done;
    ignore (Label_sync.flush sync);
    let r_base =
      measure Baseline (fun () ->
          Query.label_descendants_baseline pager store ~anc:"site" ~desc:"name")
    in
    let r_idx =
      measure Indexed (fun () ->
          Query.label_descendants pager store ~anc:"site" ~desc:"name")
    in
    let r_hot =
      measure IndexedHot (fun () -> Query.label_plan_hot pager store site_name)
    in
    (* The hot result column is borrowed workspace: convert outside the
       measured window, before any further query reuses it. *)
    let r_hot = Column.to_list r_hot in
    let r_inl =
      measure Inl (fun () -> Query.label_plan pager store site_name_inl)
    in
    if not (List.equal Int.equal r_base r_idx) then
      failwith "exp_query: baseline and indexed plans disagree";
    if not (List.equal Int.equal r_base r_hot) then
      failwith "exp_query: baseline and hot plans disagree";
    if not (List.equal Int.equal r_base r_inl) then
      failwith "exp_query: baseline and INL plans disagree"
  done;
  let stats1 = Query.index_stats store in
  let repairs = stats1.Label_index.repairs - stats0.Label_index.repairs in
  let rebuilds =
    stats1.Label_index.full_rebuilds - stats0.Label_index.full_rebuilds
  in
  if rebuilds > 0 then
    failwith "exp_query: full rebuild after warm-up (repair path regressed)";
  if repairs = 0 then
    failwith "exp_query: no incremental repairs ran (dirty log regressed)";
  let fq = float_of_int queries in
  (* The zero-alloc acceptance: steady-state hot queries must not touch
     the minor heap at all (averaged across the run to absorb counter
     read noise). *)
  let hot_minor = minor.(plan_index IndexedHot) /. fq in
  if hot_minor >= 1.0 then
    failwith
      (Printf.sprintf
         "exp_query: hot plan allocated %.1f minor words/query (want 0)"
         hot_minor);
  List.map
    (fun plan ->
      let i = plan_index plan in
      { workload = Driver.pattern_name pattern;
        plan = plan_name plan;
        n;
        queries;
        ns_per_op = time.(i) *. 1e9 /. fq;
        comparisons_per_query = float_of_int comps.(i) /. fq;
        minor_words_per_query = minor.(i) /. fq;
        major_words_per_query = major.(i) /. fq;
        index_repairs =
          (match plan with Baseline | IndexedHot -> 0 | Indexed | Inl -> repairs);
        full_rebuilds =
          (match plan with Baseline | IndexedHot -> 0 | Indexed | Inl -> rebuilds);
      })
    all_plans

let print_rows rows =
  Table.print
    ~title:"query fast path: sort-on-fetch baseline vs. incremental index"
    ~header:
      [ "workload"; "plan"; "inserts"; "queries"; "ns/query"; "cmp/query";
        "minorw/q"; "majorw/q"; "repairs" ]
    ~align:
      [ Table.Left; Table.Left; Table.Right; Table.Right; Table.Right;
        Table.Right; Table.Right; Table.Right; Table.Right ]
    (List.map
       (fun r ->
         [ r.workload; r.plan; string_of_int r.n; string_of_int r.queries;
           Printf.sprintf "%.0f" r.ns_per_op;
           Printf.sprintf "%.0f" r.comparisons_per_query;
           Printf.sprintf "%.1f" r.minor_words_per_query;
           Printf.sprintf "%.1f" r.major_words_per_query;
           string_of_int r.index_repairs ])
       rows)

let record_row r =
  let open Bench_record in
  row
    ~case:
      [ ("workload", str r.workload); ("plan", str r.plan); ("n", int r.n);
        ("queries", int r.queries) ]
    ~metrics:
      [ ("ns_per_op", num r.ns_per_op);
        ("comparisons", num r.comparisons_per_query);
        ("minor_words", num r.minor_words_per_query);
        ("major_words", num r.major_words_per_query);
        ("index_repairs", int r.index_repairs);
        ("full_rebuilds", int r.full_rebuilds) ]

let speedup_check ~n rows =
  (* The headline acceptance: on every workload the indexed plan does at
     least 3x fewer comparisons per query than the baseline.  The gap is
     asymptotic (sort-on-fetch pays n log n, repair pays the changed
     batch), so the hard threshold applies at the full workload size;
     small smoke runs still assert the indexed plan is no worse. *)
  let threshold = if n >= 10_000 then 3.0 else 1.0 in
  List.iter
    (fun pattern ->
      let w = Driver.pattern_name pattern in
      let find plan =
        List.find
          (fun r ->
            String.equal r.workload w && String.equal r.plan (plan_name plan))
          rows
      in
      let b = find Baseline and i = find Indexed in
      let ratio = b.comparisons_per_query /. Float.max 1.0 i.comparisons_per_query in
      Printf.printf "%-8s baseline/indexed comparisons: %.1fx\n" w ratio;
      if ratio < threshold then
        failwith
          (Printf.sprintf "exp_query: %s comparison ratio %.2f < %.1f" w
             ratio threshold))
    Driver.all_patterns

let () =
  let n = ref 10_000 and queries = ref 1_000 and json = ref "" in
  let rec parse = function
    | [] -> ()
    | "--n" :: v :: rest ->
      n := int_of_string v;
      parse rest
    | "--queries" :: v :: rest ->
      queries := int_of_string v;
      parse rest
    | "--json" :: v :: rest ->
      json := v;
      parse rest
    | arg :: _ -> failwith ("exp_query: unknown argument " ^ arg)
  in
  parse (List.tl (Array.to_list Sys.argv));
  let rows =
    List.concat_map
      (fun pattern -> run_pattern ~n:!n ~queries:!queries pattern)
      Driver.all_patterns
  in
  print_rows rows;
  speedup_check ~n:!n rows;
  Bench_record.write ~bench:"query" !json (List.map record_row rows);
