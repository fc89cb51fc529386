(* Benchmark harness entry point.

   Running `dune exec bench/main.exe` prints, in order:
   - the experiment tables E1-E9 (one per figure/analytical claim of the
     paper; see DESIGN.md's experiment index), measured in the paper's
     cost units (relabelings, node accesses, page reads), and
   - a Bechamel wall-clock suite with one Test.make per experiment, for
     absolute throughput on the host machine.

   `--tables` / `--bechamel` select one half; `--help` lists options. *)

open Bechamel
open Toolkit
open Ltree_core
module Prng = Ltree_workload.Prng
module Driver = Ltree_workload.Driver

let tables () =
  Exp_figures.fig1 ();
  Exp_figures.fig2 ();
  Exp_cost.run ();
  Exp_cost.growth ();
  Exp_cost.bursts ();
  Exp_bits.run ();
  Exp_tuning.run ();
  Exp_batch.run ();
  Exp_virtual.run ();
  Exp_rdbms.run ();
  Exp_baselines.run ();
  Exp_design_space.run ();
  Exp_rrc.run ();
  Exp_maintenance.compaction ();
  Exp_maintenance.restart ();
  Exp_sync.run ()

(* One wall-clock micro-benchmark per experiment.  Each allocates its
   fixture up front and times the hot operation. *)

let bench_insert_uniform params n =
  Staged.stage (fun () ->
      let t, leaves = Ltree.bulk_load ~params n in
      let prng = Prng.create 1 in
      for _ = 1 to 500 do
        ignore (Ltree.insert_after t (Prng.pick prng leaves))
      done)

let bench_virtual_insert params n =
  Staged.stage (fun () ->
      let t, handles = Virtual_ltree.bulk_load ~params n in
      let prng = Prng.create 1 in
      for _ = 1 to 500 do
        ignore (Virtual_ltree.insert_after t (Prng.pick prng handles))
      done)

let bench_bulk_load params n =
  Staged.stage (fun () -> ignore (Ltree.bulk_load ~params n))

let bench_batch params n k =
  Staged.stage (fun () ->
      let t, leaves = Ltree.bulk_load ~params n in
      ignore (Ltree.insert_batch_after t leaves.(n / 2) k))

let bench_tuning n =
  Staged.stage (fun () -> ignore (Tuning.minimize_cost ~max_f:128 ~n ()))

let bench_xpath () =
  let doc =
    Ltree_workload.Xml_gen.generate ~seed:7
      (Ltree_workload.Xml_gen.default_profile ~target_nodes:5_000 ())
  in
  let ldoc = Ltree_doc.Labeled_doc.of_document doc in
  let engine = Ltree_xpath.Label_eval.create ldoc in
  let path = Ltree_xpath.Xpath_parser.parse "site//item/name" in
  Staged.stage (fun () -> ignore (Ltree_xpath.Label_eval.eval engine path))

let bench_baseline (module S : Ltree_labeling.Scheme.S) n =
  Staged.stage (fun () ->
      let scheme, handles = S.bulk_load n in
      let prng = Prng.create 2 in
      for _ = 1 to 500 do
        ignore (S.insert_after scheme (Prng.pick prng handles))
      done)

let bench_of_labels params n =
  let t, _ = Ltree.bulk_load ~params n in
  let labels = Ltree.labels t in
  let height = Ltree.height t in
  Staged.stage (fun () -> ignore (Ltree.of_labels ~params ~height labels))

let bench_find_by_label params n =
  let t, _ = Ltree.bulk_load ~params n in
  let labels = Ltree.labels t in
  Staged.stage (fun () ->
      let prng = Prng.create 3 in
      for _ = 1 to 1000 do
        ignore (Ltree.find_by_label t (Prng.pick prng labels))
      done)

let bench_snapshot n =
  let doc =
    Ltree_workload.Xml_gen.generate ~seed:9
      (Ltree_workload.Xml_gen.default_profile ~target_nodes:n ())
  in
  let ldoc = Ltree_doc.Labeled_doc.of_document doc in
  let snap = Ltree_doc.Snapshot.save ldoc in
  Staged.stage (fun () -> ignore (Ltree_doc.Snapshot.load snap))

let benchmarks () =
  let params = Params.fig2 in
  Test.make_grouped ~name:"ltree"
    [ Test.make ~name:"E2:bulk_load_64k" (bench_bulk_load params 65_536);
      Test.make ~name:"E11:of_labels_64k" (bench_of_labels params 65_536);
      Test.make ~name:"E11:snapshot_load_5k" (bench_snapshot 5_000);
      Test.make ~name:"4.2:find_by_label_64k_x1000"
        (bench_find_by_label params 65_536);
      Test.make ~name:"E3:insert_uniform_16k"
        (bench_insert_uniform params 16_384);
      Test.make ~name:"E4:insert_wide_f32"
        (bench_insert_uniform (Params.make ~f:32 ~s:2) 16_384);
      Test.make ~name:"E5:tuning_100k" (bench_tuning 100_000);
      Test.make ~name:"E6:batch_1024_into_64k"
        (bench_batch params 65_536 1_024);
      Test.make ~name:"E7:virtual_insert_16k"
        (bench_virtual_insert params 16_384);
      Test.make ~name:"E8:xpath_label_join_5k" (bench_xpath ());
      Test.make ~name:"E9:list_label_insert_16k"
        (bench_baseline (module Ltree_labeling.List_label) 16_384);
      Test.make ~name:"E9:gap_insert_16k"
        (bench_baseline (module Ltree_labeling.Gap) 16_384) ]

let run_bechamel () =
  print_newline ();
  Bench_util.section "Wall-clock micro-benchmarks (Bechamel)";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  let raw = Benchmark.all cfg instances (benchmarks ()) in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw) instances
  in
  let results = Analyze.merge ols instances results in
  List.iter
    (fun v -> Bechamel_notty.Unit.add v (Measure.unit v))
    Instance.[ monotonic_clock ];
  let window =
    match Notty_unix.winsize Unix.stdout with
    | Some (w, h) -> { Bechamel_notty.w; h }
    | None -> { Bechamel_notty.w = 100; h = 1 }
  in
  let img =
    Bechamel_notty.Multiple.image_of_ols_results ~rect:window
      ~predictor:Measure.run results
  in
  Notty_unix.eol img |> Notty_unix.output_image

let () =
  let args = Array.to_list Sys.argv in
  let want_tables = List.mem "--tables" args in
  let want_bechamel = List.mem "--bechamel" args in
  let both = (not want_tables) && not want_bechamel in
  if want_tables || both then tables ();
  if want_bechamel || both then run_bechamel ()
