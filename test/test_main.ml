(* Aggregated test entry point: `dune runtest`. *)

let scheme_suites =
  [ Test_scheme_generic.suite (module Ltree_labeling.Sequential);
    Test_scheme_generic.suite (module Ltree_labeling.Gap);
    Test_scheme_generic.suite (module Ltree_labeling.Gap_local);
    Test_scheme_generic.suite (module Ltree_labeling.List_label);
    Test_scheme_generic.suite (module Ltree_core.Scheme_adapter.Default);
    Test_scheme_generic.suite
      (module Ltree_core.Scheme_adapter.Default_virtual);
    (* Non-default parameterizations. *)
    Test_scheme_generic.suite
      (module Ltree_core.Scheme_adapter.Make (struct
        let params = Ltree_core.Params.make ~f:9 ~s:3
      end));
    Test_scheme_generic.suite
      (module Ltree_labeling.Gap.Make (struct
        let gap = 4
      end));
    Test_scheme_generic.suite
      (module Ltree_labeling.List_label.Make (struct
        let bits = 16
        let tau = 0.7
      end)) ]

let () =
  Alcotest.run "ltree"
    ([ Test_metrics.suite;
       Test_obs.suite;
       Test_btree.suite;
       Test_ltree.suite;
       Test_virtual.suite;
       Test_analysis.suite;
       Test_invariant.suite;
       Test_analyze.lint_suite;
       Test_analyze.suite;
       Test_bitstring.suite;
       Test_xml.suite;
       Test_doc.suite;
       Test_snapshot.suite;
       Test_journal.suite;
       Test_rrc.suite;
       Test_xpath.suite;
       Test_relstore.suite;
       Test_label_sync.suite;
       Test_dirty.suite;
       Test_recovery.suite;
       Test_workload.suite;
       Test_exec.suite;
       Test_columnar.suite;
       Test_replication.suite;
       Test_shard.suite;
       Test_matrix.suite ]
    @ scheme_suites)
