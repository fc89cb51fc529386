(* The unified invariant registry, the counterexample format and the
   operation-log minimizer (lib/analysis/invariant.ml). *)

open Ltree_analysis
open Ltree_core

let case = Alcotest.test_case

let registry_basics () =
  let reg = Invariant.create () in
  Alcotest.(check int) "empty" 0 (Invariant.size reg);
  let cheap_runs = ref 0 and deep_runs = ref 0 in
  Invariant.register reg ~name:"cheap.ok" ~depth:Invariant.Cheap (fun () ->
      incr cheap_runs);
  Invariant.register reg ~name:"deep.ok" ~depth:Invariant.Deep (fun () ->
      incr deep_runs);
  Alcotest.(check (list string))
    "names in registration order"
    [ "cheap.ok"; "deep.ok" ] (Invariant.names reg);
  Alcotest.(check int) "size" 2 (Invariant.size reg);
  Alcotest.(check int) "no failures" 0
    (List.length (Invariant.run_all reg));
  Alcotest.(check int) "cheap ran" 1 !cheap_runs;
  Alcotest.(check int) "deep ran" 1 !deep_runs;
  ignore (Invariant.run_all ~depth:Invariant.Cheap reg);
  Alcotest.(check int) "cheap ran again" 2 !cheap_runs;
  Alcotest.(check int) "deep skipped at Cheap" 1 !deep_runs;
  match Invariant.register reg ~name:"cheap.ok" ~depth:Invariant.Cheap (fun () -> ()) with
  | () -> Alcotest.fail "duplicate registration accepted"
  | exception Invalid_argument _ -> ()

let failures_collected () =
  let reg = Invariant.create () in
  Invariant.register reg ~name:"window" ~depth:Invariant.Cheap (fun () ->
      Invariant.fail ~name:"window" "leaf %d outside occupancy window" 7);
  Invariant.register reg ~name:"assertion" ~depth:Invariant.Deep (fun () ->
      failwith "boom");
  Invariant.register reg ~name:"fine" ~depth:Invariant.Cheap (fun () -> ());
  match Invariant.run_all reg with
  | [ a; b ] ->
    Alcotest.(check string) "violation name" "window" a.Invariant.name;
    Alcotest.(check string)
      "formatted detail" "leaf 7 outside occupancy window"
      a.Invariant.detail;
    Alcotest.(check string) "failure name" "assertion" b.Invariant.name;
    Alcotest.(check string) "failure detail" "boom" b.Invariant.detail
  | fs -> Alcotest.failf "expected 2 failures, got %d" (List.length fs)

let sample =
  {
    Invariant.Counterexample.f = 8;
    s = 2;
    seed = 42;
    failing = "twin.parity";
    detail = "labels diverge at pos 3\nmaterialized=10 virtual=12";
    ops =
      [
        "insert_after 3";
        "delete 1";
        "weird \"quoted\" op\twith a tab";
        "";
      ];
    labels = [| 2; 4; 8; 16 |];
  }

let counterexample_roundtrip () =
  let s = Invariant.Counterexample.to_string sample in
  let c = Invariant.Counterexample.of_string s in
  Alcotest.(check bool) "of_string (to_string c) = c" true
    (Invariant.Counterexample.equal sample c);
  Alcotest.(check string) "re-rendering is stable" s
    (Invariant.Counterexample.to_string c)

let counterexample_rejects_garbage () =
  List.iter
    (fun s ->
      match Invariant.Counterexample.of_string s with
      | _ -> Alcotest.failf "accepted %S" s
      | exception Invariant.Violation { name; _ } ->
        Alcotest.(check string) "error name" "counterexample.parse" name)
    [
      "";
      "nonsense";
      "ltree-counterexample 99\nparams 8 2\nseed 0\nfailing x\ndetail y\n\
       labels 0\nops 0\n";
      Invariant.Counterexample.to_string sample ^ "trailing garbage\n";
    ]

(* [minimize] run to completion: the shrunk log, after checking that
   the budget did not cut the shrink short. *)
let finished ~fails ops =
  let r = Invariant.minimize ~fails ops in
  Alcotest.(check bool) "finished before the budget" false
    r.Invariant.at_budget;
  r.Invariant.log

let minimize_to_culprit () =
  let ops = List.init 100 (fun i -> i) in
  let fails l = List.exists (fun x -> Int.equal x 42) l in
  Alcotest.(check (list int)) "exactly the culprit op" [ 42 ]
    (finished ~fails ops);
  (* A culprit buried deep in a log much longer than [max_greedy] is
     still isolated, via the chunk sweep. *)
  let ops = List.init 1000 (fun i -> i) in
  let fails l = List.exists (fun x -> Int.equal x 777) l in
  Alcotest.(check (list int)) "deep culprit isolated" [ 777 ]
    (finished ~fails ops)

let minimize_keeps_dependent_ops () =
  let ops = List.init 64 (fun i -> i) in
  let fails l =
    List.exists (fun x -> Int.equal x 10) l
    && List.exists (fun x -> Int.equal x 42) l
  in
  Alcotest.(check (list int)) "both ops kept, order preserved" [ 10; 42 ]
    (finished ~fails ops)

let minimize_incompressible_log () =
  (* When no op can be dropped (failure needs >= 30 ops), the chunk
     sweep and the greedy pass remove nothing and the minimal failing
     prefix survives. *)
  let ops = List.init 40 (fun i -> i) in
  let fails l = List.length l >= 30 in
  Alcotest.(check int) "minimal failing prefix" 30
    (List.length (finished ~fails ops));
  (* With 150 ops needed, the sweeps down to pairs alone would replay
     about 146 candidates, so the budget ends the shrink; the prefix
     search ran first, so the dump is still the minimal prefix. *)
  let ops = List.init 200 (fun i -> i) in
  let fails l = List.length l >= 150 in
  let r = Invariant.minimize ~fails ops in
  Alcotest.(check bool) "stopped at the budget" true r.Invariant.at_budget;
  Alcotest.(check int) "minimal failing prefix" 150
    (List.length r.Invariant.log)

(* [fails] counting its calls, so a test can hold [minimize] to
   [Invariant.shrink_budget]. *)
let counted fails =
  let calls = ref 0 in
  ((fun l -> incr calls; fails l), calls)

let minimize_within_budget () =
  (* Two ops 3,883 apart in a 4,000-op log: the shrink finds exactly
     that pair, well inside the budget. *)
  let ops = List.init 4000 (fun i -> i) in
  let fails, calls =
    counted (fun l ->
        List.exists (fun x -> Int.equal x 17) l
        && List.exists (fun x -> Int.equal x 3900) l)
  in
  Alcotest.(check (list int)) "exactly the two ops" [ 17; 3900 ]
    (finished ~fails ops);
  Alcotest.(check bool) "within the budget" true
    (!calls <= Invariant.shrink_budget)

let minimize_stops_at_budget () =
  (* Failure needs 3,000 of 4,000 ops, so the pair sweep alone would
     replay ~1,500 candidates: the shrink stops at the budget and hands
     back the smallest failing log it has. *)
  let ops = List.init 4000 (fun i -> i) in
  let fails, calls = counted (fun l -> List.length l >= 3000) in
  let r = Invariant.minimize ~fails ops in
  Alcotest.(check bool) "stopped at the budget" true r.Invariant.at_budget;
  Alcotest.(check int) "every call charged" Invariant.shrink_budget !calls;
  Alcotest.(check int) "smallest failing log found" 3000
    (List.length r.Invariant.log)

let minimize_requires_failing_log () =
  match Invariant.minimize ~fails:(fun _ -> false) [ 1; 2; 3 ] with
  | _ -> Alcotest.fail "accepted a passing log"
  | exception Invalid_argument _ -> ()

(* Satellite: [Ltree.of_labels] rejections are routed through
   [Invariant.Violation], so a harness can turn any rejection into a
   counterexample dump that round-trips. *)
let of_labels_rejections_roundtrip () =
  let params = Params.fig2 in
  List.iter
    (fun (what, height, labels) ->
      match Ltree.of_labels ~params ~height labels with
      | _ -> Alcotest.failf "%s accepted" what
      | exception Invariant.Violation { name; detail } ->
        Alcotest.(check string) (what ^ ": error name") "ltree.of_labels"
          name;
        let c =
          {
            Invariant.Counterexample.f = params.Params.f;
            s = params.Params.s;
            seed = 0;
            failing = name;
            detail;
            ops = [ Printf.sprintf "of_labels %s height=%d" what height ];
            labels;
          }
        in
        let c' =
          Invariant.Counterexample.of_string
            (Invariant.Counterexample.to_string c)
        in
        Alcotest.(check bool)
          (what ^ ": dump round-trips") true
          (Invariant.Counterexample.equal c c'))
    [
      ("unsorted", 3, [| 3; 1 |]);
      ("out of range", 3, [| 0; 27 |]);
      ("negative", 3, [| -1 |]);
      ("non-contiguous children", 1, [| 0; 2 |]);
      ("under-occupied", 2, [| 0; 1; 3 |]);
      ("taller than an int holds", 200, [| 0 |]);
    ]

let suite =
  ( "invariant",
    [
      case "registry basics" `Quick registry_basics;
      case "failures collected in order" `Quick failures_collected;
      case "counterexample round-trip" `Quick counterexample_roundtrip;
      case "counterexample rejects garbage" `Quick
        counterexample_rejects_garbage;
      case "minimize finds the culprit" `Quick minimize_to_culprit;
      case "minimize keeps dependent ops" `Quick minimize_keeps_dependent_ops;
      case "minimize incompressible logs" `Quick
        minimize_incompressible_log;
      case "minimize: 4,000-op log within the budget" `Quick
        minimize_within_budget;
      case "minimize stops at the budget" `Quick minimize_stops_at_budget;
      case "minimize requires a failing log" `Quick
        minimize_requires_failing_log;
      case "of_labels rejections round-trip" `Quick
        of_labels_rejections_roundtrip;
    ] )
