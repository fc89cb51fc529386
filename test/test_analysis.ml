(* The §3.1 cost model and the §3.2 tuning optimizers. *)

open Ltree_core

let case = Alcotest.test_case
let approx msg expected got =
  if Float.abs (expected -. got) > 1e-9 then
    Alcotest.failf "%s: expected %f, got %f" msg expected got

let formulas () =
  let params = Params.fig2 in
  (* h = log2 n at m = 2. *)
  approx "height 1024" 10. (Analysis.height ~params ~n:1024);
  approx "height 1" 0. (Analysis.height ~params ~n:1);
  (* cost = h (1 + 2f/(s-1)) + f = 10 * 9 + 4. *)
  approx "cost 1024" 94. (Analysis.amortized_cost ~params ~n:1024);
  (* bits = h log2 3. *)
  approx "bits 1024" (10. *. (log 3. /. log 2.)) (Analysis.bits ~params ~n:1024)

let cost_monotone_in_n () =
  let params = Params.make ~f:8 ~s:2 in
  let prev = ref 0. in
  List.iter
    (fun n ->
      let c = Analysis.amortized_cost ~params ~n in
      Alcotest.(check bool) (Printf.sprintf "cost grows at n=%d" n) true
        (c >= !prev);
      prev := c)
    [ 10; 100; 1000; 10_000; 100_000 ]

let batch_h0_inverse () =
  let params = Params.fig2 in
  (* A batch of k = (s-1) m^h0 fills a height-h0 ancestor at once; at
     n = 1024 (h = 10, f = 4, s = 2) the per-leaf bound is
     14/k + 8 (10 - h0 + 1). *)
  let cost ~k = Analysis.batch_amortized_cost ~params ~n:1024 ~k in
  approx "k=1, h0=0" 102. (cost ~k:1);
  approx "k=2, h0=1" 87. (cost ~k:2);
  approx "k=4, h0=2" 75.5 (cost ~k:4);
  approx "k=16, h0=4" 56.875 (cost ~k:16)

let batch_cost_decreases () =
  let params = Params.fig2 in
  let n = 100_000 in
  let prev = ref infinity in
  List.iter
    (fun k ->
      let c = Analysis.batch_amortized_cost ~params ~n ~k in
      Alcotest.(check bool)
        (Printf.sprintf "per-leaf cost shrinks at k=%d" k)
        true (c <= !prev);
      prev := c)
    [ 1; 2; 4; 8; 16; 64; 256; 1024 ]

let query_cost_model () =
  let params = Params.fig2 in
  approx "small fits a word" 1.
    (Analysis.query_cost ~params ~n:1000 ~word_bits:64);
  let c = Analysis.query_cost ~params ~n:1_000_000 ~word_bits:8 in
  Alcotest.(check bool) "software comparison costs more" true (c > 1.)

(* Every valid (f, s) with f <= max_f: s >= 2, m >= 2, f = s * m. *)
let lattice ~max_f =
  List.concat_map
    (fun s ->
      List.filter_map
        (fun m ->
          if s * m <= max_f then Some (Params.make ~f:(s * m) ~s) else None)
        (List.init (max_f / 2) (fun i -> i + 2)))
    (List.init (max_f / 2) (fun i -> i + 2))

(* Every optimizer answers with a point of the lattice it scans, for
   every bound: the smallest (f = 4 has one point) and larger ones. *)
let lattice_valid () =
  let check_point ~max_f what (p : Params.t) =
    Alcotest.(check bool)
      (Printf.sprintf "%s at max_f=%d is a lattice point" what max_f)
      true
      (p.s >= 2 && p.m >= 2 && p.f = p.s * p.m && p.f <= max_f)
  in
  List.iter
    (fun max_f ->
      List.iter
        (fun n ->
          check_point ~max_f "minimize_cost"
            (Tuning.minimize_cost ~max_f ~n ()).params;
          (match Tuning.minimize_cost_bounded ~max_f ~n ~max_bits:64. () with
           | Some c -> check_point ~max_f "minimize_cost_bounded" c.params
           | None -> Alcotest.fail "a 64-bit budget should be feasible");
          check_point ~max_f "minimize_overall"
            (Tuning.minimize_overall ~max_f ~n ~query_weight:1.
               ~update_weight:1. ())
              .params)
        [ 10; 10_000; 1_000_000 ])
    [ 4; 6; 17; 64 ];
  Alcotest.(check bool) "max_f = 4 leaves only (4, 2)" true
    (let p = (Tuning.minimize_cost ~max_f:4 ~n:1000 ()).params in
     p.f = 4 && p.s = 2)

let optimum_beats_lattice () =
  List.iter
    (fun n ->
      let best = Tuning.minimize_cost ~max_f:128 ~n () in
      List.iter
        (fun params ->
          let c = Analysis.amortized_cost ~params ~n in
          if c < best.cost -. 1e-9 then
            Alcotest.failf "n=%d: lattice point beats optimum (%f < %f)" n c
              best.cost)
        (lattice ~max_f:128))
    [ 100; 10_000; 1_000_000 ]

let bounded_bits () =
  let n = 1_000_000 in
  (match Tuning.minimize_cost_bounded ~max_f:256 ~n ~max_bits:24. () with
   | None -> Alcotest.fail "24-bit budget should be feasible"
   | Some c ->
     Alcotest.(check bool) "fits budget" true (c.bits <= 24.);
     (* The unconstrained optimum must be at least as cheap. *)
     let free = Tuning.minimize_cost ~max_f:256 ~n () in
     Alcotest.(check bool) "constraint can only cost" true
       (free.cost <= c.cost +. 1e-9));
  Alcotest.(check bool) "1-bit budget infeasible" true
    (Tuning.minimize_cost_bounded ~max_f:64 ~n ~max_bits:1. () = None)

let overall_mix () =
  let n = 100_000 in
  (* An update-only workload reduces to cost minimization. *)
  let u = Tuning.minimize_overall ~max_f:128 ~n ~query_weight:0. ~update_weight:1. () in
  let c = Tuning.minimize_cost ~max_f:128 ~n () in
  approx "update-only = min cost" c.cost u.cost;
  (* A heavily query-weighted workload under a tiny word prefers smaller
     labels than the update optimum would pick. *)
  let q =
    Tuning.minimize_overall ~max_f:128 ~word_bits:16 ~n ~query_weight:1000.
      ~update_weight:1. ()
  in
  Alcotest.(check bool) "query pressure shrinks labels" true
    (q.bits <= c.bits +. 1e-9)

let suite =
  ( "analysis_tuning",
    [ case "closed-form formulas" `Quick formulas;
      case "cost monotone in n" `Quick cost_monotone_in_n;
      case "batch h0 inverse" `Quick batch_h0_inverse;
      case "batch cost decreases in k" `Quick batch_cost_decreases;
      case "query cost model" `Quick query_cost_model;
      case "tuning lattice validity" `Quick lattice_valid;
      case "optimum beats every lattice point" `Quick optimum_beats_lattice;
      case "bit-budget constrained tuning" `Quick bounded_bits;
      case "overall query/update mix" `Quick overall_mix ] )
