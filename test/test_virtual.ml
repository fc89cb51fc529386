(* The virtual L-Tree (§4.2): bit-exact equivalence with the materialized
   one over arbitrary operation sequences, plus its own invariants. *)

open Ltree_core
module Prng = Ltree_workload.Prng

let case = Alcotest.test_case

let fig2_states () =
  let t, handles = Virtual_ltree.bulk_load ~params:Params.fig2 8 in
  Alcotest.(check (list int)) "bulk labels"
    [ 0; 1; 3; 4; 9; 10; 12; 13 ]
    (Array.to_list (Virtual_ltree.labels t));
  let d = Virtual_ltree.insert_before t handles.(2) in
  Alcotest.(check (list int)) "after D"
    [ 0; 1; 3; 4; 5; 9; 10; 12; 13 ]
    (Array.to_list (Virtual_ltree.labels t));
  Alcotest.(check int) "D = 3" 3 (Virtual_ltree.label t d);
  let d_end = Virtual_ltree.insert_after t d in
  Alcotest.(check (list int)) "after /D (split)"
    [ 0; 1; 3; 4; 6; 7; 9; 10; 12; 13 ]
    (Array.to_list (Virtual_ltree.labels t));
  Alcotest.(check int) "/D = 4" 4 (Virtual_ltree.label t d_end);
  Virtual_ltree.check t

let empty_growth () =
  let t = Virtual_ltree.create ~params:Params.fig2 () in
  let a = Virtual_ltree.insert_first t in
  Alcotest.(check int) "first label" 0 (Virtual_ltree.label t a);
  let h = ref a in
  for _ = 1 to 200 do
    h := Virtual_ltree.insert_after t !h
  done;
  Virtual_ltree.check t;
  Alcotest.(check int) "201 slots" 201 (Virtual_ltree.length t)

let delete_tombstones () =
  let t, handles = Virtual_ltree.bulk_load ~params:Params.fig2 16 in
  let before = Virtual_ltree.labels t in
  Virtual_ltree.delete t handles.(3);
  Virtual_ltree.delete t handles.(3);
  Alcotest.(check int) "slots stay" 16 (Virtual_ltree.length t);
  Alcotest.(check (array int)) "no relabeling" before (Virtual_ltree.labels t);
  Virtual_ltree.check t

(* The central §4.2 claim: the virtual structure reproduces the
   materialized labels exactly, operation by operation. *)
let equivalence_prop =
  let arb =
    QCheck.make
      ~print:(fun (n0, seed, f, s) ->
        Printf.sprintf "n0=%d seed=%d f=%d s=%d" n0 seed f s)
      QCheck.Gen.(
        map
          (fun (n0, seed, m, s) -> (n0, seed, m * s, s))
          (quad (int_bound 30) (int_bound 10000) (int_range 2 4)
             (int_range 2 3)))
  in
  QCheck.Test.make ~count:60 ~name:"virtual == materialized labels" arb
    (fun (n0, seed, f, s) ->
      let params = Params.make ~f ~s in
      let prng = Prng.create seed in
      let mt, ml = Ltree.bulk_load ~params n0 in
      let vt, vl = Virtual_ltree.bulk_load ~params n0 in
      let mh = ref (Array.to_list ml) and vh = ref (Array.to_list vl) in
      for _ = 1 to 150 do
        (match (!mh, !vh) with
         | [], [] ->
           mh := [ Ltree.insert_first mt ];
           vh := [ Virtual_ltree.insert_first vt ]
         | _ ->
           let i = Prng.int prng (List.length !mh) in
           let m = List.nth !mh i and v = List.nth !vh i in
           (match Prng.int prng 5 with
            | 0 ->
              mh := Ltree.insert_before mt m :: !mh;
              vh := Virtual_ltree.insert_before vt v :: !vh
            | 1 ->
              (* §4.1 batches must stay bit-identical too. *)
              let k = 1 + Prng.int prng 12 in
              mh := Array.to_list (Ltree.insert_batch_after mt m k) @ !mh;
              vh :=
                Array.to_list (Virtual_ltree.insert_batch_after vt v k) @ !vh
            | _ ->
              mh := Ltree.insert_after mt m :: !mh;
              vh := Virtual_ltree.insert_after vt v :: !vh));
        if Ltree.labels mt <> Virtual_ltree.labels vt then
          QCheck.Test.fail_reportf "label sequences diverged"
      done;
      Ltree.check mt;
      Virtual_ltree.check vt;
      true)

(* The virtual variant stores no internal nodes; the materialized one
   does.  Both must agree on the label bit width. *)
let space_and_bits () =
  let params = Params.make ~f:8 ~s:2 in
  let mt, ml = Ltree.bulk_load ~params 1000 in
  let vt, _ = Virtual_ltree.bulk_load ~params 1000 in
  Alcotest.(check (array int)) "same labels" (Ltree.labels mt)
    (Virtual_ltree.labels vt);
  Alcotest.(check int) "same bits" (Ltree.bits_per_label mt)
    (Virtual_ltree.bits_per_label vt);
  Alcotest.(check bool) "materialized has internal nodes" true
    (Ltree.internal_node_count mt > 0);
  ignore ml

(* Document order through handles: the virtual tree orders any two
   handles exactly as the materialized one orders their twins. *)
let compare_matches_materialized () =
  let params = Params.fig2 in
  let mt, ml = Ltree.bulk_load ~params 12 in
  let vt, vl = Virtual_ltree.bulk_load ~params 12 in
  let prng = Prng.create 9 in
  let pairs = ref (Array.to_list (Array.map2 (fun m v -> (m, v)) ml vl)) in
  for _ = 1 to 150 do
    let m, v = List.nth !pairs (Prng.int prng (List.length !pairs)) in
    let fresh =
      if Prng.bool prng then
        (Ltree.insert_after mt m, Virtual_ltree.insert_after vt v)
      else (Ltree.insert_before mt m, Virtual_ltree.insert_before vt v)
    in
    pairs := fresh :: !pairs
  done;
  let sign x = if x < 0 then -1 else if x > 0 then 1 else 0 in
  let arr = Array.of_list !pairs in
  for _ = 1 to 500 do
    let ma, va = arr.(Prng.int prng (Array.length arr))
    and mb, vb = arr.(Prng.int prng (Array.length arr)) in
    Alcotest.(check int) "same order as the materialized tree"
      (sign (Ltree.compare mt ma mb))
      (sign (Virtual_ltree.compare vt va vb))
  done

let handle_stability () =
  let t, handles = Virtual_ltree.bulk_load ~params:Params.fig2 32 in
  let a = handles.(10) and b = handles.(11) in
  for _ = 1 to 300 do
    ignore (Virtual_ltree.insert_after t handles.(10))
  done;
  Virtual_ltree.check t;
  Alcotest.(check bool) "order survives splits" true
    (Virtual_ltree.label t a < Virtual_ltree.label t b)

let batch_basics () =
  (* A batch after an anchor lands contiguously in order. *)
  let t3, handles = Virtual_ltree.bulk_load ~params:Params.fig2 16 in
  let fresh = Virtual_ltree.insert_batch_after t3 handles.(7) 20 in
  Virtual_ltree.check t3;
  let prev = ref (Virtual_ltree.label t3 handles.(7)) in
  Array.iter
    (fun h ->
      let v = Virtual_ltree.label t3 h in
      Alcotest.(check bool) "ordered batch" true (v > !prev);
      prev := v)
    fresh;
  Alcotest.(check bool) "before old successor" true
    (!prev < Virtual_ltree.label t3 handles.(8))

let suite =
  ( "virtual_ltree",
    [ case "figure 2 states" `Quick fig2_states;
      case "growth from empty" `Quick empty_growth;
      case "tombstone deletes" `Quick delete_tombstones;
      case "space and bits vs materialized" `Quick space_and_bits;
      case "handle stability" `Quick handle_stability;
      case "compare matches the materialized tree" `Quick
        compare_matches_materialized;
      case "batch insertion basics" `Quick batch_basics;
      QCheck_alcotest.to_alcotest equivalence_prop ] )
