(* Counters, statistics and the table printer. *)

module Counters = Ltree_metrics.Counters
module Stats = Ltree_metrics.Stats
module Table = Ltree_metrics.Table

let case = Alcotest.test_case

let stats_of xs =
  let s = Stats.create () in
  List.iter (Stats.add s) xs;
  s

let counters_basics () =
  let c = Counters.create () in
  Counters.add_relabel c 3;
  Counters.add_node_access c 2;
  Counters.add_split c 1;
  Alcotest.(check int) "relabels" 3 (Counters.relabels c);
  Alcotest.(check int) "maintenance" 5 (Counters.total_maintenance c);
  let snap = Counters.copy c in
  Counters.add_relabel c 4;
  Alcotest.(check int) "copy is independent" 3 (Counters.relabels snap);
  let d = Counters.diff c snap in
  Alcotest.(check int) "diff" 4 (Counters.relabels d);
  Counters.reset c;
  Alcotest.(check int) "reset" 0 (Counters.total_maintenance c)

let stats_moments () =
  let s = stats_of [ 1.; 2.; 3.; 4.; 5. ] in
  Alcotest.(check int) "count" 5 (Stats.count s);
  Alcotest.(check (float 1e-9)) "mean" 3. (Stats.mean s);
  Alcotest.(check (float 1e-9)) "min" 1. (Stats.percentile s 0.);
  Alcotest.(check (float 1e-9)) "max" 5. (Stats.max s);
  Alcotest.(check (float 1e-9)) "sum" 15. (Stats.sum s);
  Alcotest.(check (float 1e-9)) "p50" 3. (Stats.percentile s 50.);
  Alcotest.(check (float 1e-9)) "p100" 5. (Stats.percentile s 100.);
  Alcotest.(check bool) "empty percentile rejected" true
    (try
       ignore (Stats.percentile (Stats.create ()) 50.);
       false
     with Invalid_argument _ -> true)

(* Nearest-rank percentile semantics, pinned: p = 0 is the minimum, p =
   100 the maximum, and in between the result is the smallest sample
   with at least p% of the samples at or below it. *)
let percentile_spec =
  QCheck.Test.make ~count:200 ~name:"percentile matches nearest-rank spec"
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 40) (float_range (-100.) 100.))
        (float_range 0. 100.))
    (fun (xs, p) ->
      let s = stats_of xs in
      let sorted = Array.of_list xs in
      Array.sort Float.compare sorted;
      let n = Array.length sorted in
      let expected =
        if Float.equal p 0. then sorted.(0)
        else
          let rank =
            int_of_float (ceil (p /. 100. *. float_of_int n)) - 1
          in
          sorted.(Stdlib.max 0 (Stdlib.min (n - 1) rank))
      in
      Float.equal (Stats.percentile s p) expected)

let percentile_endpoints_and_monotone =
  QCheck.Test.make ~count:200 ~name:"percentile endpoints + monotone in p"
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 40) (float_range (-100.) 100.))
        (pair (float_range 0. 100.) (float_range 0. 100.)))
    (fun (xs, (p1, p2)) ->
      let s = stats_of xs in
      let lo = Float.min p1 p2 and hi = Float.max p1 p2 in
      Float.equal (Stats.percentile s 0.) (List.fold_left Float.min infinity xs)
      && Float.equal (Stats.percentile s 100.) (Stats.max s)
      && Float.compare (Stats.percentile s lo) (Stats.percentile s hi) <= 0)

let percentile_zero_singleton () =
  (* The p = 0 regression pinned directly: before the fix, ceil rounding
     sent p = 0 to rank -1 (clamped to 0 only by accident of layout). *)
  let s = stats_of [ 5.; 1.; 9. ] in
  Alcotest.(check (float 0.)) "p0 is min" 1. (Stats.percentile s 0.);
  Alcotest.(check (float 0.)) "p eps stays smallest" 1.
    (Stats.percentile s 0.001);
  Alcotest.(check (float 0.)) "p100 is max" 9. (Stats.percentile s 100.)

let counters_assoc_and_pp () =
  let c = Counters.create () in
  Counters.add_relabel c 2;
  Counters.add_split c 1;
  let assoc = Counters.to_assoc c in
  Alcotest.(check bool) "relabels in assoc" true
    (List.exists
       (fun (k, v) -> String.equal k "relabels" && v = 2)
       assoc);
  Alcotest.(check bool) "every field named" true
    (List.for_all (fun (k, _) -> String.length k > 0) assoc);
  let printed = Format.asprintf "%a" Counters.pp c in
  (* pp derives from to_assoc: every field appears as name=value. *)
  List.iter
    (fun (k, v) ->
      let frag = Printf.sprintf "%s=%d" k v in
      let contains hay needle =
        let n = String.length needle and h = String.length hay in
        let rec go i =
          i + n <= h && (String.equal (String.sub hay i n) needle || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool) ("pp shows " ^ k) true (contains printed frag))
    assoc

let table_render () =
  Alcotest.(check bool) "arity checked" true
    (try
       Table.print ~title:"x" ~header:[ "a" ] [ [ "1"; "2" ] ];
       false
     with Invalid_argument _ -> true);
  Alcotest.(check string) "ffloat" "3.14" (Table.ffloat ~decimals:2 3.14159);
  Alcotest.(check string) "fratio" "2.00" (Table.fratio 4. 2.);
  Alcotest.(check string) "fratio zero" "-" (Table.fratio 4. 0.)

let suite =
  ( "metrics",
    [ case "counters" `Quick counters_basics;
      case "counters to_assoc + pp" `Quick counters_assoc_and_pp;
      case "stats moments" `Quick stats_moments;
      case "percentile p=0" `Quick percentile_zero_singleton;
      case "table arity and cell formatting" `Quick table_render;
      QCheck_alcotest.to_alcotest percentile_spec;
      QCheck_alcotest.to_alcotest percentile_endpoints_and_monotone ] )
