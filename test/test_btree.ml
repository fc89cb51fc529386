(* Counted B+-tree: unit tests plus model-based property tests against a
   sorted association list / Stdlib.Map reference. *)

module B = Ltree_btree.Counted_btree
module IntMap = Map.Make (Int)

let case = Alcotest.test_case

(* Removing one key is an empty [replace_range] over it. *)
let remove t k = B.replace_range t ~lo:k ~hi:k []

let to_list t =
  let acc = ref [] in
  B.iter t (fun k v -> acc := (k, v) :: !acc);
  List.rev !acc

let basic () =
  let t = B.create ~order:4 () in
  Alcotest.(check int) "empty" 0 (B.length t);
  for i = 0 to 99 do
    B.add t (i * 3) (i * 10)
  done;
  B.check t;
  Alcotest.(check int) "length" 100 (B.length t);
  Alcotest.(check (option int)) "find 30" (Some 100) (B.find t 30);
  Alcotest.(check (option int)) "find 31" None (B.find t 31);
  B.add t 30 7;
  Alcotest.(check (option int)) "replace" (Some 7) (B.find t 30);
  Alcotest.(check int) "length unchanged by replace" 100 (B.length t)

let removal () =
  let t = B.create ~order:4 () in
  for i = 0 to 199 do
    B.add t i i
  done;
  for i = 0 to 199 do
    if i mod 2 = 0 then remove t i;
    B.check t
  done;
  Alcotest.(check int) "half left" 100 (B.length t);
  Alcotest.(check (option int)) "odd stays" (Some 7) (B.find t 7);
  Alcotest.(check (option int)) "even gone" None (B.find t 8);
  for i = 0 to 199 do
    remove t i
  done;
  B.check t;
  Alcotest.(check int) "emptied" 0 (B.length t);
  Alcotest.(check bool) "no min" true (B.min_binding t = None)

let order_stats () =
  let t = B.create ~order:6 () in
  List.iter (fun k -> B.add t k (k * 2)) [ 5; 1; 9; 3; 7; 11; 13 ];
  B.check t;
  Alcotest.(check int) "rank 0" 0 (B.rank t 0);
  Alcotest.(check int) "rank 1" 0 (B.rank t 1);
  Alcotest.(check int) "rank 2" 1 (B.rank t 2);
  Alcotest.(check int) "rank 100" 7 (B.rank t 100);
  Alcotest.(check (option (pair int int))) "min" (Some (1, 2))
    (B.min_binding t);
  Alcotest.(check (option (pair int int))) "max" (Some (13, 26))
    (B.max_binding t);
  Alcotest.(check int) "count [3,9]" 4 (B.count_range t ~lo:3 ~hi:9);
  Alcotest.(check int) "count empty range" 0 (B.count_range t ~lo:9 ~hi:3);
  Alcotest.(check int) "count [4,4]" 0 (B.count_range t ~lo:4 ~hi:4)

let neighbours () =
  let t = B.create () in
  List.iter (fun k -> B.add t k ()) [ 10; 20; 30 ];
  let key = function Some (k, ()) -> Some k | None -> None in
  Alcotest.(check (option int)) "min" (Some 10) (key (B.min_binding t));
  Alcotest.(check (option int)) "max" (Some 30) (key (B.max_binding t))

let iter_range () =
  let t = B.create ~order:4 () in
  for i = 0 to 50 do
    B.add t (i * 2) i
  done;
  let seen = ref [] in
  B.iter_range t ~lo:10 ~hi:20 (fun k _ -> seen := k :: !seen);
  Alcotest.(check (list int)) "range keys" [ 10; 12; 14; 16; 18; 20 ]
    (List.rev !seen)

let replace_range () =
  let t = B.create ~order:4 () in
  for i = 0 to 9 do
    B.add t (i * 10) i
  done;
  B.replace_range t ~lo:20 ~hi:50 [ (21, 100); (22, 101); (23, 102) ];
  B.check t;
  Alcotest.(check int) "new size" 9 (B.length t);
  Alcotest.(check (option int)) "old gone" None (B.find t 30);
  Alcotest.(check (option int)) "new there" (Some 101) (B.find t 22);
  Alcotest.(check bool) "unsorted rejected" true
    (try
       B.replace_range t ~lo:0 ~hi:5 [ (3, 0); (1, 0) ];
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "out-of-interval rejected" true
    (try
       B.replace_range t ~lo:0 ~hi:5 [ (9, 0) ];
       false
     with Invalid_argument _ -> true)

let bad_order () =
  Alcotest.(check bool) "order >= 4 enforced" true
    (try
       ignore (B.create ~order:3 ());
       false
     with Invalid_argument _ -> true)

(* Model-based random testing. *)

type op = Add of int * int | Remove of int

let op_gen =
  let open QCheck.Gen in
  frequency
    [ (4, map2 (fun k v -> Add (k, v)) (int_bound 400) (int_bound 10000));
      (1, map (fun k -> Remove k) (int_bound 400)) ]

let ops_arbitrary =
  QCheck.make
    ~print:(fun ops ->
      String.concat ";"
        (List.map
           (function
             | Add (k, v) -> Printf.sprintf "A(%d,%d)" k v
             | Remove k -> Printf.sprintf "R%d" k)
           ops))
    QCheck.Gen.(list_size (int_range 1 400) op_gen)

let model_prop order ops =
  let t = B.create ~order () in
  let model = ref IntMap.empty in
  List.iter
    (fun op ->
      (match op with
       | Add (k, v) ->
         B.add t k v;
         model := IntMap.add k v !model
       | Remove k ->
         remove t k;
         model := IntMap.remove k !model);
      B.check t)
    ops;
  let expected = IntMap.bindings !model in
  if to_list t <> expected then false
  else begin
    (* Order statistics against the model. *)
    let keys = Array.of_list (List.map fst expected) in
    let ok_rank =
      Array.to_list keys
      |> List.for_all (fun k ->
             let expected_rank =
               Array.fold_left (fun acc x -> if x < k then acc + 1 else acc) 0 keys
             in
             B.rank t k = expected_rank)
    in
    let ok_extremes =
      let n = Array.length keys in
      Option.map fst (B.min_binding t)
      = (if n = 0 then None else Some keys.(0))
      && Option.map fst (B.max_binding t)
         = if n = 0 then None else Some keys.(n - 1)
    in
    let ok_count =
      List.for_all
        (fun (lo, hi) ->
          let expected =
            Array.fold_left
              (fun acc x -> if x >= lo && x <= hi then acc + 1 else acc)
              0 keys
          in
          B.count_range t ~lo ~hi = expected)
        [ (0, 100); (50, 60); (200, 400); (100, 50) ]
    in
    ok_rank && ok_extremes && ok_count
  end

let prop_model_small =
  QCheck.Test.make ~count:150 ~name:"btree matches Map model (order 4)"
    ops_arbitrary (model_prop 4)

let prop_model_big =
  QCheck.Test.make ~count:100 ~name:"btree matches Map model (order 16)"
    ops_arbitrary (model_prop 16)

let boundary_ops () =
  let t = B.create ~order:4 () in
  (* Operations on the empty tree. *)
  Alcotest.(check int) "rank on empty" 0 (B.rank t 5);
  Alcotest.(check int) "count on empty" 0 (B.count_range t ~lo:0 ~hi:100);
  Alcotest.(check (option int)) "find on empty" None (B.find t 1);
  remove t 1;
  B.check t;
  (* replace_range spanning everything. *)
  for i = 0 to 30 do
    B.add t i i
  done;
  B.replace_range t ~lo:min_int ~hi:max_int [ (5, 50); (7, 70) ];
  B.check t;
  Alcotest.(check int) "shrunk to two" 2 (B.length t);
  Alcotest.(check (option int)) "new binding" (Some 70) (B.find t 7);
  (* iter_range boundaries exactly on keys. *)
  let seen = ref [] in
  B.iter_range t ~lo:5 ~hi:7 (fun k _ -> seen := k :: !seen);
  Alcotest.(check (list int)) "inclusive bounds" [ 5; 7 ] (List.rev !seen);
  (* min_int / max_int keys round trip. *)
  B.add t min_int 0;
  B.add t max_int 1;
  B.check t;
  Alcotest.(check int) "extremes stored" 4 (B.length t);
  Alcotest.(check int) "count over the full key space" 4
    (B.count_range t ~lo:min_int ~hi:max_int);
  Alcotest.(check int) "count up to max_int" 4
    (B.count_range t ~lo:min_int ~hi:max_int)

let sequential_stress () =
  let t = B.create ~order:8 () in
  for i = 0 to 9999 do
    B.add t i i
  done;
  B.check t;
  Alcotest.(check int) "10k" 10000 (B.length t);
  Alcotest.(check int) "rank mid" 5000 (B.rank t 5000);
  for i = 0 to 9999 do
    if i mod 3 <> 0 then remove t i
  done;
  B.check t;
  Alcotest.(check int) "third left" 3334 (B.length t)

let suite =
  ( "counted_btree",
    [ case "basic add/find/replace" `Quick basic;
      case "removal with rebalancing" `Quick removal;
      case "rank/select/count_range" `Quick order_stats;
      case "min/max" `Quick neighbours;
      case "iter_range" `Quick iter_range;
      case "replace_range" `Quick replace_range;
      case "order validation" `Quick bad_order;
      case "boundary operations" `Quick boundary_ops;
      case "sequential stress 10k" `Quick sequential_stress;
      QCheck_alcotest.to_alcotest prop_model_small;
      QCheck_alcotest.to_alcotest prop_model_big ] )
