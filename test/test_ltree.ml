(* The materialized L-Tree: exact reproduction of the paper's Figure 2,
   invariant preservation under randomized workloads, the §3.1 amortized
   cost bound checked empirically, batch insertion, deletion and
   compaction. *)

open Ltree_core
module Counters = Ltree_metrics.Counters

let case = Alcotest.test_case

let labels_list t = Array.to_list (Ltree.labels t)

(* Every slot in label order, tombstones included. *)
let all_leaves t =
  let acc = ref [] in
  Ltree.iter_leaves t (fun l -> acc := l :: !acc);
  Array.of_list (List.rev !acc)

(* Figure 2(a): bulk loading 8 tags at f=4, s=2 produces the complete
   binary L-Tree with leaf numbers 0,1,3,4,9,10,12,13. *)
let fig2_bulk () =
  let t, _ = Ltree.bulk_load ~params:Params.fig2 8 in
  Ltree.check t;
  Alcotest.(check (list int)) "bulk labels"
    [ 0; 1; 3; 4; 9; 10; 12; 13 ] (labels_list t);
  Alcotest.(check int) "height" 3 (Ltree.height t)

(* Figure 2(c): inserting the begin tag "D" before the leaf numbered 3
   relabels only that leaf's right siblings: 3 -> (3,4,5). *)
let fig2_insert_d () =
  let t, leaves = Ltree.bulk_load ~params:Params.fig2 8 in
  let d = Ltree.insert_before t leaves.(2) in
  Ltree.check t;
  Alcotest.(check (list int)) "after D"
    [ 0; 1; 3; 4; 5; 9; 10; 12; 13 ] (labels_list t);
  Alcotest.(check int) "D's label" 3 (Ltree.label t d)

(* Figure 2(d): inserting "/D" right after "D" fills the height-1 node
   (4 = s * (f/s) leaves), splitting it into two complete binary trees:
   D=(3,4), C=(6,7). *)
let fig2_insert_d_end () =
  let t, leaves = Ltree.bulk_load ~params:Params.fig2 8 in
  let d = Ltree.insert_before t leaves.(2) in
  let counters = Ltree.counters t in
  let splits_before = Counters.splits counters in
  let d_end = Ltree.insert_after t d in
  Ltree.check t;
  Alcotest.(check (list int)) "after /D"
    [ 0; 1; 3; 4; 6; 7; 9; 10; 12; 13 ] (labels_list t);
  Alcotest.(check int) "/D's label" 4 (Ltree.label t d_end);
  Alcotest.(check int) "exactly one split" (splits_before + 1)
    (Counters.splits counters);
  (* The XML node labels of Figure 2(d): D=(3,4), C=(6,7). *)
  Alcotest.(check int) "C begin" 6 (Ltree.label t leaves.(2));
  Alcotest.(check int) "C end" 7 (Ltree.label t leaves.(3))

let empty_tree () =
  let t = Ltree.create () in
  Ltree.check t;
  Alcotest.(check int) "empty length" 0 (Ltree.length t);
  Alcotest.(check bool) "no first" true (Ltree.first t = None);
  let a = Ltree.insert_first t in
  Ltree.check t;
  Alcotest.(check int) "first label" 0 (Ltree.label t a);
  let b = Ltree.insert_first t in
  Ltree.check t;
  Alcotest.(check bool) "b before a" true (Ltree.label t b < Ltree.label t a)

let bulk_sizes () =
  List.iter
    (fun n ->
      let t, leaves = Ltree.bulk_load ~params:Params.fig2 n in
      Ltree.check t;
      Alcotest.(check int) (Printf.sprintf "n=%d slots" n) n (Ltree.length t);
      Alcotest.(check int)
        (Printf.sprintf "n=%d leaves" n)
        n (Array.length leaves))
    [ 0; 1; 2; 3; 4; 5; 7; 8; 9; 15; 16; 17; 31; 64; 100; 1000 ]

let monotone_growth () =
  (* Pure appends: labels keep increasing, invariants hold, height grows
     logarithmically. *)
  let params = Params.make ~f:8 ~s:2 in
  let t = Ltree.create ~params () in
  let h = ref (Ltree.insert_first t) in
  for _ = 1 to 5000 do
    h := Ltree.insert_after t !h
  done;
  Ltree.check t;
  Alcotest.(check int) "5001 slots" 5001 (Ltree.length t);
  let height = Ltree.height t in
  Alcotest.(check bool)
    (Printf.sprintf "height %d is logarithmic" height)
    true
    (height <= 2 + Params.height_for params 5001)

(* Proposition 3: cascade splitting is impossible — no single insertion
   ever performs more than one split. *)
let prop3_no_cascade =
  QCheck.Test.make ~count:40 ~name:"prop 3: at most one split per insertion"
    QCheck.(make Gen.(pair (int_bound 60) (int_bound 10000)))
    (fun (n0, seed) ->
      let params =
        if seed mod 2 = 0 then Params.fig2 else Params.make ~f:9 ~s:3
      in
      let counters = Counters.create () in
      let t, leaves = Ltree.bulk_load ~params ~counters n0 in
      let prng = Ltree_workload.Prng.create seed in
      let pool = ref (Array.to_list leaves) in
      let ok = ref true in
      for _ = 1 to 400 do
        let before = Counters.splits counters in
        (match !pool with
         | [] -> pool := [ Ltree.insert_first t ]
         | hs ->
           let w = List.nth hs (Ltree_workload.Prng.int prng (List.length hs)) in
           pool :=
             (if Ltree_workload.Prng.bool prng then Ltree.insert_after t w
              else Ltree.insert_before t w)
             :: hs);
        if Counters.splits counters - before > 1 then ok := false
      done;
      !ok)

(* Relabeling is local: the slots whose labels change under one insertion
   form a single contiguous run in document order (the split region plus
   its right siblings — Algorithm 1's shape). *)
let relabel_locality_prop =
  QCheck.Test.make ~count:40 ~name:"relabeled slots are contiguous"
    QCheck.(make Gen.(pair (int_range 4 300) (int_bound 10000)))
    (fun (n0, seed) ->
      let params = Params.fig2 in
      let t, leaves = Ltree.bulk_load ~params n0 in
      let prng = Ltree_workload.Prng.create seed in
      let ok = ref true in
      for _ = 1 to 60 do
        let before_leaves = all_leaves t in
        let before_labels =
          Array.map (fun l -> Ltree.label t l) before_leaves
        in
        ignore (Ltree.insert_after t leaves.(Ltree_workload.Prng.int prng n0));
        let changed =
          Array.to_list
            (Array.mapi
               (fun i l -> (i, Ltree.label t l <> before_labels.(i)))
               before_leaves)
          |> List.filter snd |> List.map fst
        in
        (match changed with
         | [] -> ()
         | first :: _ ->
           let last = List.nth changed (List.length changed - 1) in
           if List.length changed <> last - first + 1 then ok := false)
      done;
      !ok)

(* Randomized torture with invariant checking after every operation. *)
let random_ops_prop =
  let gen = QCheck.Gen.(pair (int_bound 40) (int_bound 1000)) in
  let arb = QCheck.make ~print:(fun (a, b) -> Printf.sprintf "(%d,%d)" a b) gen in
  QCheck.Test.make ~count:60 ~name:"ltree invariants under random ops" arb
    (fun (n0, seed) ->
      let prng = Ltree_workload.Prng.create seed in
      let params =
        match Ltree_workload.Prng.int prng 4 with
        | 0 -> Params.fig2
        | 1 -> Params.make ~f:6 ~s:2
        | 2 -> Params.make ~f:9 ~s:3
        | _ -> Params.make ~f:16 ~s:4
      in
      let t, leaves = Ltree.bulk_load ~params n0 in
      let pool = ref (Array.to_list leaves) in
      for _ = 1 to 120 do
        (match !pool with
         | [] -> pool := [ Ltree.insert_first t ]
         | hs ->
           let target =
             List.nth hs (Ltree_workload.Prng.int prng (List.length hs))
           in
           let r = Ltree_workload.Prng.int prng 10 in
           if r < 4 then pool := Ltree.insert_after t target :: hs
           else if r < 8 then pool := Ltree.insert_before t target :: hs
           else if r < 9 then
             pool :=
               Array.to_list
                 (Ltree.insert_batch_after t target
                    (1 + Ltree_workload.Prng.int prng 12))
               @ hs
           else Ltree.delete t target);
        Ltree.check t
      done;
      true)

(* The empirical amortized cost must respect the §3.1 bound. *)
let amortized_bound_prop =
  let arb =
    QCheck.make
      ~print:(fun (f, s, seed) -> Printf.sprintf "f=%d s=%d seed=%d" f s seed)
      QCheck.Gen.(
        map
          (fun (m, s, seed) -> (m * s, s, seed))
          (triple (int_range 2 5) (int_range 2 4) (int_bound 1000)))
  in
  QCheck.Test.make ~count:20 ~name:"amortized cost within the paper bound"
    arb
    (fun (f, s, seed) ->
      let params = Params.make ~f ~s in
      let counters = Counters.create () in
      let t, leaves = Ltree.bulk_load ~params ~counters 256 in
      let prng = Ltree_workload.Prng.create seed in
      let pool = ref (Array.to_list leaves) in
      let ops = 2000 in
      Counters.reset counters;
      for _ = 1 to ops do
        let target =
          List.nth !pool (Ltree_workload.Prng.int prng (List.length !pool))
        in
        pool := Ltree.insert_after t target :: !pool
      done;
      let measured =
        float_of_int (Counters.total_maintenance counters)
        /. float_of_int ops
      in
      let bound =
        Analysis.amortized_cost ~params ~n:(Ltree.length t) +. 1.
      in
      if measured > bound then
        QCheck.Test.fail_reportf "measured %.2f > bound %.2f" measured bound
      else true)

let batch_insert_order () =
  let t, leaves = Ltree.bulk_load ~params:Params.fig2 20 in
  let anchor = leaves.(7) in
  let fresh = Ltree.insert_batch_after t anchor 50 in
  Ltree.check t;
  Alcotest.(check int) "70 slots" 70 (Ltree.length t);
  (* The batch lands contiguously right after the anchor, in order. *)
  let anchor_label = Ltree.label t anchor in
  let prev = ref anchor_label in
  Array.iter
    (fun l ->
      let v = Ltree.label t l in
      Alcotest.(check bool) "batch keeps order" true (v > !prev);
      prev := v)
    fresh;
  let next_label = Ltree.label t leaves.(8) in
  Alcotest.(check bool) "batch sits before old successor" true
    (!prev < next_label)

let insert_after_tombstone () =
  (* Tombstoned slots remain valid anchors. *)
  let t, leaves = Ltree.bulk_load ~params:Params.fig2 16 in
  Ltree.delete t leaves.(5);
  let fresh = Ltree.insert_after t leaves.(5) in
  Ltree.check t;
  Alcotest.(check bool) "placed after the tombstone" true
    (Ltree.label t leaves.(5) < Ltree.label t fresh
    && Ltree.label t fresh < Ltree.label t leaves.(6));
  Alcotest.(check bool) "fresh slot is live" false (Ltree.is_deleted fresh)

let batch_into_empty () =
  (* A fresh tree's first leaf, then one batch for the rest. *)
  let t = Ltree.create ~params:Params.fig2 () in
  let first = Ltree.insert_first t in
  let fresh = Ltree.insert_batch_after t first 99 in
  Ltree.check t;
  Alcotest.(check int) "100 slots" 100 (Ltree.length t);
  Alcotest.(check int) "handles" 99 (Array.length fresh);
  Alcotest.(check (list int)) "batch follows the first leaf in order"
    (labels_list t)
    (Ltree.label t first
    :: Array.to_list (Array.map (fun l -> Ltree.label t l) fresh))

let compare_follows_labels () =
  let t, leaves = Ltree.bulk_load ~params:Params.fig2 20 in
  let prng = Ltree_workload.Prng.create 5 in
  let pool = ref (Array.to_list leaves) in
  for _ = 1 to 200 do
    let w = List.nth !pool (Ltree_workload.Prng.int prng (List.length !pool)) in
    let fresh =
      if Ltree_workload.Prng.bool prng then Ltree.insert_after t w
      else Ltree.insert_before t w
    in
    pool := fresh :: !pool
  done;
  Ltree.check t;
  let sign x = if x < 0 then -1 else if x > 0 then 1 else 0 in
  let arr = Array.of_list !pool in
  for _ = 1 to 500 do
    let a = arr.(Ltree_workload.Prng.int prng (Array.length arr))
    and b = arr.(Ltree_workload.Prng.int prng (Array.length arr)) in
    Alcotest.(check int) "sign of compare = sign of label difference"
      (sign (Ltree.label t a - Ltree.label t b))
      (sign (Ltree.compare t a b))
  done

(* [version] is the freshness stamp of the label sequence: reads leave it
   alone, and every change to the sequence moves it. *)
let version_stamps () =
  let t, leaves = Ltree.bulk_load ~params:Params.fig2 10 in
  let v = ref (Ltree.version t) in
  let moved what =
    let v' = Ltree.version t in
    Alcotest.(check bool) (what ^ " moves the version") true (v' <> !v);
    v := v'
  in
  ignore (Ltree.labels t);
  ignore (Ltree.find_by_label t (Ltree.label t leaves.(3)));
  Ltree.check t;
  Alcotest.(check int) "reads keep the version" !v (Ltree.version t);
  ignore (Ltree.insert_after t leaves.(3));
  moved "insert";
  ignore (Ltree.insert_batch_after t leaves.(6) 5);
  moved "batch insert";
  Ltree.delete t leaves.(0);
  moved "delete";
  Ltree.delete t leaves.(0);
  Alcotest.(check int) "deleting a tombstone again is a no-op" !v
    (Ltree.version t);
  Ltree.compact t;
  moved "compact"

let batch_cheaper_than_singles () =
  (* §4.1's point: one batch of k relabels fewer nodes than k singles. *)
  let run ~batch =
    let counters = Counters.create () in
    let t, leaves = Ltree.bulk_load ~params:Params.fig2 ~counters 1024 in
    Counters.reset counters;
    if batch then ignore (Ltree.insert_batch_after t leaves.(512) 256)
    else begin
      let h = ref leaves.(512) in
      for _ = 1 to 256 do
        h := Ltree.insert_after t !h
      done
    end;
    Counters.total_maintenance counters
  in
  let batched = run ~batch:true and single = run ~batch:false in
  Alcotest.(check bool)
    (Printf.sprintf "batch %d < singles %d" batched single)
    true (batched < single)

let delete_and_compact () =
  let t, leaves = Ltree.bulk_load ~params:Params.fig2 100 in
  Array.iteri (fun i l -> if i mod 2 = 0 then Ltree.delete t l) leaves;
  Ltree.check t;
  Alcotest.(check int) "slots keep tombstones" 100 (Ltree.length t);
  Alcotest.(check int) "live halved" 50 (Ltree.live_length t);
  Alcotest.(check bool) "tombstone flagged" true
    (Ltree.is_deleted leaves.(0));
  (* Deletion must not move any label. *)
  let before = Ltree.label t leaves.(1) in
  Ltree.delete t leaves.(3);
  Alcotest.(check int) "labels stable across delete" before
    (Ltree.label t leaves.(1));
  Ltree.compact t;
  Ltree.check t;
  (* 50 even-indexed leaves plus leaves.(3) were tombstoned. *)
  Alcotest.(check int) "compacted slots" 49 (Ltree.length t);
  (* Surviving odd-indexed leaves keep their order. *)
  let prev = ref (-1) in
  Array.iteri
    (fun i l ->
      if i mod 2 = 1 && i <> 3 then begin
        let v = Ltree.label t l in
        Alcotest.(check bool) "survivor order" true (v > !prev);
        prev := v
      end)
    leaves

let params_validation () =
  let rejects f s =
    Alcotest.(check bool)
      (Printf.sprintf "rejects f=%d s=%d" f s)
      true
      (try
         ignore (Params.make ~f ~s);
         false
       with Invalid_argument _ -> true)
  in
  rejects 4 1;
  rejects 5 2;
  rejects 2 2;
  rejects 3 2;
  let p = Params.make ~f:12 ~s:3 in
  Alcotest.(check int) "m" 4 p.Params.m;
  Alcotest.(check int) "radix" 11 p.Params.radix

let pow_and_lmax () =
  let p = Params.fig2 in
  Alcotest.(check int) "radix^0" 1 (Params.pow_radix p 0);
  Alcotest.(check int) "radix^3" 27 (Params.pow_radix p 3);
  Alcotest.(check int) "lmax h=1" 4 (Params.lmax p ~height:1);
  Alcotest.(check int) "lmax h=3" 16 (Params.lmax p ~height:3);
  Alcotest.(check int) "height_for 1" 1 (Params.height_for p 1);
  Alcotest.(check int) "height_for 8" 3 (Params.height_for p 8);
  Alcotest.(check int) "height_for 9" 4 (Params.height_for p 9);
  Alcotest.(check bool) "overflow guarded" true
    (try
       ignore (Params.pow_radix p 1000);
       false
     with Params.Label_overflow -> true)

(* The list the layout chunking used to build, kept as the oracle of the
   arithmetic [Layout.chunk_count]/[Layout.chunk_size]. *)
let reference_chunk_sizes (params : Params.t) ~height ~count =
  let span = Params.pow_m params (height - 1) in
  let q = Int.max 1 (count / span) in
  let rec build i acc =
    if i = q then List.rev acc
    else if i = q - 1 then List.rev ((count - ((q - 1) * span)) :: acc)
    else build (i + 1) (span :: acc)
  in
  build 0 []

let layout_chunks params ~height ~count =
  List.init (Layout.chunk_count params ~height ~count) (fun i ->
      Layout.chunk_size params ~height ~count i)

(* Every (f, s, height, count) with count below the leaf limit: the
   arithmetic chunking is exactly the list chunking it replaced. *)
let chunking_grid () =
  List.iter
    (fun (f, s) ->
      let params = Params.make ~f ~s in
      for height = 1 to 4 do
        for count = 1 to Params.lmax params ~height - 1 do
          if
            not
              (List.equal Int.equal
                 (reference_chunk_sizes params ~height ~count)
                 (layout_chunks params ~height ~count))
          then
            Alcotest.failf "chunking differs at f=%d s=%d h=%d count=%d" f s
              height count
        done
      done)
    [ (4, 2); (6, 2); (6, 3); (8, 2); (8, 4); (9, 3); (12, 2); (16, 2) ]

let layout_props =
  let arb =
    QCheck.make
      ~print:(fun (h, c) -> Printf.sprintf "h=%d count=%d" h c)
      QCheck.Gen.(pair (int_range 1 6) (int_range 1 60))
  in
  QCheck.Test.make ~count:200 ~name:"layout chunking is well-formed" arb
    (fun (height, count) ->
      let params = Params.fig2 in
      QCheck.assume (count < Params.lmax params ~height);
      let chunks = layout_chunks params ~height ~count in
      let span = Params.pow_m params (height - 1) in
      let sum = List.fold_left ( + ) 0 chunks in
      let sizes_ok =
        match List.rev chunks with
        | [] -> false
        | last :: firsts ->
          List.for_all (fun c -> c = span) firsts
          && (last >= min span count)
          && last < 2 * span
      in
      let labels = Layout.labels params ~base:0 ~height ~count in
      let increasing = ref true in
      Array.iteri
        (fun i l -> if i > 0 && l <= labels.(i - 1) then increasing := false)
        labels;
      sum = count
      && sizes_ok
      && !increasing
      && Array.length labels = count
      && labels.(0) = 0
      && labels.(count - 1) < Params.pow_radix params height)

(* §4.2: the tree reconstructed from bare labels is indistinguishable
   from the original — including under further updates. *)
let of_labels_prop =
  QCheck.Test.make ~count:50 ~name:"of_labels rebuilds an equivalent tree"
    QCheck.(make Gen.(pair (int_range 1 100) (int_bound 10000)))
    (fun (n0, seed) ->
      let params = Params.fig2 in
      let prng = Ltree_workload.Prng.create seed in
      let t, leaves = Ltree.bulk_load ~params n0 in
      let pool = ref (Array.to_list leaves) in
      for _ = 1 to 80 do
        let w =
          List.nth !pool (Ltree_workload.Prng.int prng (List.length !pool))
        in
        pool := Ltree.insert_after t w :: !pool
      done;
      let t2, leaves2 =
        Ltree.of_labels ~params ~height:(Ltree.height t) (Ltree.labels t)
      in
      Ltree.check t2;
      if Ltree.labels t <> Ltree.labels t2 then
        QCheck.Test.fail_reportf "reconstructed labels differ";
      (* Continue with identical operations on both trees: they must stay
         label-identical. *)
      let all1 = all_leaves t and all2 = leaves2 in
      for _ = 1 to 60 do
        let i = Ltree_workload.Prng.int prng (Array.length all1) in
        let side = Ltree_workload.Prng.bool prng in
        (if side then ignore (Ltree.insert_after t all1.(i))
         else ignore (Ltree.insert_before t all1.(i)));
        (if side then ignore (Ltree.insert_after t2 all2.(i))
         else ignore (Ltree.insert_before t2 all2.(i)))
      done;
      Ltree.check t2;
      Ltree.labels t = Ltree.labels t2)

let of_labels_rejects () =
  let p = Params.fig2 in
  let rejects name labels height =
    Alcotest.(check bool) name true
      (try
         ignore (Ltree.of_labels ~params:p ~height labels);
         false
       with Ltree_analysis.Invariant.Violation _ -> true)
  in
  rejects "unsorted" [| 3; 1 |] 3;
  rejects "out of range" [| 0; 27 |] 3;
  rejects "negative" [| -1 |] 3;
  (* Positions 0 and 2 under one parent without position 1. *)
  rejects "non-contiguous children" [| 0; 2 |] 1;
  (* A height-1 child with a single leaf violates l >= m^h. *)
  rejects "under-occupied" [| 0; 1; 3 |] 2;
  (* Valid round trip for the Figure-2 sequence. *)
  let t, _ =
    Ltree.of_labels ~params:p ~height:3
      [| 0; 1; 3; 4; 9; 10; 12; 13 |]
  in
  Ltree.check t;
  Alcotest.(check int) "height kept" 3 (Ltree.height t)

let find_by_label_prop =
  QCheck.Test.make ~count:50 ~name:"find_by_label inverts label"
    QCheck.(make Gen.(pair (int_range 1 150) (int_bound 10000)))
    (fun (n0, seed) ->
      let params = Params.make ~f:6 ~s:2 in
      let t, leaves = Ltree.bulk_load ~params n0 in
      let prng = Ltree_workload.Prng.create seed in
      for _ = 1 to 100 do
        ignore (Ltree.insert_after t leaves.(Ltree_workload.Prng.int prng n0))
      done;
      let ok = ref true in
      Ltree.iter_leaves t (fun l ->
          match Ltree.find_by_label t (Ltree.label t l) with
          | Some l' when l' == l -> ()
          | Some _ | None -> ok := false);
      (* Labels not in use resolve to None. *)
      (match Ltree.find_by_label t (Ltree.max_label t + 1) with
       | Some _ -> ok := false
       | None -> ());
      (match Ltree.find_by_label t (-1) with
       | Some _ -> ok := false
       | None -> ());
      !ok)

let suite =
  ( "ltree",
    [ case "figure 2(a): bulk load" `Quick fig2_bulk;
      case "of_labels validation" `Quick of_labels_rejects;
      QCheck_alcotest.to_alcotest of_labels_prop;
      QCheck_alcotest.to_alcotest find_by_label_prop;
      case "figure 2(c): insert D" `Quick fig2_insert_d;
      case "figure 2(d): insert /D splits" `Quick fig2_insert_d_end;
      case "empty tree" `Quick empty_tree;
      case "bulk load sizes" `Quick bulk_sizes;
      case "monotone growth" `Quick monotone_growth;
      case "batch insert keeps order" `Quick batch_insert_order;
      case "insert after a tombstone" `Quick insert_after_tombstone;
      case "batch into empty tree" `Quick batch_into_empty;
      case "compare follows label order" `Quick compare_follows_labels;
      case "version moves with the label sequence" `Quick version_stamps;
      case "batch cheaper than singles" `Quick batch_cheaper_than_singles;
      case "delete and compact" `Quick delete_and_compact;
      case "params validation" `Quick params_validation;
      case "pow/lmax/height_for" `Quick pow_and_lmax;
      QCheck_alcotest.to_alcotest prop3_no_cascade;
      QCheck_alcotest.to_alcotest relabel_locality_prop;
      QCheck_alcotest.to_alcotest random_ops_prop;
      QCheck_alcotest.to_alcotest amortized_bound_prop;
      QCheck_alcotest.to_alcotest layout_props;
      case "arithmetic chunking equals the list grid" `Quick chunking_grid ] )
