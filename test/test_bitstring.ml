(* Persistent bit-string labels (the Ω(n)-bits / zero-relabel end of the
   design space, Cohen et al.). *)

module B = Ltree_labeling.Bitstring_label
module Prng = Ltree_workload.Prng

let case = Alcotest.test_case

let basic () =
  let t, handles = B.bulk_load 1 in
  let a = handles.(0) in
  Alcotest.(check int) "first is 1/2: one bit" 1 (B.max_bits t);
  (* The midpoint of 1/2 and the virtual bound 1 is 3/4. *)
  let b = B.insert_after t a in
  Alcotest.(check int) "3/4 takes two bits" 2 (B.max_bits t);
  (* Between 1/2 and 3/4 sits 5/8. *)
  ignore (B.insert_after t a);
  B.check t;
  Alcotest.(check int) "5/8 takes three bits" 3 (B.max_bits t);
  (* After the last label the width grows by one again: 7/8. *)
  ignore (B.insert_after t b);
  B.check t;
  Alcotest.(check int) "7/8 keeps three bits" 3 (B.max_bits t)

let bulk () =
  let t, _ = B.bulk_load 100 in
  (* [check] compares list order against label order. *)
  B.check t;
  (* Even spread: about log2 n + 1 bits. *)
  Alcotest.(check bool) "narrow after bulk" true (B.max_bits t <= 8)

let adversarial_growth () =
  (* Always inserting at the same point forces one extra bit per insert:
     linear label growth — the lower bound the paper cites. *)
  let t, handles = B.bulk_load 1 in
  let h = ref handles.(0) in
  for _ = 1 to 200 do
    h := B.insert_after t !h
  done;
  B.check t;
  Alcotest.(check bool)
    (Printf.sprintf "adversarial labels are wide (%d bits)" (B.max_bits t))
    true
    (B.max_bits t >= 200)

let uniform_growth () =
  (* Uniform insertion keeps labels logarithmic-ish. *)
  let t, handles = B.bulk_load 64 in
  let prng = Prng.create 5 in
  let pool = ref (Array.to_list handles) in
  for _ = 1 to 1000 do
    let target = List.nth !pool (Prng.int prng (List.length !pool)) in
    pool := B.insert_after t target :: !pool
  done;
  B.check t;
  Alcotest.(check bool)
    (Printf.sprintf "uniform labels stay narrow (%d bits)" (B.max_bits t))
    true
    (B.max_bits t <= 64)

let midpoint_random =
  QCheck.Test.make ~count:300 ~name:"midpoint is strictly between"
    QCheck.(make Gen.(pair (int_bound 100000) (int_range 2 60)))
    (fun (seed, ops) ->
      let prng = Prng.create seed in
      let t, handles = B.bulk_load 2 in
      let pool = ref (Array.to_list handles) in
      for _ = 1 to ops do
        let target = List.nth !pool (Prng.int prng (List.length !pool)) in
        pool := B.insert_after t target :: !pool
      done;
      B.check t;
      true)

(* The width measure the integer schemes report as [bits_per_label]. *)
let bits_for_value () =
  List.iter
    (fun (v, bits) ->
      Alcotest.(check int) (Printf.sprintf "bits of %d" v) bits
        (Ltree_labeling.Scheme.bits_for_value v))
    [ (0, 1); (1, 1); (2, 2); (3, 2); (255, 8); (256, 9);
      (max_int, Sys.int_size - 1) ];
  Alcotest.(check bool) "negative rejected" true
    (try
       ignore (Ltree_labeling.Scheme.bits_for_value (-1));
       false
     with Invalid_argument _ -> true)

let suite =
  ( "bitstring_label",
    [ case "basics" `Quick basic;
      case "bulk load" `Quick bulk;
      case "adversarial growth is linear" `Quick adversarial_growth;
      case "uniform growth stays narrow" `Quick uniform_growth;
      case "scheme bits_for_value" `Quick bits_for_value;
      QCheck_alcotest.to_alcotest midpoint_random ] )
