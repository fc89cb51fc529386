type t = {
  name : string;
  help : string;
  labels : (string * string) list;
      (* sorted by key; a labeled histogram is one series of the metric
         [name] *)
  bounds : float array;  (* strictly increasing upper bounds *)
  counts : int array;    (* length bounds + 1; last slot is +Inf *)
  mutable count : int;
  mutable sum : float;
}

let create ~name ~help ?(labels = []) ~bounds () =
  let n = Array.length bounds in
  if n = 0 then invalid_arg "Histogram.create: no bounds";
  for i = 1 to n - 1 do
    if Float.compare bounds.(i - 1) bounds.(i) >= 0 then
      invalid_arg "Histogram.create: bounds must be strictly increasing"
  done;
  List.iter
    (fun (k, _) ->
      if String.length k = 0 || String.equal k "le" then
        invalid_arg "Histogram.create: invalid label key")
    labels;
  { name;
    help;
    labels = List.sort (fun (a, _) (b, _) -> String.compare a b) labels;
    bounds = Array.copy bounds;
    counts = Array.make (n + 1) 0;
    count = 0;
    sum = 0. }

let name t = t.name
let help t = t.help
let labels t = t.labels
let bounds t = Array.copy t.bounds

(* Index of the first bound >= x, or [Array.length bounds] for +Inf.
   Buckets are cumulative in exposition but stored disjoint here. *)
let bucket_index t x =
  let n = Array.length t.bounds in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Float.compare t.bounds.(mid) x < 0 then lo := mid + 1 else hi := mid
  done;
  !lo

let add t x =
  let i = bucket_index t x in
  t.counts.(i) <- t.counts.(i) + 1;
  t.count <- t.count + 1;
  t.sum <- t.sum +. x

let count t = t.count
let sum t = t.sum

(* Cumulative count of observations <= bounds.(i), Prometheus-style. *)
let cumulative t =
  let out = Array.make (Array.length t.counts) 0 in
  let acc = ref 0 in
  Array.iteri
    (fun i c ->
      acc := !acc + c;
      out.(i) <- !acc)
    t.counts;
  out

(* {1 Bucket layouts} *)

let log2_bounds ~start ~count =
  if count < 1 then invalid_arg "Histogram.log2_bounds: count must be >= 1";
  if Float.compare start 0. <= 0 then
    invalid_arg "Histogram.log2_bounds: start must be > 0";
  Array.init count (fun i -> start *. (2. ** float_of_int i))

let linear_bounds ~start ~step ~count =
  if count < 1 then invalid_arg "Histogram.linear_bounds: count must be >= 1";
  if Float.compare step 0. <= 0 then
    invalid_arg "Histogram.linear_bounds: step must be > 0";
  Array.init count (fun i -> start +. (step *. float_of_int i))
