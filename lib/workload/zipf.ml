type t = { cdf : float array }

let create ~n ~alpha =
  if n <= 0 then invalid_arg "Zipf.create: n must be positive";
  if alpha <= 0. then invalid_arg "Zipf.create: alpha must be positive";
  let weights =
    Array.init n (fun i -> 1. /. (float_of_int (i + 1) ** alpha))
  in
  let total = Array.fold_left ( +. ) 0. weights in
  let cdf = Array.make n 0. in
  let acc = ref 0. in
  Array.iteri
    (fun i w ->
      acc := !acc +. (w /. total);
      cdf.(i) <- !acc)
    weights;
  cdf.(n - 1) <- 1.;
  { cdf }

let sample t prng =
  let u = Prng.float prng in
  (* First index with cdf >= u. *)
  let lo = ref 0 and hi = ref (Array.length t.cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo

