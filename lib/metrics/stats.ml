type t = {
  mutable count : int;
  mutable mean : float;
  mutable m2 : float;
  (* Welford's sum of squared deviations.  Nothing reads a variance;
     the field goes with the next change that regenerates the gated
     minor-word counters, since its update allocates a float per [add]. *)
  mutable min : float;
  mutable max : float;
  mutable sum : float;
  mutable samples : float array;
  (* [samples.(0 .. count-1)] retains every observation for percentiles. *)
}

let create () =
  { count = 0;
    mean = 0.;
    m2 = 0.;
    min = infinity;
    max = neg_infinity;
    sum = 0.;
    samples = Array.make 16 0. }

let add t x =
  if t.count = Array.length t.samples then begin
    let bigger = Array.make (2 * t.count) 0. in
    Array.blit t.samples 0 bigger 0 t.count;
    t.samples <- bigger
  end;
  t.samples.(t.count) <- x;
  t.count <- t.count + 1;
  t.sum <- t.sum +. x;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. float_of_int t.count);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean));
  if x < t.min then t.min <- x;
  if x > t.max then t.max <- x

let count t = t.count
let mean t = t.mean

let max t = t.max
let sum t = t.sum

let percentile t p =
  if t.count = 0 then invalid_arg "Stats.percentile: empty";
  if p < 0. || p > 100. then invalid_arg "Stats.percentile: p out of range";
  (* Nearest-rank: the smallest sample x such that at least p% of the
     samples are <= x.  p = 0 is pinned to the minimum explicitly rather
     than relying on ceil/int rounding to land on rank 0. *)
  if p = 0. then t.min
  else begin
    let sorted = Array.sub t.samples 0 t.count in
    Array.sort Float.compare sorted;
    let rank =
      int_of_float (ceil (p /. 100. *. float_of_int t.count)) - 1
    in
    let rank = Int.max 0 (Int.min (t.count - 1) rank) in
    sorted.(rank)
  end

