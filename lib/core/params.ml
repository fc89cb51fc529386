type t = { f : int; s : int; m : int; radix : int; max_height : int }

exception Label_overflow

(* Top-level, not a local closure over [base]: the relabel path calls
   this once per internal node and must not allocate. *)
let rec pow_go base acc i =
  if i = 0 then acc
  else if acc > max_int / base then raise Label_overflow
  else pow_go base (acc * base) (i - 1)

let pow_checked base h =
  if h < 0 then invalid_arg "Params.pow: negative height";
  pow_go base 1 h

let make ~f ~s =
  if s < 2 then invalid_arg "Params.make: s must be >= 2";
  if f mod s <> 0 then invalid_arg "Params.make: f must be a multiple of s";
  let m = f / s in
  if m < 2 then invalid_arg "Params.make: f / s must be >= 2";
  let radix = f - 1 in
  let rec count_height h p =
    if p > max_int / radix then h else count_height (h + 1) (p * radix)
  in
  (* Largest h such that radix^h still fits in an int. *)
  let max_height = count_height 0 1 in
  { f; s; m; radix; max_height }

let fig2 = make ~f:4 ~s:2

let pow_radix t h =
  if h > t.max_height then raise Label_overflow;
  pow_checked t.radix h

let pow_m t h = pow_checked t.m h

let lmax t ~height =
  if height < 1 then invalid_arg "Params.lmax: height must be >= 1";
  t.s * pow_m t height

let height_for t n =
  if n < 0 then invalid_arg "Params.height_for: negative size";
  let rec go h p = if p >= n then h else go (h + 1) (p * t.m) in
  Int.max 1 (go 0 1)

let pp ppf t =
  Format.fprintf ppf "(f=%d, s=%d, m=%d, radix=%d)" t.f t.s t.m t.radix

