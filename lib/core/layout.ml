let chunk_sizes (params : Params.t) ~height ~count =
  if height < 1 then invalid_arg "Layout.chunk_sizes: height must be >= 1";
  if count < 1 then invalid_arg "Layout.chunk_sizes: count must be >= 1";
  if count >= Params.lmax params ~height then
    invalid_arg "Layout.chunk_sizes: count at or above the leaf limit";
  let span = Params.pow_m params (height - 1) in
  let q = Int.max 1 (count / span) in
  let rec build i acc =
    if i = q then List.rev acc
    else if i = q - 1 then List.rev ((count - ((q - 1) * span)) :: acc)
    else build (i + 1) (span :: acc)
  in
  build 0 []

let rec iter_labels params ~base ~height ~count f =
  if height = 0 then begin
    assert (count = 1);
    f base
  end
  else begin
    let step = Params.pow_radix params (height - 1) in
    let i = ref 0 in
    List.iter
      (fun chunk ->
        iter_labels params
          ~base:(base + (!i * step))
          ~height:(height - 1) ~count:chunk f;
        incr i)
      (chunk_sizes params ~height ~count)
  end

let labels params ~base ~height ~count =
  let out = Array.make count 0 in
  let i = ref 0 in
  iter_labels params ~base ~height ~count (fun l ->
      out.(!i) <- l;
      incr i);
  out
