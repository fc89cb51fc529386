let chunk_count (params : Params.t) ~height ~count =
  if height < 1 then invalid_arg "Layout.chunk_count: height must be >= 1";
  if count < 1 then invalid_arg "Layout.chunk_count: count must be >= 1";
  if count >= Params.lmax params ~height then
    invalid_arg "Layout.chunk_count: count at or above the leaf limit";
  Int.max 1 (count / Params.pow_m params (height - 1))

let chunk_size (params : Params.t) ~height ~count i =
  let span = Params.pow_m params (height - 1) in
  let q = Int.max 1 (count / span) in
  if i < q - 1 then span else count - ((q - 1) * span)

let rec iter_labels params ~base ~height ~count f =
  if height = 0 then begin
    assert (count = 1);
    f base
  end
  else begin
    let step = Params.pow_radix params (height - 1) in
    for i = 0 to chunk_count params ~height ~count - 1 do
      iter_labels params
        ~base:(base + (i * step))
        ~height:(height - 1)
        ~count:(chunk_size params ~height ~count i)
        f
    done
  end

let labels params ~base ~height ~count =
  let out = Array.make count 0 in
  let i = ref 0 in
  iter_labels params ~base ~height ~count (fun l ->
      out.(!i) <- l;
      incr i);
  out
