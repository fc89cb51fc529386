type pattern = Uniform | Hotspot | Append | Prepend

let pattern_name = function
  | Uniform -> "uniform"
  | Hotspot -> "hotspot"
  | Append -> "append"
  | Prepend -> "prepend"

let all_patterns = [ Uniform; Hotspot; Append; Prepend ]

module Make (S : Ltree_labeling.Scheme.S) = struct
  type t = {
    scheme : S.t;
    mutable pool : S.handle array; (* live handles, arbitrary order *)
    mutable size : int;
    mutable hot : S.handle option;
    mutable last : S.handle option;
    mutable first : S.handle option;
  }

  let init ?counters ~n () =
    let scheme, handles = S.bulk_load ?counters n in
    let pool =
      if n = 0 then [||]
      else begin
        let pool = Array.make (Int.max 16 (2 * n)) handles.(0) in
        Array.blit handles 0 pool 0 n;
        pool
      end
    in
    { scheme;
      pool;
      size = n;
      hot = (if n = 0 then None else Some handles.(n / 2));
      last = (if n = 0 then None else Some handles.(n - 1));
      first = (if n = 0 then None else Some handles.(0)) }

  let scheme t = t.scheme
  let size t = t.size

  let push t h =
    if t.size = Array.length t.pool then begin
      let bigger = Array.make (Int.max 16 (2 * t.size)) h in
      Array.blit t.pool 0 bigger 0 t.size;
      t.pool <- bigger
    end;
    t.pool.(t.size) <- h;
    t.size <- t.size + 1

  let insert t prng pattern =
    let h =
      if t.size = 0 then S.insert_first t.scheme
      else
        match pattern with
        | Uniform -> S.insert_after t.scheme t.pool.(Prng.int prng t.size)
        | Hotspot ->
          let anchor =
            match t.hot with Some h -> h | None -> t.pool.(0)
          in
          let h = S.insert_after t.scheme anchor in
          t.hot <- Some h;
          (* Drift occasionally so the hotspot is a region, not a point. *)
          if Prng.int prng 64 = 0 then
            t.hot <- Some t.pool.(Prng.int prng t.size);
          h
        | Append ->
          let anchor =
            match t.last with Some h -> h | None -> t.pool.(0)
          in
          S.insert_after t.scheme anchor
        | Prepend ->
          let anchor =
            match t.first with Some h -> h | None -> t.pool.(0)
          in
          S.insert_before t.scheme anchor
    in
    (match pattern with
     | Append -> t.last <- Some h
     | Prepend -> t.first <- Some h
     | Uniform | Hotspot -> ());
    if t.hot = None then t.hot <- Some h;
    if t.last = None then t.last <- Some h;
    if t.first = None then t.first <- Some h;
    push t h

  let run t prng pattern ~ops =
    for _ = 1 to ops do
      insert t prng pattern
    done

  let check t =
    S.check t.scheme;
    if S.length t.scheme <> t.size then
      failwith "Driver: pool size out of sync with scheme"
end
