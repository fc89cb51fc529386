module Counters = Ltree_metrics.Counters

module Make (P : sig
  val bits : int
  val tau : float
end) : Scheme.S = struct
  let () =
    if P.bits < 4 || P.bits > 61 then
      invalid_arg "List_label.Make: bits out of [4, 61]";
    if P.tau <= 0.5 || P.tau >= 1.0 then
      invalid_arg "List_label.Make: tau out of (0.5, 1)"

  let universe = 1 lsl P.bits

  type handle = Dll.cell

  type t = { list : Dll.t; counters : Counters.t }

  let name = Printf.sprintf "list-label-%db" P.bits

  let create ?(counters = Counters.create ()) () =
    { list = Dll.create (); counters }

  let bulk_load ?counters n =
    if n >= universe / 2 then invalid_arg "List_label.bulk_load: too many";
    let t = create ?counters () in
    let spacing = if n = 0 then universe else Int.max 1 (universe / n) in
    let handles = Array.init n (fun i -> Dll.append t.list (i * spacing)) in
    (t, handles)

  let midpoint lo hi =
    if hi - lo >= 2 then Some (lo + ((hi - lo) / 2)) else None

  (* Collect the maximal run of cells whose labels lie in
     [start, start + width), walking out from [left]/[right].  Returns the
     run in list order. *)
  let cells_in_range ~left ~right ~start ~width =
    let stop = start + width in
    let rec walk_left acc = function
      | Some (c : Dll.cell) when c.label >= start ->
        walk_left (c :: acc) c.prev
      | _ -> acc
    in
    let rec walk_right acc = function
      | Some (c : Dll.cell) when c.label < stop ->
        walk_right (c :: acc) c.next
      | _ -> List.rev acc
    in
    walk_left [] left @ walk_right [] right

  (* Relabel [cells] (with a hole at [hole_pos] for the incoming element)
     evenly across [start, start + width); returns the new element's
     label. *)
  let spread t cells ~hole_pos ~start ~width =
    let k = List.length cells + 1 in
    assert (k <= width);
    let label_of j = start + (j * width / k) in
    let j = ref 0 in
    List.iteri
      (fun idx (c : Dll.cell) ->
        if idx = hole_pos then incr j;
        c.label <- label_of !j;
        Counters.add_relabel t.counters 1;
        incr j)
      cells;
    label_of hole_pos

  (* Find a label strictly between neighbours [left] and [right]
     (either may be absent), relabeling an enclosing dyadic range when the
     local gap is exhausted. *)
  let make_room t ~left ~right =
    let lo = match left with Some (c : Dll.cell) -> c.label | None -> -1 in
    let hi =
      match right with Some (c : Dll.cell) -> c.label | None -> universe
    in
    match midpoint lo hi with
    | Some l -> l
    | None ->
      let anchor = Int.max 0 lo in
      let rec try_level i =
        if i > P.bits then failwith "List_label: universe exhausted";
        let width = 1 lsl i in
        let start = anchor land lnot (width - 1) in
        let cells = cells_in_range ~left ~right ~start ~width in
        let k = List.length cells + 1 in
        let threshold = P.tau ** float_of_int i in
        let density = float_of_int k /. float_of_int width in
        let acceptable =
          if i = P.bits then k <= width else density <= threshold
        in
        if acceptable then begin
          (* The new element sits after every cell with label <= lo. *)
          let hole_pos =
            List.length (List.filter (fun (c : Dll.cell) -> c.label <= lo)
                           cells)
          in
          spread t cells ~hole_pos ~start ~width
        end
        else try_level (i + 1)
      in
      try_level 1

  let insert_between t ~left ~right =
    let label = make_room t ~left ~right in
    match (left, right) with
    | _, Some r -> Dll.insert_before t.list r label
    | Some l, None -> Dll.insert_after t.list l label
    | None, None -> Dll.append t.list label

  let insert_first t = insert_between t ~left:None ~right:(Dll.first t.list)

  let insert_after t (h : handle) =
    insert_between t ~left:(Some h) ~right:h.next

  let insert_before t (h : handle) =
    insert_between t ~left:h.prev ~right:(Some h)

  let delete t h = Dll.remove t.list h
  let label _ (h : handle) = h.label
  let length t = Dll.length t.list
  let compare _ (a : handle) (b : handle) = Stdlib.compare a.label b.label
  let bits_per_label _ = P.bits

  let check t =
    Dll.check t.list;
    Dll.iter t.list (fun c ->
        if c.label < 0 || c.label >= universe then
          failwith "List_label: label outside universe")
end

include Make (struct
  let bits = 60
  let tau = 0.75
end)
