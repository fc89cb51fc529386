type choice = { params : Params.t; cost : float; bits : float }

let lattice ?(max_f = 4096) () =
  let acc = ref [] in
  let s = ref 2 in
  while !s * 2 <= max_f do
    let m = ref 2 in
    while !s * !m <= max_f do
      acc := Params.make ~f:(!s * !m) ~s:!s :: !acc;
      incr m
    done;
    incr s
  done;
  List.rev !acc

let evaluate ~n params =
  let cost = Analysis.amortized_cost ~params ~n in
  let bits = Analysis.bits ~params ~n in
  { params; cost; bits }

let best ?max_f ~n ~(objective : choice -> float) ~feasible () =
  List.fold_left
    (fun acc params ->
      let c = evaluate ~n params in
      if not (feasible c) then acc
      else
        match acc with
        | Some b when objective b <= objective c -> acc
        | Some _ | None -> Some c)
    None (lattice ?max_f ())

let minimize_cost ?max_f ~n () =
  match
    best ?max_f ~n ~objective:(fun c -> c.cost) ~feasible:(fun _ -> true) ()
  with
  | Some c -> c
  | None -> assert false (* the lattice is never empty *)

let minimize_cost_bounded ?max_f ~n ~max_bits () =
  best ?max_f ~n
    ~objective:(fun c -> c.cost)
    ~feasible:(fun c -> c.bits <= max_bits)
    ()

let minimize_overall ?max_f ?(word_bits = 63) ~n ~query_weight ~update_weight
    () =
  if query_weight < 0. || update_weight < 0. then
    invalid_arg "Tuning.minimize_overall: negative weight";
  let objective c =
    let q = Analysis.query_cost ~params:c.params ~n ~word_bits in
    (query_weight *. q) +. (update_weight *. c.cost)
  in
  match best ?max_f ~n ~objective ~feasible:(fun _ -> true) () with
  | Some c -> c
  | None -> assert false
