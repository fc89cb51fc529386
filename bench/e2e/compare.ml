(* [ltree_bench compare A.jsonl B.jsonl]: judge run set B against run
   set A with the bounds BENCHMARK.json fixes, one row per workload.

   Per (workload, end-to-end metric) the verdict is worse / better when
   B's median moves past the bound, same when it stays inside, and
   unresolved when either set's own quartile spread exceeds the bound —
   unless every run of B beats (or loses to) every run of A.  Separately,
   every counter a run marks deterministic must be identical across all
   runs of a workload and seed, in both sets. *)

type run = {
  workload : string;
  seed : int;
  trace : bool;
  correct : bool;
  metrics : (string * float) list;
  det : string list;
}

let read_file path = In_channel.with_open_bin path In_channel.input_all

let runs_of path =
  String.split_on_char '\n' (read_file path)
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map (fun line ->
         let j = Json.parse line in
         let get k = Json.member k j in
         { workload = Option.value (Json.str (get "workload")) ~default:"?";
           seed = int_of_float (Option.value (Json.num (get "seed")) ~default:0.);
           trace = Json.num (get "trace") = Some 1.;
           correct = get "correct" = Some (Json.Bool true);
           metrics =
             (match get "metrics" with
              | Some (Json.Obj kv) ->
                List.filter_map
                  (fun (k, v) -> Option.map (fun f -> (k, f)) (Json.num (Json.member "value" v)))
                  kv
              | Some _ | None -> []);
           det = List.filter_map (fun v -> Json.str (Some v)) (Json.list (get "deterministic")) })

type bound = { name : string; better_lower : bool; bound : float }

let bounds_of path =
  Json.list (Json.member "end_to_end" (Json.parse (read_file path)))
  |> List.filter_map (fun e ->
         match
           (Json.str (Json.member "name" e), Json.str (Json.member "better" e),
            Json.num (Json.member "bound" e))
         with
         | Some name, Some better, Some bound ->
           Some { name; better_lower = String.equal better "lower"; bound }
         | _ -> None)

(* Python's [statistics.median] and [statistics.quantiles(n=4)] (the
   default "exclusive" method), so spreads read the same as the
   acceptance scripts compute them. *)
let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let quartiles xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let ld = Array.length a in
  if ld < 2 then (a.(0), a.(0))
  else
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 3)

let spread xs =
  let q1, q3 = quartiles xs in
  (q3 -. q1) /. Float.abs (median xs)

type verdict = Better | Same | Worse | Unresolved

let verdict_name = function
  | Better -> "better"
  | Same -> "same"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

let judge b xs ys =
  let worse_by a c = if b.better_lower then (c -. a) /. a else (a -. c) /. a in
  let ma = median xs and mb = median ys in
  let change = worse_by ma mb in
  let all_pairs f = List.for_all (fun y -> List.for_all (fun x -> f (worse_by x y)) xs) ys in
  let v =
    if Float.max (spread xs) (spread ys) > b.bound then
      if all_pairs (fun d -> d < 0.) then Better
      else if all_pairs (fun d -> d > 0.) then Worse
      else Unresolved
    else if change > b.bound then Worse
    else if change < -.b.bound then Better
    else Same
  in
  (v, change)

(* Deterministic counters that are not identical across [runs]. *)
let counter_drift runs =
  let by_seed = Hashtbl.create 4 in
  List.iter (fun r -> Hashtbl.replace by_seed r.seed (r :: Option.value (Hashtbl.find_opt by_seed r.seed) ~default:[])) runs;
  Hashtbl.fold
    (fun _ rs acc ->
      match rs with
      | [] -> acc
      | first :: _ ->
        List.filter
          (fun name ->
            let vals = List.filter_map (fun r -> List.assoc_opt name r.metrics) rs in
            match vals with
            | [] -> false
            | v :: rest -> not (List.for_all (fun w -> Float.equal v w) rest))
          first.det
        @ acc)
    by_seed []
  |> List.sort_uniq String.compare

let main ~benchmark a_path b_path =
  let bounds = bounds_of benchmark in
  let a = runs_of a_path and b = runs_of b_path in
  let workloads =
    List.sort_uniq String.compare (List.map (fun r -> r.workload) (a @ b))
  in
  let status = ref 0 in
  Printf.printf "%-16s %-11s %-12s %s\n" "workload" "verdict" "counters"
    "metric:verdict(B's median vs A's; + is worse)";
  List.iter
    (fun w ->
      let of_set set = List.filter (fun r -> String.equal r.workload w) set in
      let ra = of_set a and rb = of_set b in
      let untraced set = List.filter (fun r -> not r.trace) set in
      let values set name = List.filter_map (fun r -> List.assoc_opt name r.metrics) (untraced set) in
      let judged =
        List.filter_map
          (fun bd ->
            match (values ra bd.name, values rb bd.name) with
            | [], _ | _, [] -> None
            | xs, ys -> Some (bd.name, judge bd xs ys))
          bounds
      in
      let failed = List.exists (fun r -> not r.correct) (ra @ rb) in
      let drift = counter_drift (ra @ rb) in
      let has v = List.exists (fun (_, (v', _)) -> v' = v) judged in
      let overall =
        if failed || has Worse then Worse
        else if has Unresolved then Unresolved
        else if has Better then Better
        else Same
      in
      if overall = Worse || drift <> [] then status := 1;
      Printf.printf "%-16s %-11s %-12s %s\n" w
        (if failed then "failed" else verdict_name overall)
        (match drift with
         | [] -> "identical"
         | l -> Printf.sprintf "%d differ" (List.length l))
        (String.concat " "
           (List.map
              (fun (name, (v, change)) ->
                Printf.sprintf "%s:%s(%+.1f%%)" name (verdict_name v) (change *. 100.))
              judged));
      List.iter (fun name -> Printf.printf "  counter differs: %s\n" name) drift)
    workloads;
  !status
