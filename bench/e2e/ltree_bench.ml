(* End-to-end benchmark: XML edit -> L-Tree relabel -> durable journal
   -> label table -> index repair -> query answer, on four workloads.

   ltree_bench --workload NAME --seed S [--seconds N] [--trace 0|1]
               [--out FILE] [--smoke]
   ltree_bench smoke BENCHMARK.json
   ltree_bench compare A.jsonl B.jsonl [--benchmark BENCHMARK.json]

   A run prints a human summary on stderr and, as the last line of
   stdout, one JSON object: the end-to-end metrics (untraced) or the
   per-layer metrics (--trace 1).  --out appends the full record to
   FILE; a traced run also writes FILE's span table next to it. *)

let usage () =
  prerr_endline
    "usage: ltree_bench --workload NAME --seed S [--seconds N] [--trace 0|1] \
     [--out FILE] [--smoke]\n\
    \       ltree_bench smoke BENCHMARK.json\n\
    \       ltree_bench compare A.jsonl B.jsonl [--benchmark BENCHMARK.json]";
  exit 2

let summary (r : Run.result) =
  Printf.eprintf "%s seed=%d trace=%b: %s, %d ops attempted, %d failed\n" r.workload
    r.seed r.trace
    (if r.correct then "correct" else "INCORRECT")
    r.attempted r.failed;
  List.iter
    (fun (x : Run.repeat) ->
      Printf.eprintf "  repeat: %d ops in %.2f s (+%.2f s of oracle checks), host factor %.3f\n"
        x.r_ops x.r_wall x.r_oracle x.r_factor)
    r.repeats;
  List.iter (fun f -> Printf.eprintf "  failure: %s\n" f) r.failures;
  List.iter
    (fun (name, v) ->
      let unit = match Run.find_metric name with Some x -> x.Run.unit | None -> "" in
      Printf.eprintf "  %-40s %14.3f %s\n" name v unit)
    r.metrics;
  if r.layers <> [] then begin
    Printf.eprintf "  traced self time by layer (us/op):\n";
    List.iter (fun (l, v) -> Printf.eprintf "    %-20s %10.2f\n" l v) r.layers
  end

let write_out path (r : Run.result) =
  Out_channel.with_open_gen [ Open_append; Open_creat ] 0o644 path (fun oc ->
      output_string oc (Run.record_json r ^ "\n"));
  if r.trace then
    Out_channel.with_open_bin (Filename.remove_extension path ^ ".flame.txt")
      (fun oc -> output_string oc r.flame)

let run_one args =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref false and out = ref "" and smoke = ref false in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest ->
      workload := v;
      parse rest
    | "--seed" :: v :: rest ->
      seed := int_of_string v;
      parse rest
    | "--seconds" :: v :: rest ->
      seconds := float_of_string v;
      parse rest
    | "--trace" :: ("0" | "1" as v) :: rest ->
      trace := String.equal v "1";
      parse rest
    | "--trace" :: rest ->
      trace := true;
      parse rest
    | "--out" :: v :: rest ->
      out := v;
      parse rest
    | "--smoke" :: rest ->
      smoke := true;
      parse rest
    | arg :: _ ->
      prerr_endline ("ltree_bench: unknown argument " ^ arg);
      usage ()
  in
  (try parse args with Failure _ -> usage ());
  match Workload.find_spec !workload with
  | None ->
    prerr_endline ("ltree_bench: unknown workload " ^ !workload);
    usage ()
  | Some spec ->
    let r = Run.run ~smoke:!smoke ~spec ~seed:!seed ~seconds:!seconds ~trace:!trace () in
    summary r;
    if String.length !out > 0 then write_out !out r;
    print_endline (Run.result_line r);
    if not r.correct then exit 1

(* Every workload at about 1% of its counter window, untraced and
   traced: the answers must check out and the metric names must be
   exactly the ones BENCHMARK.json lists. *)
let smoke benchmark =
  let j = Json.parse (In_channel.with_open_bin benchmark In_channel.input_all) in
  let names key = List.filter_map (fun e -> Json.str (Json.member "name" e)) (Json.list (Json.member key j)) in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let spec_names = List.map (fun (s : Workload.spec) -> s.name) Workload.specs in
  if List.sort compare (names "workloads") <> List.sort compare spec_names then
    problem "BENCHMARK.json workloads differ from the bench's";
  List.iter
    (fun e ->
      let field k = Option.value (Json.str (Json.member k e)) ~default:"" in
      match Run.find_metric (field "name") with
      | Some x ->
        if not (String.equal x.unit (field "unit") && String.equal x.better (field "better"))
        then problem "%s: unit or direction differs from the bench's" x.name
      | None -> problem "%s: not a metric the bench knows" (field "name"))
    (Json.list (Json.member "end_to_end" j) @ Json.list (Json.member "per_layer" j));
  List.iter
    (fun (spec : Workload.spec) ->
      List.iter
        (fun trace ->
          let r = Run.run ~smoke:true ~spec ~seed:1 ~seconds:0. ~trace () in
          if not r.correct then begin
            summary r;
            problem "%s trace=%b: run is not correct" spec.name trace
          end;
          let want = names (if trace then "per_layer" else "end_to_end") in
          List.iter
            (fun n -> if not (List.mem n r.printed) then problem "%s: %s missing" spec.name n)
            want;
          List.iter
            (fun n -> if not (List.mem n want) then problem "%s: %s not in BENCHMARK.json" spec.name n)
            r.printed)
        [ false; true ])
    Workload.specs;
  match List.rev !problems with
  | [] -> print_endline "ltree_bench smoke: ok"
  | ps ->
    List.iter (fun p -> prerr_endline ("ltree_bench smoke: " ^ p)) ps;
    exit 1

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "smoke"; benchmark ] -> smoke benchmark
  | "compare" :: a :: b :: rest ->
    let benchmark = match rest with [ "--benchmark"; p ] -> p | _ -> "BENCHMARK.json" in
    exit (Compare.main ~benchmark a b)
  | args -> run_one args
