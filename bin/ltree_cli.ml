(* ltree: a command-line front end to the library.

   Subcommands:
     generate   synthesize an XML document
     label      parse a document and print its L-Tree labels
     query      run an XPath over a document (dom or label engine)
     tune       recommend (f, s) for a workload (paper 3.2)
     bench      measure insertion cost for a scheme and pattern
     check      replay a workload, validating every registered invariant
                (cheap ones on a cadence, all at each checkpoint); the
                first failure is shrunk and dumped *)

open Cmdliner
open Ltree_core
open Ltree_xml
module Labeled_doc = Ltree_doc.Labeled_doc
module Counters = Ltree_metrics.Counters
module Xml_gen = Ltree_workload.Xml_gen
module Driver = Ltree_workload.Driver
module Pool = Ltree_exec.Pool

(* Shared --domains K flag: pool size for the commands that fan work
   across domains.  Defaults to $LTREE_DOMAINS, else 1 (serial). *)
let domains_arg =
  Arg.(value & opt int (Pool.default_size ())
       & info [ "domains" ] ~docv:"K"
           ~doc:"Fan work across $(docv) domains (1 = serial; defaults \
                 to \\$LTREE_DOMAINS).")

(* Run [f] with a pool of [k] domains, or no pool when serial. *)
let with_domains k f =
  if k <= 1 then f None
  else Pool.with_pool ~size:k (fun p -> f (Some p))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_out path content =
  match path with
  | None -> print_string content
  | Some p ->
    let oc = open_out_bin p in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc content)

let parse_doc path =
  try Parser.parse_string (read_file path) with
  | Parser.Error (msg, pos) ->
    Printf.eprintf "%s: parse error at %s: %s\n" path
      (Format.asprintf "%a" Token.pp_position pos)
      msg;
    exit 2
  | Sys_error e ->
    Printf.eprintf "%s\n" e;
    exit 2

(* Shared options *)

let f_arg =
  Arg.(value & opt int 4 & info [ "f" ] ~docv:"F" ~doc:"L-Tree parameter f.")

let s_arg =
  Arg.(value & opt int 2 & info [ "s" ] ~docv:"S" ~doc:"L-Tree parameter s.")

let params_of f s =
  try Params.make ~f ~s
  with Invalid_argument msg ->
    Printf.eprintf "invalid parameters: %s\n" msg;
    exit 2

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
         ~doc:"XML document.")

(* generate *)

let generate_cmd =
  let nodes =
    Arg.(value & opt int 1000 & info [ "nodes"; "n" ] ~docv:"N"
           ~doc:"Approximate DOM node count.")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED"
           ~doc:"Generator seed (deterministic).")
  in
  let out =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"PATH"
           ~doc:"Output path (stdout by default).")
  in
  let xmark_arg =
    Arg.(value & opt (some float) None & info [ "xmark" ] ~docv:"SCALE"
           ~doc:"Generate a structured XMark-style auction site at this \
                 scale instead of a random tree (1.0 is ~4-5k nodes).")
  in
  let run nodes seed out xmark =
    let doc =
      match xmark with
      | Some scale -> Xml_gen.xmark ~seed ~scale ()
      | None ->
        Xml_gen.generate ~seed
          (Xml_gen.default_profile ~target_nodes:nodes ())
    in
    write_out out (Serializer.to_string ~indent:2 doc ^ "\n")
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Synthesize an XMark-like XML document.")
    Term.(const run $ nodes $ seed $ out $ xmark_arg)

(* label *)

let label_cmd =
  let elements_only =
    Arg.(value & flag & info [ "elements" ]
           ~doc:"Print element (start, end, level) rows instead of stats.")
  in
  let run file f s elements_only =
    let doc = parse_doc file in
    let params = params_of f s in
    let counters = Counters.create () in
    let ldoc = Labeled_doc.of_document ~params ~counters doc in
    if elements_only then
      Dom.iter_preorder (Option.get doc.root) (fun n ->
          if Dom.is_element n then begin
            let l = Labeled_doc.label ldoc n in
            Printf.printf "%-20s %8d %8d %4d\n" (Dom.name n)
              l.Labeled_doc.start_pos l.Labeled_doc.end_pos
              l.Labeled_doc.level
          end)
    else begin
      let tree = Labeled_doc.tree ldoc in
      Printf.printf "tags:            %d\n" (Ltree.length tree);
      Printf.printf "tree height:     %d\n" (Ltree.height tree);
      Printf.printf "max label:       %d\n" (Ltree.max_label tree);
      Printf.printf "bits per label:  %d\n" (Ltree.bits_per_label tree);
      Printf.printf "internal nodes:  %d\n" (Ltree.internal_node_count tree);
      Printf.printf "formula bits:    %.2f\n"
        (Analysis.bits ~params ~n:(Ltree.length tree))
    end
  in
  Cmd.v
    (Cmd.info "label" ~doc:"Label a document and print labels or stats.")
    Term.(const run $ file_arg $ f_arg $ s_arg $ elements_only)

(* query *)

let query_cmd =
  let path_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"XPATH"
           ~doc:"Query, e.g. 'book//title'.")
  in
  let engine_arg =
    Arg.(value & opt (enum [ ("label", `Label); ("dom", `Dom) ]) `Label
         & info [ "engine" ] ~docv:"ENGINE"
             ~doc:"Evaluation strategy: label joins or DOM navigation.")
  in
  let show =
    Arg.(value & flag & info [ "print" ] ~doc:"Print matching subtrees.")
  in
  let run file path engine show f s =
    let doc = parse_doc file in
    let ast =
      try Ltree_xpath.Xpath_parser.parse path
      with Ltree_xpath.Xpath_parser.Error (msg, off) ->
        Printf.eprintf "bad XPath (offset %d): %s\n" off msg;
        exit 2
    in
    let results =
      match engine with
      | `Dom -> Ltree_xpath.Dom_eval.eval doc ast
      | `Label ->
        let ldoc = Labeled_doc.of_document ~params:(params_of f s) doc in
        let eng = Ltree_xpath.Label_eval.create ldoc in
        Ltree_xpath.Label_eval.eval eng ast
    in
    Printf.printf "%d matches\n" (List.length results);
    if show then
      List.iter
        (fun n -> print_endline (Serializer.node_to_string n))
        results
  in
  Cmd.v
    (Cmd.info "query" ~doc:"Evaluate an XPath over a document.")
    Term.(const run $ file_arg $ path_arg $ engine_arg $ show $ f_arg $ s_arg)

(* tune *)

let tune_cmd =
  let n_arg =
    Arg.(value & opt int 1_000_000 & info [ "n" ] ~docv:"N"
           ~doc:"Expected number of tags.")
  in
  let bits_arg =
    Arg.(value & opt (some float) None & info [ "max-bits" ] ~docv:"BITS"
           ~doc:"Optional label size budget.")
  in
  let run n bits =
    let c = Tuning.minimize_cost ~max_f:512 ~n () in
    Printf.printf "min update cost:  f=%d s=%d (cost %.1f, %.1f bits)\n"
      c.Tuning.params.Params.f c.Tuning.params.Params.s c.Tuning.cost
      c.Tuning.bits;
    match bits with
    | None -> ()
    | Some budget -> (
        match
          Tuning.minimize_cost_bounded ~max_f:512 ~n ~max_bits:budget ()
        with
        | Some c ->
          Printf.printf
            "within %.0f bits:  f=%d s=%d (cost %.1f, %.1f bits)\n" budget
            c.Tuning.params.Params.f c.Tuning.params.Params.s c.Tuning.cost
            c.Tuning.bits
        | None ->
          Printf.printf "no parameters fit %.0f bits at n=%d\n" budget n)
  in
  Cmd.v
    (Cmd.info "tune" ~doc:"Recommend (f, s) for a document size.")
    Term.(const run $ n_arg $ bits_arg)

(* bench *)

let bench_cmd =
  let n_arg =
    Arg.(value & opt int 16_384 & info [ "n" ] ~docv:"N"
           ~doc:"Initial bulk-loaded size.")
  in
  let ops_arg =
    Arg.(value & opt int 2_000 & info [ "ops" ] ~docv:"OPS"
           ~doc:"Number of insertions.")
  in
  let pattern_arg =
    let patterns =
      List.map (fun p -> (Driver.pattern_name p, p)) Driver.all_patterns
    in
    Arg.(value & opt (enum patterns) Driver.Uniform
         & info [ "pattern" ] ~docv:"PATTERN"
             ~doc:"uniform, hotspot, append or prepend.")
  in
  let scheme_arg =
    Arg.(value
         & opt (enum [ ("ltree", `Ltree); ("virtual", `Virtual);
                       ("sequential", `Seq); ("gap", `Gap);
                       ("list-label", `List) ])
             `Ltree
         & info [ "scheme" ] ~docv:"SCHEME" ~doc:"Labeling scheme.")
  in
  let run n ops pattern scheme f s =
    let params = params_of f s in
    let m : (module Ltree_labeling.Scheme.S) =
      match scheme with
      | `Ltree ->
        (module Ltree_core.Scheme_adapter.Make (struct
          let params = params
        end))
      | `Virtual ->
        (module Ltree_core.Scheme_adapter.Make_virtual (struct
          let params = params
        end))
      | `Seq -> (module Ltree_labeling.Sequential)
      | `Gap -> (module Ltree_labeling.Gap)
      | `List -> (module Ltree_labeling.List_label)
    in
    let module S = (val m) in
    let module D = Driver.Make (S) in
    let counters = Counters.create () in
    let d = D.init ~counters ~n () in
    let prng = Ltree_workload.Prng.create 7 in
    Counters.reset counters;
    let t0 = Sys.time () in
    D.run d prng pattern ~ops;
    let dt = Sys.time () -. t0 in
    Printf.printf "scheme=%s n=%d ops=%d pattern=%s\n" S.name n ops
      (Driver.pattern_name pattern);
    Printf.printf "relabels/op:  %.2f\n"
      (float_of_int (Counters.relabels counters) /. float_of_int ops);
    Printf.printf "accesses/op:  %.2f\n"
      (float_of_int (Counters.node_accesses counters) /. float_of_int ops);
    Printf.printf "bits:         %d\n" (S.bits_per_label (D.scheme d));
    Printf.printf "wall:         %.1f ms (%.2f us/op)\n" (dt *. 1e3)
      (dt *. 1e6 /. float_of_int ops)
  in
  Cmd.v
    (Cmd.info "bench" ~doc:"Measure insertion cost for a labeling scheme.")
    Term.(const run $ n_arg $ ops_arg $ pattern_arg $ scheme_arg $ f_arg
          $ s_arg)

(* shell: an interactive session over one labeled document *)

let shell_cmd =
  let run file f s =
    let doc = parse_doc file in
    let params = params_of f s in
    let counters = Counters.create () in
    let ldoc = Labeled_doc.of_document ~params ~counters doc in
    let engine = Ltree_xpath.Label_eval.create ldoc in
    let eval path = Ltree_xpath.Label_eval.eval_string engine path in
    let eval_or_err path =
      try Some (eval path)
      with Ltree_xpath.Xpath_parser.Error (msg, off) ->
        Printf.printf "bad XPath (offset %d): %s\n" off msg;
        None
    in
    let help () =
      print_string
        "commands:\n\
        \  q <xpath>              run a query (label joins)\n\
        \  show <xpath>           print matching subtrees\n\
        \  label <xpath>          print (start, end, level) of matches\n\
        \  append <xpath> <xml>   insert a fragment as last child of the \
         first match\n\
        \  delete <xpath>         delete the first match's subtree\n\
        \  stats                  tree height / labels / cost counters\n\
        \  save <path>            snapshot (document + labels)\n\
        \  write <path>           serialize the document only\n\
        \  help | quit\n"
    in
    let first_match path =
      match eval_or_err path with
      | Some (n :: _) -> Some n
      | Some [] ->
        print_endline "no matches";
        None
      | None -> None
    in
    help ();
    let continue_ = ref true in
    while !continue_ do
      print_string "ltree> ";
      match input_line stdin with
      | exception End_of_file -> continue_ := false
      | line -> (
          let line = String.trim line in
          let cmd, rest =
            match String.index_opt line ' ' with
            | None -> (line, "")
            | Some i ->
              ( String.sub line 0 i,
                String.trim
                  (String.sub line (i + 1) (String.length line - i - 1)) )
          in
          try
            match cmd with
            | "" -> ()
            | "quit" | "exit" -> continue_ := false
            | "help" -> help ()
            | "q" -> (
                match eval_or_err rest with
                | Some results ->
                  Printf.printf "%d matches\n" (List.length results)
                | None -> ())
            | "show" -> (
                match eval_or_err rest with
                | Some results ->
                  List.iter
                    (fun n ->
                      print_endline (Serializer.node_to_string ~indent:2 n))
                    results
                | None -> ())
            | "label" -> (
                match eval_or_err rest with
                | Some results ->
                  List.iter
                    (fun n ->
                      let l = Labeled_doc.label ldoc n in
                      Printf.printf "%-20s (%d, %d) level %d\n"
                        (match Dom.kind n with
                         | Dom.Element name -> name
                         | _ -> "#text")
                        l.Labeled_doc.start_pos l.Labeled_doc.end_pos
                        l.Labeled_doc.level)
                    results
                | None -> ())
            | "append" -> (
                match String.index_opt rest '<' with
                | None -> print_endline "usage: append <xpath> <xml>"
                | Some i ->
                  let path = String.trim (String.sub rest 0 i) in
                  let xml =
                    String.sub rest i (String.length rest - i)
                  in
                  (match first_match path with
                   | None -> ()
                   | Some target ->
                     let sub = Parser.parse_fragment xml in
                     Labeled_doc.insert_subtree ldoc ~parent:target
                       ~index:(Dom.child_count target) sub;
                     print_endline "inserted"))
            | "delete" -> (
                match first_match rest with
                | None -> ()
                | Some target ->
                  Labeled_doc.delete_subtree ldoc target;
                  print_endline "deleted")
            | "stats" ->
              let tree = Labeled_doc.tree ldoc in
              Printf.printf
                "slots %d (live %d), height %d, max label %d (%d bits)\n"
                (Ltree.length tree) (Ltree.live_length tree)
                (Ltree.height tree) (Ltree.max_label tree)
                (Ltree.bits_per_label tree);
              Format.printf "counters: %a@." Counters.pp counters
            | "save" ->
              Ltree_doc.Snapshot.save_file ldoc rest;
              Printf.printf "snapshot written to %s\n" rest
            | "write" ->
              let oc = open_out_bin rest in
              Fun.protect
                ~finally:(fun () -> close_out oc)
                (fun () ->
                  output_string oc
                    (Serializer.to_string ~indent:2
                       (Labeled_doc.document ldoc)));
              Printf.printf "document written to %s\n" rest
            | other -> Printf.printf "unknown command %S (try help)\n" other
          with
          | Parser.Error (msg, _) -> Printf.printf "bad XML: %s\n" msg
          | Invalid_argument msg | Failure msg -> print_endline msg)
    done
  in
  Cmd.v
    (Cmd.info "shell"
       ~doc:"Interactively query and edit a labeled document.")
    Term.(const run $ file_arg $ f_arg $ s_arg)

(* compare: run a query under both engines and report parity + timing *)

let compare_cmd =
  let path_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"XPATH"
           ~doc:"Query to race between the two engines.")
  in
  let run file path f s =
    let doc = parse_doc file in
    let ast =
      try Ltree_xpath.Xpath_parser.parse path
      with Ltree_xpath.Xpath_parser.Error (msg, off) ->
        Printf.eprintf "bad XPath (offset %d): %s\n" off msg;
        exit 2
    in
    let time fn =
      let t0 = Sys.time () in
      let r = fn () in
      (r, (Sys.time () -. t0) *. 1e3)
    in
    let dom_result, dom_ms = time (fun () -> Ltree_xpath.Dom_eval.eval doc ast) in
    let ldoc = Labeled_doc.of_document ~params:(params_of f s) doc in
    let engine = Ltree_xpath.Label_eval.create ldoc in
    let label_result, label_ms =
      time (fun () -> Ltree_xpath.Label_eval.eval engine ast)
    in
    let same =
      List.map Dom.id dom_result = List.map Dom.id label_result
    in
    Printf.printf "dom navigation:   %4d matches in %6.2f ms\n"
      (List.length dom_result) dom_ms;
    Printf.printf "label joins:      %4d matches in %6.2f ms\n"
      (List.length label_result) label_ms;
    Printf.printf "engines agree:    %b\n" same;
    if not same then exit 1
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:"Evaluate a query with both engines and check parity.")
    Term.(const run $ file_arg $ path_arg $ f_arg $ s_arg)

(* snapshot / restore *)

let snapshot_cmd =
  let out =
    Arg.(required & opt (some string) None & info [ "o"; "output" ]
           ~docv:"PATH" ~doc:"Snapshot output path.")
  in
  let run file f s out =
    let doc = parse_doc file in
    let ldoc = Labeled_doc.of_document ~params:(params_of f s) doc in
    Ltree_doc.Snapshot.save_file ldoc out;
    Printf.printf "%s: %d labeled tags snapshotted to %s\n" file
      (Ltree.length (Labeled_doc.tree ldoc))
      out
  in
  Cmd.v
    (Cmd.info "snapshot"
       ~doc:"Label a document and persist labels + document to a snapshot.")
    Term.(const run $ file_arg $ f_arg $ s_arg $ out)

let restore_cmd =
  let snap_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"SNAPSHOT"
           ~doc:"Snapshot file produced by `ltree snapshot`.")
  in
  let run snap =
    match Ltree_doc.Snapshot.load_file snap with
    | ldoc ->
      Labeled_doc.check ldoc;
      let tree = Labeled_doc.tree ldoc in
      Printf.printf
        "%s: restored %d slots (%d live), height %d, max label %d — all \
         labels preserved\n"
        snap (Ltree.length tree)
        (Ltree.live_length tree)
        (Ltree.height tree) (Ltree.max_label tree)
    | exception Ltree_doc.Snapshot.Corrupt msg ->
      Printf.eprintf "%s: corrupt snapshot: %s\n" snap msg;
      exit 2
  in
  Cmd.v
    (Cmd.info "restore"
       ~doc:"Load a snapshot, rebuilding the L-Tree from its labels (4.2).")
    Term.(const run $ snap_arg)

(* check *)

let check_cmd =
  let module I = Ltree_analysis.Invariant in
  let file_opt =
    Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE"
           ~doc:"XML document to load (a generated XMark document when \
                 omitted).")
  in
  let ops_arg =
    Arg.(value & opt int 300 & info [ "ops" ] ~docv:"OPS"
           ~doc:"Random operations to replay; sets the validation cadence.")
  in
  let seed_arg =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED"
           ~doc:"Workload seed (the run is deterministic).")
  in
  let inject_arg =
    Arg.(value & flag & info [ "inject-corruption" ]
           ~doc:"Deliberately desynchronize the twin trees mid-run: the \
                 run must fail and dump a counterexample.  A self-test \
                 of the harness.")
  in
  let storm_arg =
    Arg.(value & flag & info [ "inject-storm" ]
           ~doc:"Feed the amortized-cost accountant a synthetic \
                 relabeling storm mid-run: obs.amortized-bound must \
                 trip and the run must fail.  A self-test of the \
                 observability alarm.")
  in
  let dump_arg =
    Arg.(value & opt string "counterexample.txt" & info [ "dump" ]
           ~docv:"PATH"
           ~doc:"Where to write the minimized counterexample on failure.")
  in
  let bundle_arg =
    Arg.(value & opt (some string) None & info [ "bundle" ] ~docv:"PATH"
           ~doc:"On invariant failure, also dump the flight-recorder ring \
                 — the events leading up to the violation plus a metrics \
                 snapshot — as a JSONL diagnostic bundle to $(docv).")
  in
  let run file f s ops seed inject storm dump bundle domains =
    with_domains domains @@ fun pool ->
    let params = params_of f s in
    let make_doc =
      match file with
      | Some path -> fun () -> parse_doc path
      | None -> fun () -> Xml_gen.xmark ~seed ~scale:0.3 ()
    in
    let t = Harness.create ~params ?pool ~seed ~make_doc () in
    let reg = Harness.registry t in
    let prng = Ltree_workload.Prng.create seed in
    Harness.register_telemetry t;
    (* on the first failure (at op [i]): report, shrink the op log, dump,
       exit 1 *)
    let guard i = function
      | [] -> ()
      | failure :: _ as failures ->
        List.iter (fun f -> Format.printf "FAIL %a@." I.pp_failure f)
          failures;
        (match bundle with
         | None -> ()
         | Some path ->
           Ltree_obs.Telemetry.sample ~now:i ();
           let data =
             Ltree_obs.Recorder.dump ~reason:"invariant"
               ~attrs:
                 [ ("invariant", failure.I.name);
                   ("seed", string_of_int seed);
                   ("ops", string_of_int ops) ]
               ()
           in
           write_out (Some path) data;
           (match Ltree_obs.Recorder.validate data with
            | Ok n ->
              Printf.printf "flight bundle (%d lines) written to %s\n" n path
            | Error e ->
              Printf.eprintf "flight bundle failed validation: %s\n" e));
        let c, outcome =
          Harness.minimized_counterexample t ~make_doc failure
        in
        (match outcome with
         | Harness.Shrunk -> ()
         | Harness.At_budget ->
           Printf.printf
             "shrink stopped at the budget of %d replays; the dump holds \
              the smallest failing log found\n"
             I.shrink_budget
         | Harness.Not_reproduced ->
           Printf.printf
             "the failure did not reproduce: a replay of the whole log \
              passes every invariant, so it was not shrunk\n");
        I.Counterexample.save ~path:dump c;
        Format.printf "%a@." I.Counterexample.pp c;
        Printf.printf "%s (%d ops) written to %s\n"
          (match outcome with
           | Harness.Not_reproduced -> "unreproduced failure log"
           | Harness.Shrunk | Harness.At_budget -> "minimized counterexample")
          (List.length c.I.Counterexample.ops)
          dump;
        exit 1
    in
    (* cheap invariants (and a gauge sample) about 40 times per run;
       every invariant at each of the four checkpoints and at the end *)
    let cheap_every = max 1 (ops / 40)
    and checkpoint_every = max 1 (ops / 4) in
    Printf.printf
      "%s: %d ops, seed %d; %d invariants, cheap ones every %d ops\n%!"
      (match file with Some f -> f | None -> "generated XMark document")
      ops seed (I.size reg) cheap_every;
    for i = 1 to ops do
      List.iter (Harness.apply t) (Harness.random_ops prng);
      if inject && i = max 1 (ops / 2) then
        Harness.apply t Harness.corrupt_op;
      if storm && i = max 1 (ops / 2) then
        Harness.apply t Harness.storm_op;
      if i mod cheap_every = 0 then begin
        Ltree_obs.Telemetry.sample ~now:i ();
        guard i (I.run_all ~depth:I.Cheap reg)
      end;
      if i mod checkpoint_every = 0 then begin
        guard i (I.run_all reg);
        Harness.apply t Harness.checkpoint_op;
        Printf.printf "  deep checkpoint at op %d: ok\n%!" i
      end
    done;
    guard ops (I.run_all reg);
    Printf.printf "%d ops replayed; all %d registered invariants hold\n" ops
      (I.size reg);
    List.iter (fun n -> Printf.printf "  ok %s\n" n) (I.names reg)
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Replay a workload, validating cheap invariants about 40 \
             times per run and every registered invariant at each of \
             four checkpoints and at the end; the first failure is \
             shrunk to a minimized counterexample and dumped.")
    Term.(const run $ file_opt $ f_arg $ s_arg $ ops_arg $ seed_arg
          $ inject_arg $ storm_arg $ dump_arg $ bundle_arg $ domains_arg)

(* The crash matrices' one front door.  An instance is a library matrix
   plus what the command line needs of it: the flags that select it, its
   header, its cell parser and printer, its sweep and its report.
   [run_matrix] does everything else for every instance alike: parses
   --only and --inject-cell-failure with the instance's [parse], prints
   decile progress, turns the engine's Invalid_argument (a config count
   below 1, a cell naming nothing) into a usage error, prints the
   report, and when a cell failed lists it with the command that reruns
   just that cell, dumps the --bundle and exits 1. *)

module Matrix = Ltree_recovery.Matrix

type ('id, 'outcome, 'summary) matrix_instance = {
  select : string list;  (** crash-matrix flags that pick this instance *)
  header : string;
  parse : string -> 'id option;
  example : string;
  name : 'id -> string;
  run :
    ?pool:Pool.t ->
    ?progress:(done_cells:int -> total:int -> unit) ->
    ?only:'id ->
    ?inject:'id ->
    Matrix.config ->
    'summary;
  report : 'summary -> ('id, 'outcome) Matrix.sweep;
}

let matrix_config_args (c : Matrix.config) =
  Printf.sprintf "--ops %d --seed %d --nodes %d --group-commit %d \
                  --checkpoint-every %d"
    c.Matrix.ops c.Matrix.seed c.Matrix.doc_nodes c.Matrix.group_commit
    c.Matrix.checkpoint_every

let print_matrix_header what (c : Matrix.config) domains =
  Printf.printf
    "%s %d ops, doc ~%d nodes, group commit %d, checkpoint every %d, seed \
     %d, %d domain(s)\n%!"
    what c.Matrix.ops c.Matrix.doc_nodes c.Matrix.group_commit
    c.Matrix.checkpoint_every c.Matrix.seed (max 1 domains)

(* The bundle of a failed sweep names its first failed cell and carries
   that cell's rerun command, which is all `bundle --replay` needs. *)
let write_matrix_bundle path ~cell ~failure ~rerun =
  let data =
    Ltree_obs.Recorder.dump ~reason:"matrix-cell"
      ~attrs:
        [ ("cell", cell); ("failure", failure); ("rerun", rerun) ]
      ()
  in
  write_out (Some path) data;
  match Ltree_obs.Recorder.validate data with
  | Ok n ->
    Printf.printf "flight bundle (%d lines, cell %s) written to %s\n" n cell
      path
  | Error e -> Printf.eprintf "flight bundle failed validation: %s\n" e

let run_matrix inst config ~only ~inject ~bundle ~domains =
  let cell flag =
    Option.map (fun s ->
        match inst.parse s with
        | Some c -> c
        | None ->
          Printf.eprintf "cannot parse %s %S (expected e.g. %s)\n" flag s
            inst.example;
          exit 2)
  in
  let only = cell "--only" only in
  let inject = cell "--inject-cell-failure" inject in
  let last = ref 0 in
  let progress ~done_cells ~total =
    let decile = done_cells * 10 / total in
    if decile > !last then begin
      last := decile;
      Printf.printf "  ...%d%% (%d/%d cells)\n%!" (decile * 10) done_cells
        total
    end
  in
  let summary =
    try
      with_domains domains @@ fun pool ->
      print_matrix_header inst.header config domains;
      inst.run ?pool ~progress ?only ?inject config
    with Invalid_argument msg ->
      Printf.eprintf "%s\n" msg;
      exit 2
  in
  let sweep = inst.report summary in
  let failed =
    List.filter
      (fun c -> match c.Matrix.failures with [] -> false | _ -> true)
      sweep.Matrix.cells
  in
  let rerun c =
    String.concat " "
      (("crash-matrix" :: inst.select)
       @ [ "--only"; inst.name c.Matrix.id; matrix_config_args config ])
  in
  List.iter
    (fun c ->
      Printf.printf "  cell %s:\n" (inst.name c.Matrix.id);
      List.iter (fun f -> Printf.printf "    %s\n" f) c.Matrix.failures;
      Printf.printf "    rerun: ltree %s\n" (rerun c))
    failed;
  match failed with
  | [] -> ()
  | first :: _ ->
    Option.iter
      (fun path ->
        (* After a sweep the ring holds whichever cells ran last.  Cells
           are deterministic, so rerun just the first failed one,
           serially, on an empty ring sized to keep all of it. *)
        Ltree_obs.Span.reset ();
        Ltree_obs.Span.set_capacity_for ~ops:config.Matrix.ops;
        ignore (inst.run ~only:first.Matrix.id ?inject config);
        write_matrix_bundle path ~cell:(inst.name first.Matrix.id)
          ~failure:(String.concat "; " first.Matrix.failures)
          ~rerun:(rerun first))
      bundle;
    exit 1

(* The five Matrix.config options, defaulting to [d]. *)
let matrix_args (d : Matrix.config) =
  let ops =
    Arg.(value & opt int d.Matrix.ops & info [ "ops" ] ~docv:"OPS"
           ~doc:"Length of the seeded operation script.")
  in
  let seed =
    Arg.(value & opt int d.Matrix.seed & info [ "seed" ] ~docv:"SEED"
           ~doc:"Seed for the script and every injection choice.")
  in
  let nodes =
    Arg.(value & opt int d.Matrix.doc_nodes & info [ "nodes" ] ~docv:"N"
           ~doc:"Target size of the base document.")
  in
  let group_commit =
    Arg.(value & opt int d.Matrix.group_commit
         & info [ "group-commit" ] ~docv:"G"
             ~doc:"Journal records batched per fsync, per store.")
  in
  let checkpoint_every =
    Arg.(value & opt int d.Matrix.checkpoint_every
         & info [ "checkpoint-every" ] ~docv:"K"
             ~doc:"Operations between snapshot rotations.")
  in
  Term.(
    const (fun seed ops doc_nodes group_commit checkpoint_every ->
        { Matrix.seed; ops; doc_nodes; group_commit; checkpoint_every })
    $ seed $ ops $ nodes $ group_commit $ checkpoint_every)

let print_matrix_verdict what (sweep : (_, _) Matrix.sweep) =
  if Matrix.ok sweep then
    Printf.printf "%s clean: all %d cells verified\n" what
      (List.length sweep.Matrix.cells)
  else
    Printf.printf "FAIL: %d cells failed verification\n"
      sweep.Matrix.failed_cells

(* crash-matrix: the store matrix, or the replica or shard one *)

let crash_matrix_cmd =
  let module M = Ltree_recovery.Crash_matrix in
  let module R = Ltree_replication.Repl_matrix in
  let module SM = Ltree_shard.Shard_matrix in
  let module F = Ltree_recovery.Fault in
  let recovered_line cells =
    let n =
      List.length
        (List.filter
           (fun c ->
             match c.Matrix.outcome with
             | Matrix.Recovered _ -> true
             | Matrix.Unrecoverable _ -> false)
           cells)
    in
    Printf.printf "recovered: %d cells; pre-first-checkpoint losses: %d\n" n
      (List.length cells - n)
  in
  let store_matrix =
    { select = [];
      header = "crash matrix:";
      parse = M.parse_cell;
      example = "P37/torn";
      name = M.cell_name;
      run = M.run;
      report =
        (fun s ->
          let cells = s.M.sweep.Matrix.cells in
          Printf.printf
            "swept %d write points x %d modes = %d cells (%d init-phase \
             points)\n"
            s.M.total_points
            (List.length F.all_modes)
            (List.length cells) s.M.init_points;
          recovered_line cells;
          Printf.printf "damage detected during recovery:\n";
          List.iter
            (fun (kind, n) -> Printf.printf "  %-20s %d\n" kind n)
            s.M.fault_counts;
          print_matrix_verdict "crash matrix" s.M.sweep;
          s.M.sweep) }
  in
  let replica_matrix =
    { select = [ "--replica" ];
      header = "replica crash matrix:";
      parse = R.parse_cell;
      example = "primary:P12/torn, replica:P5/clean or channel:C9/flip";
      name = R.cell_name;
      run = R.run;
      report =
        (fun s ->
          Printf.printf "%s\n" (R.describe s);
          s.R.sweep) }
  in
  let shard_matrix shards =
    { select = [ "--shards"; string_of_int shards ];
      header = Printf.sprintf "shard crash matrix: %d shards," shards;
      parse = SM.parse_cell;
      example = "S1/P37/torn";
      name = SM.cell_name;
      run =
        (fun ?pool ?progress ?only ?inject matrix ->
          SM.run ?pool ?progress ?only ?inject { SM.matrix; shards });
      report =
        (fun s ->
          let cells = s.SM.sweep.Matrix.cells in
          Array.iteri
            (fun j total ->
              Printf.printf "  shard %d: %d write points (%d init-phase)\n" j
                total s.SM.init_points.(j))
            s.SM.total_points;
          Printf.printf "swept %d cells across %d modes\n" (List.length cells)
            (List.length F.all_modes);
          recovered_line cells;
          print_matrix_verdict "shard matrix" s.SM.sweep;
          s.SM.sweep) }
  in
  let only_arg =
    Arg.(value & opt (some string) None & info [ "only" ] ~docv:"CELL"
           ~doc:"Rerun a single cell named as in the failure output \
                 (store cells: $(b,P37/torn); shard cells: \
                 $(b,S1/P37/torn); replica cells: $(b,primary:P12/flip), \
                 $(b,replica:P5/clean), $(b,channel:C9/torn)).")
  in
  let replica_arg =
    Arg.(value & flag & info [ "replica" ]
           ~doc:"Run the replica-level matrix instead: kill the primary \
                 mid-commit, the replica mid-apply, or sever the channel \
                 mid-record; recover or promote; verify the survivor \
                 against the oracle prefix.")
  in
  let shards_arg =
    Arg.(value & opt (some int) None & info [ "shards" ] ~docv:"K"
           ~doc:"Run the shard-level matrix over $(docv) subtree shards \
                 instead: crash one shard's store at every one of its \
                 write points, recover that shard alone, and verify it, \
                 its live siblings and the router against bit-exact \
                 oracles.")
  in
  let inject_cell_arg =
    Arg.(value & opt (some string) None
         & info [ "inject-cell-failure" ] ~docv:"CELL"
             ~doc:"Force the named cell to report a synthetic \
                   verification failure — a self-test of the failure \
                   path and (with $(b,--bundle)) of the flight-recorder \
                   dump.")
  in
  let bundle_arg =
    Arg.(value & opt (some string) None & info [ "bundle" ] ~docv:"PATH"
           ~doc:"When any cell fails, dump the flight-recorder ring as a \
                 JSONL bundle to $(docv); the header names the failing \
                 cell and its rerun command, so $(b,ltree bundle \
                 --replay) can re-run exactly that cell.")
  in
  let run config only replica shards inject bundle domains =
    let front inst = run_matrix inst config ~only ~inject ~bundle ~domains in
    match (replica, shards) with
    | true, Some _ ->
      Printf.eprintf "--replica and --shards select different matrices\n";
      exit 2
    | true, None -> front replica_matrix
    | false, Some k -> front (shard_matrix k)
    | false, None -> front store_matrix
  in
  Cmd.v
    (Cmd.info "crash-matrix"
       ~doc:"Crash the durable store (a primary/replica pair with \
             --replica, one of K subtree shards with --shards K) at every \
             write point in every corruption mode, recover or promote, \
             and verify against a bit-exact oracle.")
    Term.(const run $ matrix_args M.default_config $ only_arg $ replica_arg
          $ shards_arg $ inject_cell_arg $ bundle_arg $ domains_arg)

(* trace / metrics: the observability front ends.  Both replay the same
   deterministic harness workload `ltree check` uses — it exercises the
   L-Tree twins, the labeled document, the synced relational store and
   the durable recovery twin, so the resulting trace spans every
   layer. *)

let observed_harness ~params ~seed =
  Harness.create ~params ~seed
    ~make_doc:(fun () -> Xml_gen.xmark ~seed ~scale:0.3 ())
    ()

(* Replay [ops] random operations on [t], checkpointing every quarter of
   the run, then validate every invariant unless [~validate:false].
   With [~sample_every:n] the registered gauges are sampled every [n]
   operations and once more at the very end, after the validation. *)
let run_observed_workload ?sample_every ?(validate = true) t ~seed ~ops =
  let prng = Ltree_workload.Prng.create seed in
  let sample now = Ltree_obs.Telemetry.sample ~now () in
  for i = 1 to ops do
    List.iter (Harness.apply t) (Harness.random_ops prng);
    if i mod (max 1 (ops / 4)) = 0 then
      Harness.apply t Harness.checkpoint_op;
    match sample_every with Some n when i mod n = 0 -> sample i | _ -> ()
  done;
  (* Deep validation flushes the store, runs every structural join and
     replays recovery — the relstore and query spans come from here. *)
  (if validate then
     match Ltree_analysis.Invariant.run_all (Harness.registry t) with
     | [] -> ()
     | failure :: _ ->
       Format.eprintf "invariant failed during workload: %a@."
         Ltree_analysis.Invariant.pp_failure failure;
       exit 1);
  if Option.is_some sample_every then sample (ops + 1)

(* A view folded from the event ring -- a trace, a bundle, a waterfall
   -- is whole only when the ring kept every entry; exit 1 otherwise. *)
let require_whole_ring what =
  let dropped = Ltree_obs.Span.dropped () in
  if dropped > 0 then begin
    Printf.eprintf "the event ring overwrote %d entries: %s would be partial\n"
      dropped what;
    exit 1
  end

(* The ring's entries for a fold that must be whole, such as a metrics
   exposition: [cmd] prints the error and exits 1 when the ring
   overwrote any entry. *)
let ring_entries cmd =
  match Ltree_obs.Exposition.of_ring () with
  | Ok entries -> entries
  | Error e ->
    Printf.eprintf "%s: %s\n" cmd e;
    exit 1

let ops_workload_arg =
  Arg.(value & opt int 1000 & info [ "ops" ] ~docv:"OPS"
         ~doc:"Workload operations to replay.")

let seed_workload_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED"
         ~doc:"Workload seed (the run is deterministic).")

let trace_cmd =
  let out =
    Arg.(value & opt (some string) None & info [ "o"; "output" ]
           ~docv:"PATH" ~doc:"Write the JSONL trace here (stdout by \
                              default).")
  in
  let flame_arg =
    Arg.(value & flag & info [ "flame" ]
           ~doc:"Print a text flamegraph (self-time by span path) \
                 instead of JSONL.")
  in
  let verify_arg =
    Arg.(value & flag & info [ "verify" ]
           ~doc:"Re-parse every emitted JSONL line and assert the span \
                 tree covers the ltree, relstore and recovery layers; \
                 exit non-zero otherwise.")
  in
  let run f s ops seed out flame verify =
    let params = params_of f s in
    Ltree_obs.Span.set_capacity_for ~ops;
    run_observed_workload (observed_harness ~params ~seed) ~seed ~ops;
    require_whole_ring "the trace";
    let records = Ltree_obs.Span.records () in
    if flame then write_out out (Ltree_obs.Trace.flamegraph records)
    else begin
      let jsonl = Ltree_obs.Trace.to_jsonl records in
      write_out out jsonl;
      if verify then begin
        (match Ltree_obs.Trace.validate_jsonl jsonl with
         | Ok [] ->
           Printf.eprintf "trace is empty\n";
           exit 1
         | Ok lines ->
           Printf.eprintf "%d trace lines parse as JSON\n" (List.length lines)
         | Error detail ->
           Printf.eprintf "invalid JSONL: %s\n" detail;
           exit 1);
        let covered prefix =
          List.exists
            (fun r ->
              String.length r.Ltree_obs.Trace.name >= String.length prefix
              && String.equal
                   (String.sub r.Ltree_obs.Trace.name 0
                      (String.length prefix))
                   prefix)
            records
        in
        List.iter
          (fun layer ->
            if not (covered (layer ^ ".")) then begin
              Printf.eprintf "no %s-layer spans in the trace\n" layer;
              exit 1
            end)
          [ "ltree"; "relstore"; "recovery" ];
        Printf.eprintf
          "span tree covers the ltree, relstore and recovery layers\n"
      end
    end
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Replay a workload and dump the span trace as JSONL (or a \
             text flamegraph).  The ring is sized from $(b,--ops); a run \
             that overwrites any entry exits 1.")
    Term.(const run $ f_arg $ s_arg $ ops_workload_arg $ seed_workload_arg
          $ out $ flame_arg $ verify_arg)

let metrics_cmd =
  let out =
    Arg.(value & opt (some string) None & info [ "o"; "output" ]
           ~docv:"PATH" ~doc:"Write the exposition here (stdout by \
                              default).")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Emit one JSON object (histograms, counters and the \
                 amortized-bound verdict) instead of Prometheus text.")
  in
  let run f s ops seed out json =
    let params = params_of f s in
    Ltree_obs.Span.set_enabled true;
    Ltree_obs.Span.set_capacity_for ~ops;
    let t = observed_harness ~params ~seed in
    run_observed_workload t ~seed ~ops;
    let entries = ring_entries "metrics" in
    let acct = Harness.accountant t in
    if json then
      let module A = Ltree_obs.Accountant in
      let module Json = Ltree_obs.Json in
      let int i = Json.Num (float_of_int i) in
      let extra =
        [ ( "amortized_bound",
            Json.Obj
              [ ("ok", Json.Bool (A.ok acct));
                ("insertions", int (A.insertions acct));
                ("c", Json.Num (A.c acct)); ("window", int (A.window acct));
                ("breaches", int (List.length (A.breaches acct))) ] ) ]
      in
      write_out out
        (Json.to_string (Ltree_obs.Exposition.expose_json ~extra entries)
        ^ "\n")
    else begin
      let buf = Buffer.create 4096 in
      Buffer.add_string buf (Ltree_obs.Exposition.expose entries);
      Ltree_obs.Exposition.expose_counters buf ~prefix:"ltree_doc"
        (Harness.doc_counters t);
      Buffer.add_string buf
        (Printf.sprintf
           "# obs.amortized-bound: %s (%d insertions, c=%.2f, window=%d, \
            breaches=%d)\n"
           (if Ltree_obs.Accountant.ok acct then "ok" else "BREACHED")
           (Ltree_obs.Accountant.insertions acct)
           (Ltree_obs.Accountant.c acct)
           (Ltree_obs.Accountant.window acct)
           (List.length (Ltree_obs.Accountant.breaches acct)));
      write_out out (Buffer.contents buf)
    end
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:"Replay a workload with tracing on and print the histograms \
             folded from the event ring in Prometheus text exposition \
             format (or one JSON object with --json).  The ring is sized \
             from $(b,--ops); a run that overwrites any entry exits 1.")
    Term.(const run $ f_arg $ s_arg $ ops_workload_arg $ seed_workload_arg
          $ out $ json_arg)

(* replicate *)

let replicate_cmd =
  let module M = Ltree_recovery.Crash_matrix in
  let module F = Ltree_recovery.Fault in
  let module D = Ltree_recovery.Durable_doc in
  let module Rp = Ltree_replication in
  let noise_arg =
    Arg.(value & opt int 0 & info [ "noise-every" ] ~docv:"N"
           ~doc:"Damage every $(docv)th chunk on both channels with a \
                 seeded drop / tear / bit-flip / split / delay \
                 (0 = clean).")
  in
  let failover_arg =
    Arg.(value & flag & info [ "failover" ]
           ~doc:"After catch-up, sever the channels and promote the \
                 replica; verify the survivor against the oracle.")
  in
  let metrics_arg =
    Arg.(value & opt ~vopt:(Some "-") (some string) None
         & info [ "metrics" ] ~docv:"PATH"
             ~doc:"Write the run's Prometheus exposition to $(docv) \
                   ($(b,-) or bare flag for stdout).")
  in
  let trace_arg =
    Arg.(value & flag & info [ "trace" ]
           ~doc:"Stamp every journal record into the event ring as it \
                 passes each stage and print the per-record waterfall \
                 (append → ship → deliver → apply → readable, in \
                 virtual-clock ticks) folded from the ring.  The ring \
                 is sized from $(b,--ops); a run that overwrites any \
                 entry exits 1 without printing a partial waterfall.")
  in
  let run (config : Matrix.config) noise_every failover metrics trace =
    let { Matrix.seed; ops; doc_nodes = nodes; group_commit; checkpoint_every }
        =
      config
    in
    if trace || Option.is_some metrics then begin
      Ltree_obs.Span.set_enabled true;
      Ltree_obs.Span.set_capacity_for ~ops
    end;
    if trace then Ltree_obs.Causal.set_enabled true;
    let script = M.generate_script config in
    let oracle = Matrix.build_oracle (M.base_ldoc config) script in
    let psim = F.create_sim () and rsim = F.create_sim () in
    let plan =
      if noise_every <= 0 then Rp.Channel.ideal
      else
        { Rp.Channel.ideal with
          Rp.Channel.seed;
          noise_every;
          noise_modes = F.channel_modes }
    in
    let sc =
      { Rp.Session.default_config with
        Rp.Session.group_commit;
        replica_group_commit = group_commit;
        checkpoint_every;
        down_plan = plan;
        up_plan = plan;
        attach_pumps = 256 }
    in
    let session =
      Rp.Session.create ~config:sc ~primary_io:(F.sim_io psim)
        ~primary_dir:"p" ~replica_io:(F.sim_io rsim) ~replica_dir:"r"
        (M.base_ldoc config)
    in
    let peak_lag = ref 0 in
    List.iter
      (fun e ->
        Rp.Session.apply session e;
        match Rp.Replica.lag (Rp.Session.replica session) with
        | Some l when l > !peak_lag -> peak_lag := l
        | Some _ | None -> ())
      script;
    let caught = Rp.Session.quiesce ~max_pumps:(1024 + (16 * ops)) session in
    let sh = Rp.Shipper.stats (Rp.Session.shipper session) in
    let rs = Rp.Replica.stats (Rp.Session.replica session) in
    let down = Rp.Channel.stats (Rp.Session.down session) in
    Printf.printf
      "replicated %d ops (doc ~%d nodes, group commit %d, checkpoint \
       every %d, seed %d%s)\n"
      ops nodes group_commit checkpoint_every seed
      (if noise_every > 0 then
         Printf.sprintf ", noise every %d chunks" noise_every
       else "");
    Printf.printf
      "  caught up: %b (primary seq %d, replica %s, peak lag %d, %d \
       ticks)\n"
      caught
      (D.last_seq (Rp.Session.primary session))
      (match Rp.Replica.applied_seq (Rp.Session.replica session) with
       | Some s -> string_of_int s
       | None -> "unbootstrapped")
      !peak_lag (Rp.Session.clock session);
    Printf.printf
      "  shipper: %d frames, %d retries, %d backoff ticks, %d snapshots, \
       %d handshakes, %d acks\n"
      sh.Rp.Shipper.frames_sent sh.Rp.Shipper.retries
      sh.Rp.Shipper.backoff_ticks sh.Rp.Shipper.snapshots_sent
      sh.Rp.Shipper.handshakes_sent sh.Rp.Shipper.acks_seen;
    Printf.printf
      "  replica: %d applied, %d dup, %d bad, %d stashed, %d snapshots, \
       %d handshakes\n"
      rs.Rp.Replica.applied_frames rs.Rp.Replica.dup_frames
      rs.Rp.Replica.bad_frames rs.Rp.Replica.stashed
      rs.Rp.Replica.snapshots_installed rs.Rp.Replica.handshakes;
    Printf.printf
      "  channel down: %d sent, %d delivered, %d dropped, %d damaged, %d \
       delayed\n"
      down.Rp.Channel.sent down.Rp.Channel.delivered down.Rp.Channel.dropped
      down.Rp.Channel.damaged down.Rp.Channel.delayed;
    if not caught then begin
      (match Rp.Shipper.failed (Rp.Session.shipper session) with
       | Some e -> Format.printf "  shipper parked: %a@." Rp.Shipper.pp_error e
       | None -> ());
      exit 1
    end;
    if trace then begin
      let module C = Ltree_obs.Causal in
      require_whole_ring "the waterfall";
      let trs = C.records (Ltree_obs.Span.entries ()) in
      print_string (C.waterfall trs);
      let e2e = List.filter_map C.e2e trs in
      Printf.printf "  %d records, %d complete, %d e2e ticks in total\n"
        (List.length trs) (List.length e2e)
        (List.fold_left ( + ) 0 e2e)
    end;
    if failover then begin
      let now = Rp.Session.clock session in
      Rp.Channel.sever (Rp.Session.down session) ~now;
      Rp.Channel.sever (Rp.Session.up session) ~now;
      match Rp.Session.failover session with
      | Error e ->
        Format.printf "failover refused: %a@." Rp.Replica.pp_error e;
        exit 1
      | Ok (report, promoted) ->
        (* Caught up, so the survivor must hold every operation. *)
        let failures =
          Matrix.check_survivor oracle ~io:(F.sim_io rsim) ~dir:"r"
            ~synced:ops ~attempted:ops promoted
        in
        let same = List.is_empty failures in
        Printf.printf
          "  failover: promoted at seq %d, epoch %d, %d entries dropped: \
           %s\n"
          (D.last_seq promoted) (D.epoch promoted) report.D.entries_dropped
          (if same then "survivor verified against oracle"
           else "SURVIVOR DIVERGES FROM ORACLE");
        List.iter (Printf.eprintf "  %s\n") failures;
        if not same then exit 1
    end;
    match metrics with
    | None -> ()
    | Some p ->
      let entries = ring_entries "replicate" in
      write_out
        (if String.equal p "-" then None else Some p)
        (Ltree_obs.Exposition.expose entries)
  in
  Cmd.v
    (Cmd.info "replicate"
       ~doc:"Drive a primary/replica pair over injectable channels: \
             catch-up, lag, retries, optional failover, and the \
             replication histograms.")
    Term.(const run $ matrix_args M.default_config $ noise_arg $ failover_arg
          $ metrics_arg $ trace_arg)

(* bundle: the flight recorder's front door.  With no mode flag it
   replays the observed workload and dumps the ring; --validate checks
   an existing bundle file; --replay runs the rerun command a matrix
   bundle's header records (the loop a failing CI matrix closes: the
   failure dumps a bundle, the bundle replays the cell).  [eval] runs
   one command line through the CLI's own command group. *)

let bundle_cmd ~eval =
  let out =
    Arg.(value & opt (some string) None & info [ "o"; "output" ]
           ~docv:"PATH" ~doc:"Write the bundle here (stdout by default).")
  in
  let validate_arg =
    Arg.(value & opt (some file) None & info [ "validate" ] ~docv:"BUNDLE"
           ~doc:"Validate an existing bundle file and exit.")
  in
  let replay_arg =
    Arg.(value & opt (some file) None & info [ "replay" ] ~docv:"BUNDLE"
           ~doc:"Validate a matrix bundle and run the rerun command its \
                 header records: the failed cell alone, at the run's own \
                 seed and parameters.")
  in
  let run f s ops seed out validate replay =
    let valid path =
      let data = read_file path in
      match Ltree_obs.Recorder.validate data with
      | Ok n -> (data, n)
      | Error e ->
        Printf.eprintf "%s: invalid bundle: %s\n" path e;
        exit 1
    in
    match (validate, replay) with
    | Some path, _ ->
      let _, n = valid path in
      Printf.printf "%s: valid bundle (%d lines)\n" path n
    | None, Some path -> (
      let data, _ = valid path in
      match Ltree_obs.Recorder.attr_of_bundle data "rerun" with
      | None ->
        Printf.eprintf "%s: bundle header records no rerun command\n" path;
        exit 2
      | Some line -> (
        Printf.printf "replaying: ltree %s\n%!" line;
        match eval (String.split_on_char ' ' line) with
        | 0 -> ()
        | code -> exit code))
    | None, None ->
      let t = observed_harness ~params:(params_of f s) ~seed in
      Harness.register_telemetry t;
      Ltree_obs.Span.set_capacity_for ~ops;
      (* about 40 gauge samples, at check's cheap-invariant cadence *)
      run_observed_workload ~sample_every:(max 1 (ops / 40)) t ~seed ~ops;
      require_whole_ring "the bundle";
      let data =
        Ltree_obs.Recorder.dump ~reason:"explicit"
          ~attrs:
            [ ("seed", string_of_int seed); ("ops", string_of_int ops) ]
          ()
      in
      (match Ltree_obs.Recorder.validate data with
       | Ok n ->
         (* header, one line per ring entry, metrics, footer *)
         Printf.eprintf "bundle: %d lines, %d ring entries\n" n (n - 3)
       | Error e ->
         Printf.eprintf "generated bundle failed validation: %s\n" e;
         exit 1);
      write_out out data
  in
  Cmd.v
    (Cmd.info "bundle"
       ~doc:"Dump, validate or replay a flight-recorder diagnostic \
             bundle.  A dump sizes the ring from $(b,--ops) and exits 1 \
             if the run overwrote any entry.")
    Term.(const run $ f_arg $ s_arg $ ops_workload_arg $ seed_workload_arg
          $ out $ validate_arg $ replay_arg)

(* top: gauge telemetry sampled over the observed workload, folded
   back out of the event ring.  The ring is sized from --ops, and a run
   that overwrote any entry exits 1 instead of printing partial trends.
   The dashboard reads only gauges, so the closing deep validation is
   skipped. *)

let top_cmd =
  let width_arg =
    Arg.(value & opt int 32 & info [ "width" ] ~docv:"W"
           ~doc:"Sparkline width (most recent $(docv) samples).")
  in
  let every_arg =
    Arg.(value & opt int 10 & info [ "every" ] ~docv:"N"
           ~doc:"Sample the gauges every $(docv) operations.")
  in
  let run f s ops seed width every =
    let every = max 1 every in
    let t = observed_harness ~params:(params_of f s) ~seed in
    Harness.register_telemetry t;
    Ltree_obs.Span.set_capacity_for ~ops;
    run_observed_workload ~sample_every:every ~validate:false t ~seed ~ops;
    match Ltree_obs.Telemetry.top ~width () with
    | Ok dashboard -> print_string dashboard
    | Error e ->
      Printf.eprintf "top: %s\n" e;
      exit 1
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:"Replay a workload while sampling gauge telemetry (GC, label \
             width, journal depth) into the event ring and print the \
             sparkline dashboard folded from it.  Exits 1 if the ring \
             overwrote any entry.")
    Term.(const run $ f_arg $ s_arg $ ops_workload_arg $ seed_workload_arg
          $ width_arg $ every_arg)

let () =
  let doc = "L-Tree: dynamic order-preserving labels for XML documents" in
  let info = Cmd.info "ltree" ~version:"1.0.0" ~doc in
  let rec ltree =
    lazy
      (Cmd.group info
         [ generate_cmd; label_cmd; query_cmd; compare_cmd; tune_cmd;
           bench_cmd; snapshot_cmd; restore_cmd; check_cmd;
           crash_matrix_cmd; replicate_cmd; shell_cmd; trace_cmd;
           metrics_cmd; bundle_cmd ~eval; top_cmd ])
  and eval args =
    Cmd.eval ~argv:(Array.of_list ("ltree" :: args)) (Lazy.force ltree)
  in
  exit (Cmd.eval (Lazy.force ltree))
