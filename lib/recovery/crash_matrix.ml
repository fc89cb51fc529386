module Labeled_doc = Ltree_doc.Labeled_doc
module Journal = Ltree_doc.Journal
module Dom = Ltree_xml.Dom
module Xml_gen = Ltree_workload.Xml_gen
module Prng = Ltree_workload.Prng
module Shredder = Ltree_relstore.Shredder
module Pager = Ltree_relstore.Pager
module Query = Ltree_relstore.Query
module Counters = Ltree_metrics.Counters

let default_config =
  { Matrix.seed = 42; ops = 200; doc_nodes = 120; group_commit = 4;
    checkpoint_every = 32 }

let store_dir = "store"

(* {1 Script generation}

   The workload is a list of {!Journal.entry} values generated against a
   scratch document (so every anchor is valid at its position in the
   sequence).  Everything derives from the config seed: the same config
   always yields the same script, the same write points, and the same
   injected damage — a failing cell replays exactly. *)

let base_doc (config : Matrix.config) =
  Xml_gen.generate ~seed:config.seed
    (Xml_gen.default_profile ~target_nodes:config.doc_nodes ())

let base_ldoc config = Labeled_doc.of_document (base_doc config)

let live_nodes ldoc =
  let doc = Labeled_doc.document ldoc in
  let elements = ref [] and texts = ref [] in
  (match doc.Dom.root with
   | None -> ()
   | Some root ->
     Dom.iter_preorder root (fun n ->
         match Dom.kind n with
         | Dom.Element _ -> elements := n :: !elements
         | Dom.Text _ -> texts := n :: !texts
         | Dom.Comment _ | Dom.Pi _ -> ()));
  (List.rev !elements, List.rev !texts)

let start_label ldoc n = (Labeled_doc.label ldoc n).Labeled_doc.start_pos

let fragment_xml prng k =
  match Prng.int prng 3 with
  | 0 -> Printf.sprintf "<patch n=\"%d\">p%d</patch>" k k
  | 1 -> Printf.sprintf "<patch n=\"%d\"><deep><x/></deep></patch>" k
  | _ -> Printf.sprintf "<note id=\"%d\">n%d<sub/></note>" k k

let generate_script (config : Matrix.config) =
  let ldoc = base_ldoc config in
  let prng = Prng.create (config.seed lxor 0x0F1E2D3C) in
  let script = ref [] in
  for k = 1 to config.ops do
    let elements, texts = live_nodes ldoc in
    let insert () =
      let parent = Prng.pick prng (Array.of_list elements) in
      Journal.Insert
        { anchor = start_label ldoc parent;
          index = Prng.int prng (Dom.child_count parent + 1);
          xml = fragment_xml prng k }
    in
    let entry =
      match Prng.int prng 10 with
      | 0 | 1 | 2 | 3 | 4 -> insert ()
      | 5 | 6 -> (
          (* Never delete the root: the document must keep one. *)
          match
            List.filter (fun n -> Option.is_some (Dom.parent n)) elements
          with
          | [] -> insert ()
          | deletable ->
            Journal.Delete
              { anchor =
                  start_label ldoc
                    (Prng.pick prng (Array.of_list deletable)) })
      | _ -> (
          match texts with
          | [] -> insert ()
          | texts ->
            (* Text stays non-empty: empty text nodes do not survive
               serialization (see Snapshot.save). *)
            Journal.Set_text
              { anchor =
                  start_label ldoc (Prng.pick prng (Array.of_list texts));
                text = Printf.sprintf "t%d" k })
    in
    Journal.apply_entry ldoc entry;
    script := entry :: !script
  done;
  List.rev !script

(* {1 Query-plan agreement}

   After recovery the relational view must answer queries exactly as a
   from-scratch shred of the oracle prefix does.  Dom ids differ across
   document instances, so results are compared as sorted start-label
   lists — labels are the cross-instance identity. *)

let top_tags ldoc =
  let counts = Hashtbl.create 16 in
  let doc = Labeled_doc.document ldoc in
  (match doc.Dom.root with
   | None -> ()
   | Some root ->
     Dom.iter_preorder root (fun n ->
         match Dom.kind n with
         | Dom.Element tag ->
           Hashtbl.replace counts tag
             (1 + Option.value ~default:0 (Hashtbl.find_opt counts tag))
         | _ -> ()));
  let ranked =
    Hashtbl.fold (fun tag n acc -> (tag, n) :: acc) counts []
    |> List.sort (fun (ta, na) (tb, nb) ->
           if na <> nb then Int.compare nb na else String.compare ta tb)
  in
  match ranked with
  | (a, _) :: (b, _) :: _ -> (a, b)
  | [ (a, _) ] -> (a, a)
  | [] -> ("missing", "missing")

let sorted_result_starts ldoc ids =
  List.filter_map
    (fun id ->
      Option.map
        (fun n -> (Labeled_doc.label ldoc n).Labeled_doc.start_pos)
        (Labeled_doc.node_by_id ldoc id))
    ids
  |> List.sort Int.compare

let query_starts ldoc ~anc ~desc =
  let pager = Pager.create (Counters.create ()) in
  let store = Shredder.shred_label pager ldoc in
  let indexed = Query.label_descendants pager store ~anc ~desc in
  let baseline = Query.label_descendants_baseline pager store ~anc ~desc in
  if not (List.equal Int.equal indexed baseline) then None
  else Some (sorted_result_starts ldoc indexed)

(* {1 The matrix} *)

type id = int * Fault.mode

let cell_name (point, mode) = Matrix.coord_name 'P' point mode
let parse_cell = Matrix.parse_coord 'P'

type summary = {
  config : Matrix.config;
  total_points : int;
  init_points : int;
  fault_counts : (string * int) list;
  sweep : (id, Matrix.recovery) Matrix.sweep;
}

type progress_state = { mutable attempted : int; mutable synced : int }

(* One workload execution against [sim]; [state] tracks the crash-time
   bounds for the durable prefix: at any instant the durable sequence
   number lies in [synced, attempted]. *)
let run_workload (config : Matrix.config) script sim state =
  let io = Fault.sim_io sim in
  let t =
    Durable_doc.initialize ~io ~group_commit:config.group_commit
      ~dir:store_dir (base_ldoc config)
  in
  let init_points = Fault.points sim in
  List.iteri
    (fun i entry ->
      state.attempted <- i + 1;
      Durable_doc.apply t entry;
      state.synced <- Durable_doc.last_seq t - Durable_doc.pending t;
      if (i + 1) mod config.checkpoint_every = 0 then begin
        Durable_doc.checkpoint t;
        state.synced <- Durable_doc.last_seq t
      end)
    script;
  Durable_doc.sync t;
  state.synced <- Durable_doc.last_seq t;
  init_points

(* From-scratch query answers for every prefix of the script, from one
   replay: [answers.(k)] is the [k]-entry prefix's top tag pair and its
   sorted descendant starts. *)
let query_answers config script =
  let ldoc = base_ldoc config in
  let answer () =
    let anc, desc = top_tags ldoc in
    (anc, desc, query_starts ldoc ~anc ~desc)
  in
  let answers = Array.make (List.length script + 1) (answer ()) in
  List.iteri
    (fun i entry ->
      Journal.apply_entry ldoc entry;
      answers.(i + 1) <- answer ())
    script;
  answers

(* Query plans over the recovered store agree with a from-scratch shred
   of the same prefix. *)
let check_queries answers t =
  let durable = Durable_doc.last_seq t in
  if durable < 0 || durable >= Array.length answers then []
  else
    let anc, desc, want = answers.(durable) in
    match (query_starts (Durable_doc.ldoc t) ~anc ~desc, want) with
    | None, _ ->
      [ Printf.sprintf "recovered store: indexed and baseline %s//%s plans \
                        disagree" anc desc ]
    | _, None ->
      [ Printf.sprintf "pristine store: indexed and baseline %s//%s plans \
                        disagree" anc desc ]
    | Some got, Some want ->
      if List.equal Int.equal got want then []
      else
        [ Printf.sprintf "%s//%s over recovered store: %d matches vs %d \
                          from scratch" anc desc (List.length got)
            (List.length want) ]

let run ?pool ?progress ?only ?inject (config : Matrix.config) =
  Matrix.validate config;
  let script = generate_script config in
  let oracle = Matrix.build_oracle (base_ldoc config) script in
  let answers = query_answers config script in
  (* Profile pass: same workload, no plan — learns the matrix width and
     how many write points initialization itself consumes. *)
  let profile_sim = Fault.create_sim () in
  let init_points =
    run_workload config script profile_sim { attempted = 0; synced = 0 }
  in
  let total_points = Fault.points profile_sim in
  (* Cells share only read-only state (the script, the oracle and the
     query answers); fault tallies are aggregated from the cell outcomes
     after the sweep. *)
  let eval (point, mode) =
    let plan = { Fault.crash_point = point; mode; seed = config.seed } in
    let sim = Fault.create_sim ~plan () in
    let state = { attempted = 0; synced = 0 } in
    let crashed =
      match run_workload config script sim state with
      | (_ : int) -> false
      | exception Fault.Crash _ -> true
    in
    let recovery, failures =
      Matrix.recover_crashed oracle ~group_commit:config.group_commit
        ~dir:store_dir ~point ~init_points ~synced:state.synced
        ~attempted:state.attempted
        ~then_check:(fun ~io:_ t -> check_queries answers t)
        sim
    in
    ( recovery,
      if crashed then failures
      else "workload did not crash at an in-range point" :: failures )
  in
  let cells =
    Array.of_list
      (List.concat_map
         (fun mode -> List.init total_points (fun i -> (i + 1, mode)))
         Fault.all_modes)
  in
  let sweep =
    Matrix.run ?pool ?progress ?only ?inject ~name:cell_name ~eval cells
  in
  let fault_counts = Hashtbl.create 16 in
  List.iter
    (fun (c : (id, Matrix.recovery) Matrix.cell) ->
      let kinds =
        match c.outcome with
        | Matrix.Recovered r -> r.fault_kinds
        | Matrix.Unrecoverable u -> u.fault_kinds
      in
      List.iter
        (fun k ->
          Hashtbl.replace fault_counts k
            (1 + Option.value ~default:0 (Hashtbl.find_opt fault_counts k)))
        kinds)
    sweep.Matrix.cells;
  { config;
    total_points;
    init_points;
    fault_counts =
      Hashtbl.fold (fun k n acc -> (k, n) :: acc) fault_counts []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b);
    sweep }
