module Int_tbl = Ltree_metrics.Int_tbl
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

type outcome =
  | Recovered of {
      durable_seq : int;
      attempted : int;
      synced : int;
      replayed : int;
      dropped : int;
      fault_kinds : string list;
    }
  | Unrecoverable of { fault_kinds : string list }

let cell_name (point, mode) = Matrix.coord_name 'P' point mode
let parse_cell = Matrix.parse_coord 'P'

type summary = {
  config : Matrix.config;
  total_points : int;
  init_points : int;
  fault_counts : (string * int) list;
  sweep : (id, outcome) Matrix.sweep;
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

(* From-scratch query answers for the [durable]-op prefix, memoized:
   many matrix cells land on the same durable prefix.  The cache is
   shared across cells, which may evaluate on different domains, so
   lookups and publication go through [cache_mu]; the (deterministic)
   computation itself runs outside the lock, and the first published
   value wins. *)
let pristine_query config script ~cache_mu query_cache durable =
  let cached =
    Mutex.lock cache_mu;
    let v = Int_tbl.find_opt query_cache durable in
    Mutex.unlock cache_mu;
    v
  in
  match cached with
  | Some v -> v
  | None ->
    let pristine = base_ldoc config in
    List.iteri
      (fun i entry -> if i < durable then Journal.apply_entry pristine entry)
      script;
    let anc, desc = top_tags pristine in
    let v = (anc, desc, query_starts pristine ~anc ~desc) in
    Mutex.lock cache_mu;
    let v =
      match Int_tbl.find_opt query_cache durable with
      | Some existing -> existing
      | None ->
        Int_tbl.replace query_cache durable v;
        v
    in
    Mutex.unlock cache_mu;
    v

(* Query plans over the recovered store agree with a from-scratch shred
   of the same prefix. *)
let check_queries config script ~cache_mu ~query_cache ~durable t =
  let anc, desc, want =
    pristine_query config script ~cache_mu query_cache durable
  in
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
      [ Printf.sprintf "%s//%s over recovered store: %d matches vs %d from \
                        scratch" anc desc (List.length got) (List.length want) ]

let run ?pool ?progress ?only ?inject (config : Matrix.config) =
  Matrix.validate config;
  let script = generate_script config in
  let oracle = Matrix.build_oracle (base_ldoc config) script in
  let query_cache = Int_tbl.create 64 in
  let cache_mu = Mutex.create () in
  (* Profile pass: same workload, no plan — learns the matrix width and
     how many write points initialization itself consumes. *)
  let profile_sim = Fault.create_sim () in
  let init_points =
    run_workload config script profile_sim { attempted = 0; synced = 0 }
  in
  let total_points = Fault.points profile_sim in
  (* Besides the engine's progress counter, the only state cells share is
     the memoized query cache, under [cache_mu]; fault tallies are
     aggregated from the cell outcomes after the sweep. *)
  let eval (point, mode) =
    let plan = { Fault.crash_point = point; mode; seed = config.seed } in
    let sim = Fault.create_sim ~plan () in
    let state = { attempted = 0; synced = 0 } in
    let crashed =
      match run_workload config script sim state with
      | (_ : int) -> false
      | exception Fault.Crash _ -> true
    in
    let rsim = Fault.create_sim ~files:(Fault.dump sim) () in
    let io = Fault.sim_io rsim in
    match
      Durable_doc.recover ~io ~group_commit:config.group_commit
        ~dir:store_dir ()
    with
    | Error faults ->
      let kinds = List.map Durable_doc.fault_kind faults in
      ( Unrecoverable { fault_kinds = kinds },
        (* Losing the whole store is only legitimate before the very
           first checkpoint ever completed. *)
        if state.attempted = 0 && point <= init_points then []
        else
          [ Printf.sprintf "unrecoverable after %d applied ops (point %d): %s"
              state.attempted point
              (String.concat ", " kinds) ] )
    | Ok (report, t) ->
      let durable = report.Durable_doc.durable_seq in
      let failures =
        (if crashed then []
         else [ "workload did not crash at an in-range point" ])
        @ (if durable < state.synced || durable > state.attempted then
             [ Printf.sprintf "durable seq %d outside [synced %d, attempted \
                               %d]" durable state.synced state.attempted ]
           else [])
        @ Matrix.verify_prefix oracle ~io ~dir:store_dir ~seq:durable t
        @
        if durable < 0 || durable > config.ops then []
        else check_queries config script ~cache_mu ~query_cache ~durable t
      in
      ( Recovered
          { durable_seq = durable;
            attempted = state.attempted;
            synced = state.synced;
            replayed = report.Durable_doc.entries_replayed;
            dropped = report.Durable_doc.entries_dropped;
            fault_kinds =
              List.map Durable_doc.fault_kind report.Durable_doc.faults },
        failures )
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
    (fun (c : (id, outcome) Matrix.cell) ->
      let kinds =
        match c.outcome with
        | Recovered r -> r.fault_kinds
        | Unrecoverable u -> u.fault_kinds
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
