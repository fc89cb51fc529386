module Labeled_doc = Ltree_doc.Labeled_doc
module Journal = Ltree_doc.Journal
module Serializer = Ltree_xml.Serializer
module Invariant = Ltree_analysis.Invariant
module Span = Ltree_obs.Span

type config = {
  seed : int;
  ops : int;
  doc_nodes : int;
  group_commit : int;
  checkpoint_every : int;
}

let validate ?(extra = []) config =
  List.iter
    (fun (field, v) ->
      if v < 1 then
        invalid_arg
          (Printf.sprintf "matrix config: %s must be >= 1 (got %d)" field v))
    ([ ("ops", config.ops); ("doc_nodes", config.doc_nodes);
       ("group_commit", config.group_commit);
       ("checkpoint_every", config.checkpoint_every) ]
    @ extra)

(* {1 The oracle}

   Labels and a content checksum after every prefix of an entry list,
   computed on a pristine in-memory replay.  L-Tree label determinism
   (paper §4.2) is what makes this a bit-exact oracle: recovery replays
   the same entries through the same code, so the k-entry prefix must
   reproduce [labels.(k)] exactly, not merely isomorphically. *)

let observe_labels ldoc =
  Array.of_list (List.map snd (Labeled_doc.labeled_events ldoc))

let doc_crc ldoc =
  Checksum.crc32 (Serializer.to_string (Labeled_doc.document ldoc))

let int_array_equal (a : int array) b =
  Array.length a = Array.length b
  &&
  let rec go i = i >= Array.length a || (a.(i) = b.(i) && go (i + 1)) in
  go 0

type oracle = { labels : int array array; crcs : int array }

let build_oracle ldoc entries =
  let n = List.length entries in
  let labels = Array.make (n + 1) [||] in
  let crcs = Array.make (n + 1) 0 in
  let snap k =
    labels.(k) <- observe_labels ldoc;
    crcs.(k) <- doc_crc ldoc
  in
  snap 0;
  List.iteri
    (fun i entry ->
      Journal.apply_entry ldoc entry;
      snap (i + 1))
    entries;
  { labels; crcs }

(* {1 Registry hooks}

   The durability invariants, phrased over a live store so both the
   matrices and the self-check harness can register them. *)

let register_invariants reg ~io ~dir ~expected_labels t =
  Invariant.register reg ~name:"recovery.journal-checksum-valid"
    ~depth:Invariant.Cheap (fun () ->
      let scan = Durable_doc.scan_journal io ~dir in
      match scan.Durable_doc.scan_fault with
      | Some f ->
        Invariant.fail ~name:"recovery.journal-checksum-valid"
          "journal not clean: %s"
          (Format.asprintf "%a" Durable_doc.pp_fault f)
      | None ->
        if scan.Durable_doc.dropped <> 0 then
          Invariant.fail ~name:"recovery.journal-checksum-valid"
            "%d unparsed chunks after the valid prefix"
            scan.Durable_doc.dropped);
  Invariant.register reg ~name:"recovery.snapshot-loadable"
    ~depth:Invariant.Deep (fun () ->
      match Durable_doc.newest_valid_snapshot io ~dir with
      | Error faults ->
        Invariant.fail ~name:"recovery.snapshot-loadable"
          "no loadable snapshot generation: %s"
          (String.concat "; "
             (List.map
                (fun f -> Format.asprintf "%a" Durable_doc.pp_fault f)
                faults))
      | Ok (Durable_doc.Previous, _, _, _, _) ->
        Invariant.fail ~name:"recovery.snapshot-loadable"
          "current snapshot unreadable (previous generation would load)"
      | Ok (Durable_doc.Current, _, _, _, _) -> ());
  Invariant.register reg ~name:"recovery.store-matches-oracle-prefix"
    ~depth:Invariant.Deep (fun () ->
      let got = observe_labels (Durable_doc.ldoc t) in
      let want = expected_labels () in
      if not (int_array_equal got want) then
        Invariant.fail ~name:"recovery.store-matches-oracle-prefix"
          "labels diverge from oracle: %d slots vs %d expected%s"
          (Array.length got) (Array.length want)
          (let limit = Int.min (Array.length got) (Array.length want) in
           let rec first i =
             if i >= limit then ""
             else if got.(i) <> want.(i) then
               Printf.sprintf " (first diff at slot %d: %d vs %d)" i got.(i)
                 want.(i)
             else first (i + 1)
           in
           first 0))

let verify_prefix oracle ~io ~dir ~seq t =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  let at = Durable_doc.last_seq t in
  if at <> seq then fail "store at seq %d, expected oracle prefix %d" at seq;
  if seq < 0 || seq >= Array.length oracle.labels then
    fail "prefix %d outside the script" seq
  else begin
    let ldoc = Durable_doc.ldoc t in
    if not (int_array_equal (observe_labels ldoc) oracle.labels.(seq)) then
      fail "labels differ from oracle prefix %d" seq;
    if doc_crc ldoc <> oracle.crcs.(seq) then
      fail "content checksum differs from oracle prefix %d" seq;
    let reg = Invariant.create () in
    register_invariants reg ~io ~dir
      ~expected_labels:(fun () -> oracle.labels.(seq))
      t;
    Invariant.register reg ~name:"recovery.doc-consistent"
      ~depth:Invariant.Deep (fun () -> Labeled_doc.check ldoc);
    List.iter
      (fun f -> fail "invariant %s: %s" f.Invariant.name f.Invariant.detail)
      (Invariant.run_all ~depth:Invariant.Deep reg)
  end;
  List.rev !failures

(* {1 The crashed-store verdict} *)

type recovery =
  | Recovered of {
      durable_seq : int;
      attempted : int;
      synced : int;
      replayed : int;
      dropped : int;
      fault_kinds : string list;
    }
  | Unrecoverable of { fault_kinds : string list }

let check_survivor oracle ~io ~dir ~synced ~attempted t =
  let seq = Durable_doc.last_seq t in
  (if seq < synced || seq > attempted then
     [ Printf.sprintf "store at seq %d outside [synced %d, attempted %d]" seq
         synced attempted ]
   else [])
  @ verify_prefix oracle ~io ~dir ~seq t

let recover_crashed ?(then_check = fun ~io:_ _ -> []) oracle ~group_commit
    ~dir ~point ~init_points ~synced ~attempted sim =
  let io = Fault.sim_io (Fault.create_sim ~files:(Fault.dump sim) ()) in
  match Durable_doc.recover ~io ~group_commit ~dir () with
  | Error faults ->
    let fault_kinds = List.map Durable_doc.fault_kind faults in
    ( Unrecoverable { fault_kinds },
      if attempted = 0 && point <= init_points then []
      else
        [ Printf.sprintf "unrecoverable after %d applied ops (point %d): %s"
            attempted point
            (String.concat ", " fault_kinds) ] )
  | Ok (report, t) ->
    (* Judge the store as recovered, before [then_check] may move it. *)
    let failures = check_survivor oracle ~io ~dir ~synced ~attempted t in
    ( Recovered
        { durable_seq = report.Durable_doc.durable_seq;
          attempted;
          synced;
          replayed = report.Durable_doc.entries_replayed;
          dropped = report.Durable_doc.entries_dropped;
          fault_kinds =
            List.map Durable_doc.fault_kind report.Durable_doc.faults },
      failures @ then_check ~io t )

(* {1 Cell coordinates}

   A coordinate is printed with every failure and parsed back by
   [--only], so the parser accepts exactly the printer's spellings:
   one cell, one name. *)

let coord_name c n mode = Printf.sprintf "%c%d/%s" c n (Fault.mode_name mode)

let parse_nat s =
  let n = String.length s in
  let digits = String.for_all (function '0' .. '9' -> true | _ -> false) s in
  if n = 0 || (not digits) || (n > 1 && Char.equal s.[0] '0') then None
  else int_of_string_opt s

let parse_coord c s =
  match String.index_opt s '/' with
  | None -> None
  | Some slash -> (
    let mode = String.sub s (slash + 1) (String.length s - slash - 1) in
    if slash < 1 || not (Char.equal s.[0] c) then None
    else
      match (parse_nat (String.sub s 1 (slash - 1)), Fault.mode_of_name mode)
      with
      | Some n, Some mode when n >= 1 -> Some (n, mode)
      | _ -> None)

(* {1 The sweep} *)

type ('id, 'outcome) cell = {
  id : 'id;
  outcome : 'outcome;
  failures : string list;
}

type ('id, 'outcome) sweep = {
  cells : ('id, 'outcome) cell list;
  failed_cells : int;
}

let ok s = s.failed_cells = 0

let run ?pool ?progress ?only ?inject ~name ~eval cells =
  let member flag id =
    let want = name id in
    if not (Array.exists (fun c -> String.equal (name c) want) cells) then
      invalid_arg
        (Printf.sprintf "%s %s names no cell of this matrix (%d cells)" flag
           want (Array.length cells));
    want
  in
  let inject = Option.map (member "--inject-cell-failure") inject in
  let cells =
    match only with
    | None -> cells
    | Some id ->
      ignore (member "--only" id : string);
      [| id |]
  in
  let total = Array.length cells in
  (* Cells are independent — each [eval] owns its sims, documents and
     stores — so they fan out across the pool.  The engine's only shared
     mutable state is the progress counter, under [progress_mu]. *)
  let progress_mu = Mutex.create () in
  let done_cells = ref 0 in
  let note_progress () =
    match progress with
    | None -> ()
    | Some f ->
      Mutex.lock progress_mu;
      incr done_cells;
      let d = !done_cells in
      Fun.protect
        ~finally:(fun () -> Mutex.unlock progress_mu)
        (fun () -> f ~done_cells:d ~total)
  in
  let eval_cell id =
    let cell = name id in
    Span.note ~kind:"cell" ~attrs:[ ("phase", "start") ] cell;
    let outcome, failures = eval id in
    let failures =
      match inject with
      | Some target when String.equal target cell ->
        "injected failure (--inject-cell-failure)" :: failures
      | _ -> failures
    in
    (match failures with
     | f :: _ ->
       Span.note ~kind:"cell"
         ~attrs:[ ("phase", "failed"); ("failure", f) ]
         cell
     | [] -> ());
    note_progress ();
    { id; outcome; failures }
  in
  let cells =
    Array.to_list
      (match pool with
       | Some pool -> Ltree_exec.Pool.map pool eval_cell cells
       | None -> Array.map eval_cell cells)
  in
  { cells;
    failed_cells =
      List.length
        (List.filter
           (fun c -> match c.failures with [] -> false | _ :: _ -> true)
           cells) }
