module Fault = Ltree_recovery.Fault
module Durable_doc = Ltree_recovery.Durable_doc
module Crash_matrix = Ltree_recovery.Crash_matrix
module Matrix = Ltree_recovery.Matrix
module Labeled_doc = Ltree_doc.Labeled_doc
module Journal = Ltree_doc.Journal

(* Pumps allowed for a replica to drain a whole backlog: generous — a
   parked shipper or converged replica exits the loop early anyway. *)
let quiesce_bound (config : Matrix.config) = 512 + (8 * config.ops)

type id =
  | Primary_cell of int * Fault.mode
  | Replica_cell of int * Fault.mode
  | Channel_cell of int * Fault.mode
  | Divergence_probe

let cell_name = function
  | Primary_cell (p, m) -> "primary:" ^ Matrix.coord_name 'P' p m
  | Replica_cell (p, m) -> "replica:" ^ Matrix.coord_name 'P' p m
  | Channel_cell (n, m) -> "channel:" ^ Matrix.coord_name 'C' n m
  | Divergence_probe -> "probe:divergence"

let parse_cell s =
  if String.equal s "probe:divergence" then Some Divergence_probe
  else
    match String.index_opt s ':' with
    | None -> None
    | Some i -> (
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      let coord c k = Option.map k (Matrix.parse_coord c rest) in
      match String.sub s 0 i with
      | "primary" -> coord 'P' (fun (p, m) -> Primary_cell (p, m))
      | "replica" -> coord 'P' (fun (p, m) -> Replica_cell (p, m))
      | "channel" -> coord 'C' (fun (n, m) -> Channel_cell (n, m))
      | _ -> None)

type outcome =
  | Promoted of { applied : int; attempted : int }
  | Reattached of { recovered_seq : int; resumed_from : int }
  | Resynced
  | No_pair
  | Lost of { fault_kinds : string list }
  | Diverged_detected
  | Incomplete of { detail : string }

type summary = {
  config : Matrix.config;
  primary_points : int;
  primary_init_points : int;
  replica_points : int;
  replica_init_points : int;
  channel_sends : int;
  sweep : (id, outcome) Matrix.sweep;
}

let describe s =
  Printf.sprintf
    "replica matrix: %d cells (%d primary pts + %d replica pts + %d \
     channel sends, x%d modes, + divergence probe): %s"
    (List.length s.sweep.Matrix.cells) s.primary_points s.replica_points
    s.channel_sends
    (List.length Fault.all_modes)
    (if Matrix.ok s.sweep then "all verified"
     else Printf.sprintf "%d FAILED" s.sweep.Matrix.failed_cells)

(* {1 The scripted session} *)

let session_config (config : Matrix.config) ~down_plan =
  { Session.default_config with
    Session.group_commit = config.group_commit;
    replica_group_commit = config.group_commit;
    checkpoint_every = config.checkpoint_every;
    down_plan }

type run_result =
  | Completed of Session.t
  | Crashed_in_create of { point : int }
  | Crashed_in_apply of { session : Session.t; index : int }
  | Crashed_in_quiesce of { session : Session.t }

(* One scripted run: create the pair, apply the whole script, quiesce.
   Everything is deterministic, so an armed cell replays the exact clean
   run up to its trigger. *)
let run_scripted (config : Matrix.config) ~psim ~rsim ~down_plan ?on_created ldoc script =
  let primary_io = Fault.sim_io psim and replica_io = Fault.sim_io rsim in
  let sc = session_config config ~down_plan in
  match
    Session.create ~config:sc ~primary_io ~primary_dir:"p" ~replica_io
      ~replica_dir:"r" ldoc
  with
  | exception Fault.Crash { point; _ } -> Crashed_in_create { point }
  | session ->
    (match on_created with None -> () | Some f -> f session);
    let rec go i = function
      | [] -> (
        match Session.quiesce ~max_pumps:(quiesce_bound config) session with
        | (_ : bool) -> Completed session
        | exception Fault.Crash _ -> Crashed_in_quiesce { session })
      | entry :: rest -> (
        match Session.apply session entry with
        | () -> go (i + 1) rest
        | exception Fault.Crash _ -> Crashed_in_apply { session; index = i })
    in
    go 0 script

type profile = {
  p_points : int;
  p_init : int;
  r_points : int;
  r_init : int;
  c_sends : int;
}

let profile_run (config : Matrix.config) script =
  let psim = Fault.create_sim () and rsim = Fault.create_sim () in
  let p_init = ref 0 and r_init = ref 0 in
  match
    run_scripted config ~psim ~rsim ~down_plan:Channel.ideal
      ~on_created:(fun _ ->
        p_init := Fault.points psim;
        r_init := Fault.points rsim)
      (Crash_matrix.base_ldoc config) script
  with
  | Completed session ->
    if not (Session.caught_up session) then
      invalid_arg "Repl_matrix: uninjected profile run did not converge";
    { p_points = Fault.points psim;
      p_init = !p_init;
      r_points = Fault.points rsim;
      r_init = !r_init;
      c_sends = (Channel.stats (Session.down session)).Channel.sent }
  | Crashed_in_create _ | Crashed_in_apply _ | Crashed_in_quiesce _ ->
    invalid_arg "Repl_matrix: uninjected profile run crashed"

(* {1 Cells} *)

(* Primary crash: kill the primary at write point [p], fail over, and
   check the promoted replica is a bit-exact oracle prefix no longer
   than what the primary ever attempted. *)
let eval_primary (config : Matrix.config) ~script ~oracle ~prof (point, mode) =
  let plan = { Fault.crash_point = point; mode; seed = config.seed } in
  let psim = Fault.create_sim ~plan () in
  let rsim = Fault.create_sim () in
  let promote session ~attempted =
    let now = Session.clock session in
    Channel.sever (Session.down session) ~now;
    Channel.sever (Session.up session) ~now;
    let old_epoch = Durable_doc.epoch (Session.primary session) in
    (* Drain what already reached the replica's buffer before deciding,
       as a real failover drains its socket. *)
    Replica.pump (Session.replica session) ~now:(now + 1);
    match Session.failover session with
    | Error e ->
      let detail = Format.asprintf "%a" Replica.pp_error e in
      ( Incomplete { detail },
        [ Printf.sprintf "failover refused: %s" detail ] )
    | Ok (_report, promoted) ->
      let epoch_fails =
        if Durable_doc.epoch promoted > old_epoch then []
        else
          [ Printf.sprintf "promoted epoch %d not above the dead primary's \
                            %d"
              (Durable_doc.epoch promoted) old_epoch ]
      in
      ( Promoted { applied = Durable_doc.last_seq promoted; attempted },
        Matrix.check_survivor oracle ~io:(Fault.sim_io rsim) ~dir:"r"
          ~synced:0 ~attempted promoted
        @ epoch_fails )
  in
  match
    run_scripted config ~psim ~rsim ~down_plan:Channel.ideal
      (Crash_matrix.base_ldoc config) script
  with
  | Completed _ ->
    ( Incomplete { detail = "primary did not crash" },
      [ Printf.sprintf "primary did not crash at in-range point %d" point ] )
  | Crashed_in_create { point = at } ->
    (* The pair never finished establishing — nothing to promote.
       Legitimate only while the primary was still laying down its own
       initial files and the bootstrap snapshot. *)
    ( No_pair,
      if point <= prof.p_init then []
      else
        [ Printf.sprintf
            "session establishment crashed at point %d (init ends at %d)"
            at prof.p_init ] )
  | Crashed_in_apply { session; index } ->
    promote session ~attempted:(index + 1)
  | Crashed_in_quiesce { session } -> promote session ~attempted:config.ops

(* Replica crash: kill the replica's store at write point [p], recover
   it from its own surviving files, re-attach it to the live session,
   finish the script, and check the replica converges to the full
   oracle. *)
let eval_replica (config : Matrix.config) ~script ~oracle ~prof (point, mode) =
  let plan = { Fault.crash_point = point; mode; seed = config.seed } in
  let psim = Fault.create_sim () in
  let rsim = Fault.create_sim ~plan () in
  match
    run_scripted config ~psim ~rsim ~down_plan:Channel.ideal
      (Crash_matrix.base_ldoc config) script
  with
  | Completed _ ->
    ( Incomplete { detail = "replica did not crash" },
      [ Printf.sprintf "replica did not crash at in-range point %d" point ] )
  | crashed -> (
    (* [attempted] ops reached the primary; the re-attached replica
       resumes the script right after them. *)
    let session, attempted =
      match crashed with
      | Crashed_in_create _ -> (None, 0)
      | Crashed_in_apply { session; index } -> (Some session, index + 1)
      | Crashed_in_quiesce { session } -> (Some session, config.ops)
      | Completed _ -> assert false
    in
    (* Once re-attached, the replica finishes the script and must
       converge to the full oracle.  A crash during establishment leaves
       no session to re-attach to; the recovered prefix itself must
       still verify. *)
    let reattach ~io store =
      match session with
      | None -> []
      | Some session ->
        let (_ : Replica.t) = Session.replace_replica ~io ~store session in
        let rest = List.filteri (fun i _ -> i >= attempted) script in
        List.iter (fun e -> Session.apply session e) rest;
        let caught = Session.quiesce ~max_pumps:(quiesce_bound config) session in
        (if caught then []
         else [ "replica failed to catch up after re-attach" ])
        @
        match Replica.store (Session.replica session) with
        | None -> [ "re-attached replica has no store" ]
        | Some t ->
          Matrix.verify_prefix oracle ~io ~dir:"r" ~seq:config.ops t
    in
    match
      Matrix.recover_crashed oracle ~group_commit:config.group_commit
        ~dir:"r" ~point ~init_points:prof.r_init ~synced:0 ~attempted
        ~then_check:reattach rsim
    with
    | Matrix.Unrecoverable { fault_kinds }, fails ->
      (Lost { fault_kinds }, fails)
    | Matrix.Recovered r, fails ->
      (Reattached { recovered_seq = r.durable_seq; resumed_from = attempted },
       fails))

(* Channel sever: cut the stream at the [n]th chunk (damaged per the
   mode), let the shipper burn its retries, reconnect, and check the
   replica fully resyncs. *)
let eval_channel (config : Matrix.config) ~script ~oracle (n, mode) =
  let psim = Fault.create_sim () and rsim = Fault.create_sim () in
  let down_plan =
    { Channel.ideal with Channel.seed = config.seed; sever_at = Some (n, mode) }
  in
  match
    run_scripted config ~psim ~rsim ~down_plan (Crash_matrix.base_ldoc config)
      script
  with
  | Crashed_in_create _ | Crashed_in_apply _ | Crashed_in_quiesce _ ->
    ( Incomplete { detail = "unexpected crash" },
      [ "unarmed stores crashed in a channel cell" ] )
  | Completed session ->
    let fails = ref [] in
    let fail fmt = Printf.ksprintf (fun s -> fails := s :: !fails) fmt in
    if not (Channel.severed (Session.down session)) then
      fail "channel sever at send %d never triggered" n;
    Session.reconnect session;
    if not (Session.quiesce ~max_pumps:(quiesce_bound config) session) then
      fail "replica failed to resync after reconnect";
    let vfails =
      match Replica.store (Session.replica session) with
      | None -> [ "replica unbootstrapped after resync" ]
      | Some t ->
        Matrix.verify_prefix oracle ~io:(Fault.sim_io rsim) ~dir:"r"
          ~seq:config.ops t
    in
    (Resynced, List.rev !fails @ vfails)

(* Divergence probe: a rogue write sneaks into the replica's store
   outside the stream mid-run; the handshake discipline must detect it,
   and both reads and promotion must refuse. *)
let eval_probe (config : Matrix.config) ~script =
  let psim = Fault.create_sim () and rsim = Fault.create_sim () in
  let sc = session_config config ~down_plan:Channel.ideal in
  let session =
    Session.create ~config:sc ~primary_io:(Fault.sim_io psim)
      ~primary_dir:"p" ~replica_io:(Fault.sim_io rsim) ~replica_dir:"r"
      (Crash_matrix.base_ldoc config)
  in
  let half = List.length script / 2 in
  let first = List.filteri (fun i _ -> i < half) script in
  let rest = List.filteri (fun i _ -> i >= half) script in
  List.iter (Session.apply session) first;
  let fails = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> fails := s :: !fails) fmt in
  if not (Session.quiesce ~max_pumps:(quiesce_bound config) session) then
    fail "healthy half-script run did not converge";
  let replica = Session.replica session in
  (match Replica.store replica with
   | None -> fail "replica unbootstrapped before the rogue write"
   | Some rstore ->
     let rldoc = Durable_doc.ldoc rstore in
     (match (Labeled_doc.document rldoc).Ltree_xml.Dom.root with
      | None -> fail "replica document has no root"
      | Some root ->
        let anchor = (Labeled_doc.label rldoc root).Labeled_doc.start_pos in
        Durable_doc.apply rstore
          (Journal.Insert { anchor; index = 0; xml = "<rogue/>" });
        List.iter (Session.apply session) rest;
        ignore (Session.quiesce ~max_pumps:(quiesce_bound config) session);
        (match Replica.diverged replica with
         | Some _ -> ()
         | None -> fail "rogue write not detected");
        (match Replica.read replica (fun _ -> ()) with
         | Error (Replica.Diverged _) -> ()
         | Ok () -> fail "diverged replica served a read"
         | Error e ->
           fail "diverged read refused with the wrong error: %s"
             (Format.asprintf "%a" Replica.pp_error e));
        (match Replica.promote replica with
         | Error (Replica.Diverged _) -> ()
         | Ok _ -> fail "diverged replica accepted promotion"
         | Error e ->
           fail "diverged promote refused with the wrong error: %s"
             (Format.asprintf "%a" Replica.pp_error e))));
  (Diverged_detected, List.rev !fails)

(* {1 The sweep} *)

let run ?pool ?progress ?only ?inject config =
  Matrix.validate config;
  let script = Crash_matrix.generate_script config in
  let oracle = Matrix.build_oracle (Crash_matrix.base_ldoc config) script in
  let prof = profile_run config script in
  let cells =
    Array.of_list
      (List.concat_map
         (fun mode ->
           List.init prof.p_points (fun i -> Primary_cell (i + 1, mode))
           @ List.init prof.r_points (fun i -> Replica_cell (i + 1, mode))
           @ List.init prof.c_sends (fun i -> Channel_cell (i + 1, mode)))
         Fault.all_modes
      @ [ Divergence_probe ])
  in
  let eval = function
    | Primary_cell (p, m) -> eval_primary config ~script ~oracle ~prof (p, m)
    | Replica_cell (p, m) -> eval_replica config ~script ~oracle ~prof (p, m)
    | Channel_cell (n, m) -> eval_channel config ~script ~oracle (n, m)
    | Divergence_probe -> eval_probe config ~script
  in
  { config;
    primary_points = prof.p_points;
    primary_init_points = prof.p_init;
    replica_points = prof.r_points;
    replica_init_points = prof.r_init;
    channel_sends = prof.c_sends;
    sweep =
      Matrix.run ?pool ?progress ?only ?inject ~name:cell_name ~eval cells }
