(* Replication experiment (E16): what journal shipping costs, how fast a
   cold replica catches up, and what failover takes.

   Everything runs on the simulated disk and the session's virtual
   clock, so channel behaviour is deterministic; wall time measures the
   compute cost of the protocol itself (framing, CRC chains, replay).

   Part 1 — steady-state shipping: the same insert workload runs through
   a replicated pair at group-commit sizes 1/4/16/64, sampling the
   replica's lag (in records) after every primary operation.  Group
   commit batches journal flushes, so the shipper sees records later and
   lag should grow roughly with g.

   Part 2 — catch-up throughput: the channel is severed right after
   bootstrap, the whole script runs on the primary alone, then the
   channel heals and we time how fast the replica drains the backlog.

   Part 3 — failover: after a quiesced run, sever and promote, timing
   {!Ltree_replication.Session.failover} (condemn + sync + recover).

   Part 4 — causal waterfall: the steady workload re-runs with
   {!Ltree_obs.Causal} tracing on, and the per-record stage stamps
   (append → ship → deliver → apply → readable, in virtual-clock ticks)
   are aggregated into mean per-stage latencies.  Group commit should
   show up entirely in the append→ship stage: records wait in the
   journal for the batch to fill while the downstream stages stay flat.

   Rows land in BENCH_replication.json. *)

open Ltree_recovery
open Ltree_replication
module Labeled_doc = Ltree_doc.Labeled_doc
module Journal = Ltree_doc.Journal
module Dom = Ltree_xml.Dom
module Table = Ltree_metrics.Table
module Xml_gen = Ltree_workload.Xml_gen

let fresh_ldoc () =
  Labeled_doc.of_document
    (Xml_gen.generate ~seed:11 (Xml_gen.default_profile ~target_nodes:200 ()))

(* Append-only script: every entry inserts a small subtree under the
   root, so scripts of any length apply to the same base document. *)
let script ldoc n =
  let root = Option.get (Labeled_doc.document ldoc).Dom.root in
  let ops = ref [] in
  for k = 1 to n do
    let anchor = (Labeled_doc.label ldoc root).Labeled_doc.start_pos in
    let entry =
      Journal.Insert
        { anchor;
          index = Dom.child_count root;
          xml = Printf.sprintf "<patch n=\"%d\">p%d</patch>" k k }
    in
    Journal.apply_entry ldoc entry;
    ops := entry :: !ops
  done;
  List.rev !ops

let make_session ~group_commit () =
  let psim = Fault.create_sim () and rsim = Fault.create_sim () in
  let config =
    { Session.default_config with
      Session.group_commit;
      replica_group_commit = group_commit;
      checkpoint_every = 32 }
  in
  Session.create ~config ~primary_io:(Fault.sim_io psim) ~primary_dir:"p"
    ~replica_io:(Fault.sim_io rsim) ~replica_dir:"r" (fresh_ldoc ())

type row =
  | Steady of {
      group_commit : int;
      ops : int;
      ns_per_op : float;
      peak_lag : int;
      mean_lag : float;
      ticks : int;
      frames : int;
    }
  | Catchup of {
      group_commit : int;
      ops : int;
      ms : float;
      records_per_sec : float;
      ticks : int;
    }
  | Failover of {
      group_commit : int;
      ops : int;
      ms : float;
      promoted_seq : int;
      dropped : int;
    }
  | Waterfall of {
      group_commit : int;
      ops : int;
      records : int;
      mean_ship : float;  (** append → ship, virtual ticks *)
      mean_deliver : float;  (** ship → deliver *)
      mean_apply : float;  (** deliver → apply *)
      mean_readable : float;  (** apply → readable *)
      mean_e2e : float;  (** append → readable *)
      retries : int;
    }

let run_steady ~ops group_commit =
  let session = make_session ~group_commit () in
  let entries = script (fresh_ldoc ()) ops in
  let peak = ref 0 and lag_sum = ref 0 in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun e ->
      Session.apply session e;
      match Replica.lag (Session.replica session) with
      | Some l ->
        lag_sum := !lag_sum + l;
        if l > !peak then peak := l
      | None -> ())
    entries;
  if not (Session.quiesce ~max_pumps:(1024 + (16 * ops)) session) then
    failwith "exp_replication: steady-state run failed to catch up";
  let dt = Unix.gettimeofday () -. t0 in
  let sh = Shipper.stats (Session.shipper session) in
  Steady
    { group_commit;
      ops;
      ns_per_op = dt *. 1e9 /. float_of_int ops;
      peak_lag = !peak;
      mean_lag = float_of_int !lag_sum /. float_of_int ops;
      ticks = Session.clock session;
      frames = sh.Shipper.frames_sent }

let run_catchup ~ops group_commit =
  let session = make_session ~group_commit () in
  Channel.sever (Session.down session) ~now:(Session.clock session);
  List.iter (Session.apply session) (script (fresh_ldoc ()) ops);
  (* The shipper has parked on the dead channel by now; heal and time
     the drain. *)
  let ticks0 = Session.clock session in
  let t0 = Unix.gettimeofday () in
  Session.reconnect session;
  if not (Session.quiesce ~max_pumps:(1024 + (16 * ops)) session) then
    failwith "exp_replication: replica failed to catch up after reconnect";
  let dt = Unix.gettimeofday () -. t0 in
  Catchup
    { group_commit;
      ops;
      ms = dt *. 1e3;
      records_per_sec = float_of_int ops /. dt;
      ticks = Session.clock session - ticks0 }

let run_failover ~ops group_commit =
  let session = make_session ~group_commit () in
  List.iter (Session.apply session) (script (fresh_ldoc ()) ops);
  if not (Session.quiesce ~max_pumps:(1024 + (16 * ops)) session) then
    failwith "exp_replication: pre-failover run failed to catch up";
  let now = Session.clock session in
  Channel.sever (Session.down session) ~now;
  Channel.sever (Session.up session) ~now;
  let t0 = Unix.gettimeofday () in
  match Session.failover session with
  | Error e ->
    failwith
      (Format.asprintf "exp_replication: failover refused: %a"
         Replica.pp_error e)
  | Ok (report, promoted) ->
    let dt = Unix.gettimeofday () -. t0 in
    if Durable_doc.last_seq promoted <> ops then
      failwith "exp_replication: quiesced failover lost operations";
    Failover
      { group_commit;
        ops;
        ms = dt *. 1e3;
        promoted_seq = Durable_doc.last_seq promoted;
        dropped = report.Durable_doc.entries_dropped }

let run_waterfall ~ops group_commit =
  let module Causal = Ltree_obs.Causal in
  Causal.reset ();
  (* The e2e histogram lives in the process-wide registry; start each
     traced run from zero so check_waterfall compares like with like. *)
  (match Ltree_obs.Registry.find "repl_e2e_lag_ticks" with
   | Some h -> Ltree_obs.Histogram.reset h
   | None -> ());
  Causal.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Causal.set_enabled false;
      Causal.reset ())
  @@ fun () ->
  let session = make_session ~group_commit () in
  List.iter (Session.apply session) (script (fresh_ldoc ()) ops);
  if not (Session.quiesce ~max_pumps:(1024 + (16 * ops)) session) then
    failwith "exp_replication: traced run failed to catch up";
  (match Causal.check_waterfall () with
   | Ok _ -> ()
   | Error e -> failwith ("exp_replication: waterfall check failed: " ^ e));
  let records = Causal.records () in
  let mean stage_a stage_b =
    let sum = ref 0 and n = ref 0 in
    List.iter
      (fun tr ->
        match (Causal.stage_tick tr stage_a, Causal.stage_tick tr stage_b) with
        | Some a, Some b ->
          sum := !sum + (b - a);
          incr n
        | _ -> ())
      records;
    if !n = 0 then 0. else float_of_int !sum /. float_of_int !n
  in
  Waterfall
    { group_commit;
      ops;
      records = List.length records;
      mean_ship = mean Causal.Append Causal.Ship;
      mean_deliver = mean Causal.Ship Causal.Deliver;
      mean_apply = mean Causal.Deliver Causal.Apply;
      mean_readable = mean Causal.Apply Causal.Readable;
      mean_e2e = mean Causal.Append Causal.Readable;
      retries =
        List.fold_left (fun acc tr -> acc + tr.Causal.retries) 0 records }

let print_rows rows =
  Table.print ~title:"steady-state shipping vs. group commit"
    ~header:[ "group"; "ops"; "ns/op"; "peak lag"; "mean lag"; "ticks";
              "frames" ]
    ~align:
      [ Table.Right; Table.Right; Table.Right; Table.Right; Table.Right;
        Table.Right; Table.Right ]
    (List.filter_map
       (function
         | Steady s ->
           Some
             [ string_of_int s.group_commit; string_of_int s.ops;
               Printf.sprintf "%.0f" s.ns_per_op; string_of_int s.peak_lag;
               Printf.sprintf "%.2f" s.mean_lag; string_of_int s.ticks;
               string_of_int s.frames ]
         | Catchup _ | Failover _ | Waterfall _ -> None)
       rows);
  Table.print ~title:"cold-replica catch-up"
    ~header:[ "group"; "ops"; "ms"; "records/s"; "ticks" ]
    ~align:[ Table.Right; Table.Right; Table.Right; Table.Right; Table.Right ]
    (List.filter_map
       (function
         | Catchup c ->
           Some
             [ string_of_int c.group_commit; string_of_int c.ops;
               Printf.sprintf "%.2f" c.ms;
               Printf.sprintf "%.0f" c.records_per_sec;
               string_of_int c.ticks ]
         | Steady _ | Failover _ | Waterfall _ -> None)
       rows);
  Table.print ~title:"failover (condemn + sync + recover)"
    ~header:[ "group"; "ops"; "ms"; "promoted seq"; "dropped" ]
    ~align:[ Table.Right; Table.Right; Table.Right; Table.Right; Table.Right ]
    (List.filter_map
       (function
         | Failover f ->
           Some
             [ string_of_int f.group_commit; string_of_int f.ops;
               Printf.sprintf "%.3f" f.ms; string_of_int f.promoted_seq;
               string_of_int f.dropped ]
         | Steady _ | Catchup _ | Waterfall _ -> None)
       rows);
  Table.print ~title:"causal waterfall (mean virtual ticks per stage)"
    ~header:[ "group"; "records"; "ship"; "deliver"; "apply"; "readable";
              "e2e"; "retries" ]
    ~align:
      [ Table.Right; Table.Right; Table.Right; Table.Right; Table.Right;
        Table.Right; Table.Right; Table.Right ]
    (List.filter_map
       (function
         | Waterfall w ->
           Some
             [ string_of_int w.group_commit; string_of_int w.records;
               Printf.sprintf "%.2f" w.mean_ship;
               Printf.sprintf "%.2f" w.mean_deliver;
               Printf.sprintf "%.2f" w.mean_apply;
               Printf.sprintf "%.2f" w.mean_readable;
               Printf.sprintf "%.2f" w.mean_e2e; string_of_int w.retries ]
         | Steady _ | Catchup _ | Failover _ -> None)
       rows)

let record_row x =
  let open Bench_record in
  let case section g ops =
    [ ("section", str section); ("group_commit", int g); ("ops", int ops) ]
  in
  match x with
  | Steady s ->
    row ~case:(case "steady" s.group_commit s.ops)
      ~metrics:
        [ ("ns_per_op", num s.ns_per_op); ("peak_lag", int s.peak_lag);
          ("mean_lag", num s.mean_lag); ("ticks", int s.ticks);
          ("frames", int s.frames) ]
  | Catchup c ->
    row ~case:(case "catchup" c.group_commit c.ops)
      ~metrics:
        [ ("ms", num c.ms); ("records_per_sec", num c.records_per_sec);
          ("ticks", int c.ticks) ]
  | Failover f ->
    row ~case:(case "failover" f.group_commit f.ops)
      ~metrics:
        [ ("ms", num f.ms); ("promoted_seq", int f.promoted_seq);
          ("dropped", int f.dropped) ]
  | Waterfall w ->
    row ~case:(case "waterfall" w.group_commit w.ops)
      ~metrics:
        [ ("records", int w.records); ("mean_ship_ticks", num w.mean_ship);
          ("mean_deliver_ticks", num w.mean_deliver);
          ("mean_apply_ticks", num w.mean_apply);
          ("mean_readable_ticks", num w.mean_readable);
          ("mean_e2e_ticks", num w.mean_e2e); ("retries", int w.retries) ]

let () =
  let ops = ref 1_000 and json = ref "" in
  let rec parse = function
    | [] -> ()
    | "--ops" :: v :: rest ->
      ops := int_of_string v;
      parse rest
    | "--json" :: v :: rest ->
      json := v;
      parse rest
    | arg :: _ -> failwith ("exp_replication: unknown argument " ^ arg)
  in
  parse (List.tl (Array.to_list Sys.argv));
  let groups = [ 1; 4; 16; 64 ] in
  let rows =
    List.map (run_steady ~ops:!ops) groups
    @ List.map (run_catchup ~ops:!ops) groups
    @ List.map (run_failover ~ops:!ops) groups
    @ List.map (run_waterfall ~ops:!ops) groups
  in
  print_rows rows;
  Bench_record.write ~bench:"replication" !json (List.map record_row rows);
  print_newline ();
  print_string (Ltree_obs.Registry.expose ())
