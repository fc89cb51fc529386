(* Journal-shipping replication: frame codec, deterministic retry /
   backoff (bounded attempts, monotone delays, typed deadline expiry),
   channel fault injection, replica catch-up and Stale-refusal reads,
   divergence detection, and failover.  Everything is seeded — a
   failure replays exactly. *)

open Ltree_doc
open Ltree_recovery
open Ltree_replication
module Labeled_doc = Ltree_doc.Labeled_doc
module Parser = Ltree_xml.Parser
module Causal = Ltree_obs.Causal

let case = Alcotest.test_case

let labels_of ldoc = List.map snd (Labeled_doc.labeled_events ldoc)

let make_ldoc () =
  Labeled_doc.of_document
    (Parser.parse_string
       "<site><item><name>alpha</name></item><item><name>beta</name>\
        </item><note>n</note></site>")

(* Valid entries against [make_ldoc]'s shape, computed on a scratch
   document so anchors resolve at every position. *)
let script n =
  let ldoc = make_ldoc () in
  let root = Option.get (Labeled_doc.document ldoc).Ltree_xml.Dom.root in
  let ops = ref [] in
  for k = 1 to n do
    let anchor = (Labeled_doc.label ldoc root).Labeled_doc.start_pos in
    let entry =
      Journal.Insert
        { anchor;
          index = Ltree_xml.Dom.child_count root;
          xml = Printf.sprintf "<patch n=\"%d\">p%d</patch>" k k }
    in
    Journal.apply_entry ldoc entry;
    ops := entry :: !ops
  done;
  (List.rev !ops, ldoc)

(* {1 Frame codec} *)

let frame_roundtrip () =
  let frames =
    [ Frame.Data
        { epoch = 1; hwm = 9; seq = 4; payload = "I 12 0 <a b=\"c d\"/>" };
      Frame.Snapshot
        { epoch = 2; base_seq = 7; chain = 0xDEADBEEF;
          data = "line1\nline2\\with\\slashes\n" };
      Frame.Handshake { epoch = 1; seq = 3; chain = 0 };
      Frame.Ack { epoch = 1; seq = 42 };
      Frame.Hello { epoch = 0; seq = -1 } ]
  in
  List.iter
    (fun f ->
      let line = Frame.encode f in
      Alcotest.(check char)
        "newline-terminated" '\n'
        line.[String.length line - 1];
      let back = Frame.decode (String.sub line 0 (String.length line - 1)) in
      match back with
      | Ok g -> Alcotest.(check bool) "round trip" true (f = g)
      | Error e -> Alcotest.failf "decode failed: %a" Frame.pp_error e)
    frames

(* One of each kind, with payload bytes that need escaping. *)
let sample_frames =
  let payload =
    Journal.encode_entry
      (Journal.Insert { anchor = 12; index = 0; xml = "<a>\\\n</a>" })
  in
  [ Frame.Data { epoch = 1; hwm = 9; seq = 4; payload };
    Frame.Snapshot
      { epoch = 2; base_seq = 7; chain = 0xDEADBEEF;
        data = "line1\nline2\\with\\slashes\n" };
    Frame.Handshake { epoch = 1; seq = 300; chain = 0xFFFFFFFF };
    Frame.Ack { epoch = 1; seq = 42 };
    Frame.Hello { epoch = 0; seq = -1 } ]

let line_of f =
  let line = Frame.encode f in
  String.sub line 0 (String.length line - 1)

(* Every truncation and every bit flip of each kind's line decodes to an
   error, never to a different frame. *)
let frame_rejects_damage () =
  List.iter
    (fun f ->
      let line = line_of f in
      let rejects what damaged =
        match Frame.decode damaged with
        | Error (_ : Frame.error) -> ()
        | Ok g ->
          Alcotest.failf "%s of %S decoded (%s)" what line
            (if f = g then "to the same frame" else "to another frame")
      in
      for cut = 0 to String.length line - 1 do
        rejects (Printf.sprintf "cut at %d" cut) (String.sub line 0 cut)
      done;
      for i = 0 to String.length line - 1 do
        for bit = 0 to 7 do
          let b = Bytes.of_string line in
          Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
          rejects (Printf.sprintf "bit %d of byte %d" bit i) (Bytes.to_string b)
        done
      done)
    sample_frames;
  (* A flipped payload bit keeps the layout: the CRC names it. *)
  let line = line_of (List.hd sample_frames) in
  let i = ref (String.length line - 4) in
  while not (String.equal (String.sub line !i 4) "</a>") do decr i done;
  let b = Bytes.of_string line in
  Bytes.set b !i (Char.chr (Char.code (Bytes.get b !i) lxor 1));
  (match Frame.decode (Bytes.to_string b) with
   | Error (Record.Checksum_mismatch _) -> ()
   | Ok _ | Error _ -> Alcotest.fail "payload bit flip not caught by the CRC");
  (* An escaped newline written raw decodes to the same record, but the
     line is not the encoder's: rejected. *)
  let line = line_of (List.nth sample_frames 1) in
  let i = ref 0 in
  while not (String.equal (String.sub line !i 2) "\\n") do incr i done;
  let raw =
    String.sub line 0 !i ^ "\n"
    ^ String.sub line (!i + 2) (String.length line - !i - 2)
  in
  (match Frame.decode raw with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "raw newline accepted");
  (* A CRC-valid record whose body runs past an ack's last field. *)
  let record = Buffer.create 16 in
  Record.add record (fun b -> Buffer.add_string b "A\001\042\000");
  let escaped = Buffer.create 16 in
  String.iter
    (function
      | '\n' -> Buffer.add_string escaped "\\n"
      | '\\' -> Buffer.add_string escaped "\\\\"
      | c -> Buffer.add_char escaped c)
    (Buffer.contents record);
  (match Frame.decode (Buffer.contents escaped) with
   | Error (Record.Malformed _) -> ()
   | Ok _ | Error _ -> Alcotest.fail "trailing body byte accepted");
  (* The text protocol's lines are not frames. *)
  match Frame.decode "F deadbeef A 1 2" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "text frame accepted"

(* Whenever [decode] accepts a line, [encode] gives back exactly that
   line: chain links and causal ids hash what was shipped, so a frame
   has one encoding.  Damaged lines make the accepting cases rare, so
   the intact ones are drawn too. *)
let frame_canonical_prop =
  let lines = Array.of_list (List.map line_of sample_frames) in
  let gen =
    QCheck.Gen.(
      oneof
        [ map (fun i -> lines.(i)) (int_bound (Array.length lines - 1));
          map3
            (fun i k c ->
              let b = Bytes.of_string lines.(i) in
              let k = k mod Bytes.length b in
              Bytes.set b k (Char.chr c);
              Bytes.to_string b)
            (int_bound (Array.length lines - 1)) nat (int_bound 255);
          string_size ~gen:char (int_bound 16) ])
  in
  QCheck.Test.make ~count:2000
    ~name:"accepted frame lines re-encode to themselves"
    (QCheck.make ~print:String.escaped gen)
    (fun line ->
      match Frame.decode line with
      | Ok f -> String.equal (Frame.encode f) (line ^ "\n")
      | Error _ -> true)

let snapshot_escaping () =
  let data = "a\nb\\n literal \\\\ and \\ trailing\n" in
  let f = Frame.Snapshot { epoch = 1; base_seq = 3; chain = 7; data } in
  let line = Frame.encode f in
  Alcotest.(check int) "one line on the wire" 1
    (List.length (String.split_on_char '\n' line) - 1);
  match Frame.decode (String.sub line 0 (String.length line - 1)) with
  | Ok g -> Alcotest.(check bool) "snapshot data survives escaping" true (f = g)
  | Error e -> Alcotest.failf "decode failed: %a" Frame.pp_error e

let assembler_reassembles () =
  let asm = Frame.Assembler.create () in
  let lines = Frame.Assembler.feed asm [ "one\ntw" ] in
  Alcotest.(check (list string)) "first" [ "one" ] lines;
  let lines = Frame.Assembler.feed asm [ "o\n"; "three\nfour" ] in
  Alcotest.(check (list string)) "split healed" [ "two"; "three" ] lines;
  let lines = Frame.Assembler.feed asm [ "\n" ] in
  Alcotest.(check (list string)) "tail" [ "four" ] lines

(* {1 Backoff} *)

let backoff_monotone_capped () =
  let p = { Backoff.base = 1; factor = 2; cap = 16; max_attempts = 20;
            deadline = 10_000 } in
  let prev = ref 0 in
  for attempt = 1 to 12 do
    let d = Backoff.delay p ~attempt in
    Alcotest.(check bool)
      (Printf.sprintf "monotone at %d" attempt)
      true (d >= !prev);
    Alcotest.(check bool)
      (Printf.sprintf "capped at %d" attempt)
      true (d <= p.cap);
    prev := d
  done;
  Alcotest.(check int) "exact early values" 1 (Backoff.delay p ~attempt:1);
  Alcotest.(check int) "doubling" 8 (Backoff.delay p ~attempt:4);
  Alcotest.(check int) "hits cap" 16 (Backoff.delay p ~attempt:9)

let backoff_bounded_attempts () =
  let p = { Backoff.default_policy with max_attempts = 3; deadline = 1000 } in
  (match Backoff.check p ~attempt:2 ~waited:5 with
  | Ok d -> Alcotest.(check int) "retry allowed with next delay" 4 d
  | Error _ -> Alcotest.fail "attempt 2 of 3 refused");
  match Backoff.check p ~attempt:3 ~waited:5 with
  | Error (Backoff.Exhausted { attempts }) ->
    Alcotest.(check int) "typed exhaustion" 3 attempts
  | Ok _ | Error _ -> Alcotest.fail "exhaustion not typed"

let backoff_deadline_typed () =
  let p = { Backoff.default_policy with max_attempts = 99; deadline = 50 } in
  (match Backoff.check p ~attempt:4 ~waited:50 with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "at-deadline refused");
  match Backoff.check p ~attempt:4 ~waited:51 with
  | Error (Backoff.Deadline_exceeded { waited; deadline }) ->
    Alcotest.(check int) "waited" 51 waited;
    Alcotest.(check int) "deadline" 50 deadline
  | Ok _ | Error _ -> Alcotest.fail "deadline expiry not typed"

(* {1 Channel} *)

let channel_deterministic () =
  let plan =
    { Channel.ideal with
      seed = 7;
      noise_every = 2;
      noise_modes = Fault.channel_modes }
  in
  let run () =
    let ch = Channel.create ~plan () in
    let out = ref [] in
    for now = 1 to 40 do
      Channel.send ch ~now (Printf.sprintf "msg-%d\n" now);
      out := !out @ Channel.drain ch ~now
    done;
    for now = 41 to 50 do
      out := !out @ Channel.drain ch ~now
    done;
    (!out, Channel.stats ch)
  in
  let a, sa = run () and b, sb = run () in
  Alcotest.(check (list string)) "same deliveries" a b;
  Alcotest.(check bool) "same stats" true (sa = sb);
  Alcotest.(check bool) "noise actually injected" true
    (sa.Channel.dropped + sa.Channel.damaged + sa.Channel.delayed > 0)

let channel_short_read_heals () =
  (* Every send short-reads; the assembler must still see whole lines
     once the remainders arrive. *)
  let plan =
    { Channel.ideal with seed = 3; noise_every = 1;
      noise_modes = [ Fault.Short_read ] }
  in
  let ch = Channel.create ~plan () in
  let asm = Frame.Assembler.create () in
  let got = ref [] in
  for now = 1 to 20 do
    Channel.send ch ~now (Printf.sprintf "line-%d\n" now);
    got := !got @ Frame.Assembler.feed asm (Channel.drain ch ~now)
  done;
  for now = 21 to 30 do
    got := !got @ Frame.Assembler.feed asm (Channel.drain ch ~now)
  done;
  Alcotest.(check (list string))
    "all lines reassembled in order"
    (List.init 20 (fun i -> Printf.sprintf "line-%d" (i + 1)))
    !got

let channel_sever_drops () =
  let plan = { Channel.ideal with sever_at = Some (3, Fault.Clean) } in
  let ch = Channel.create ~plan () in
  Channel.send ch ~now:1 "a\n";
  Channel.send ch ~now:1 "b\n";
  Channel.send ch ~now:1 "c\n";
  Channel.send ch ~now:1 "d\n";
  Alcotest.(check bool) "severed" true (Channel.severed ch);
  Alcotest.(check (list string))
    "only pre-sever traffic" [ "a\n"; "b\n" ]
    (Channel.drain ch ~now:9);
  Channel.reconnect ch;
  Channel.send ch ~now:10 "e\n";
  Alcotest.(check (list string)) "flows after reconnect" [ "e\n" ]
    (Channel.drain ch ~now:10)

(* {1 Sessions: catch-up, staleness, divergence, failover} *)

let session_over ?(config = Session.default_config) ?primary_plan
    ?replica_plan n_ops =
  let psim = Fault.create_sim ?plan:primary_plan () in
  let rsim = Fault.create_sim ?plan:replica_plan () in
  let session =
    Session.create ~config ~primary_io:(Fault.sim_io psim) ~primary_dir:"p"
      ~replica_io:(Fault.sim_io rsim) ~replica_dir:"r" (make_ldoc ())
  in
  let ops, oracle = script n_ops in
  List.iter (Session.apply session) ops;
  (session, oracle, psim, rsim)

let clean_catch_up () =
  let session, oracle, _, _ = session_over 25 in
  Alcotest.(check bool) "quiesced" true (Session.quiesce session);
  match Replica.read (Session.replica session) labels_of with
  | Ok labels ->
    Alcotest.(check (list int))
      "replica bit-identical to oracle" (labels_of oracle) labels
  | Error e -> Alcotest.failf "read refused: %a" Replica.pp_error e

let noisy_catch_up () =
  let noisy seed =
    { Channel.ideal with
      seed;
      noise_every = 3;
      noise_modes = Fault.channel_modes }
  in
  let config =
    { Session.default_config with
      down_plan = noisy 11;
      up_plan = noisy 12;
      attach_pumps = 128 }
  in
  let session, oracle, _, _ = session_over ~config 40 in
  Alcotest.(check bool) "quiesced through noise" true
    (Session.quiesce ~max_pumps:2048 session);
  (match Replica.read (Session.replica session) labels_of with
  | Ok labels ->
    Alcotest.(check (list int))
      "identical despite damage" (labels_of oracle) labels
  | Error e -> Alcotest.failf "read refused: %a" Replica.pp_error e);
  let s = Shipper.stats (Session.shipper session) in
  Alcotest.(check bool) "damage forced retries" true (s.Shipper.retries > 0)

let stale_read_refused () =
  (* Drive a replica by hand so the lag is exact: deliver seq 2 with a
     high-water mark of 2 while seq 1 is still missing. *)
  let sim = Fault.create_sim () in
  let io = Fault.sim_io sim in
  let store = Durable_doc.initialize ~io ~dir:"p" (make_ldoc ()) in
  let snapshot_bytes = Option.get (io.Fault.read_file "p/snapshot") in
  let anchor = Chain.anchor snapshot_bytes in
  let ops, _oracle = script 2 in
  let payloads = List.map Journal.encode_entry ops in
  let p1 = List.nth payloads 0 and p2 = List.nth payloads 1 in
  ignore store;
  let rsim = Fault.create_sim () in
  let down = Channel.create () and up = Channel.create () in
  let replica =
    Replica.create ~io:(Fault.sim_io rsim) ~dir:"r" ~inbox:down ~outbox:up ()
  in
  Channel.send down ~now:1
    (Frame.encode
       (Frame.Snapshot { epoch = 1; base_seq = 0; chain = anchor;
                         data = snapshot_bytes }));
  Replica.pump replica ~now:1;
  Alcotest.(check (option int)) "bootstrapped at 0" (Some 0)
    (Replica.applied_seq replica);
  Channel.send down ~now:2
    (Frame.encode
       (Frame.Data { epoch = 1; hwm = 2; seq = 2; payload = p2 }));
  Replica.pump replica ~now:2;
  (match Replica.read ~max_lag:0 replica labels_of with
  | Error (Replica.Stale { lag; max_lag }) ->
    Alcotest.(check int) "lag counts the gap" 2 lag;
    Alcotest.(check int) "bound reported" 0 max_lag
  | Ok _ -> Alcotest.fail "stale read served"
  | Error e -> Alcotest.failf "wrong refusal: %a" Replica.pp_error e);
  (* Looser bound: same read is allowed. *)
  (match Replica.read ~max_lag:5 replica labels_of with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "loose bound refused: %a" Replica.pp_error e);
  (* The missing record arrives; the stash drains; lag closes. *)
  Channel.send down ~now:3
    (Frame.encode
       (Frame.Data { epoch = 1; hwm = 2; seq = 1; payload = p1 }));
  Replica.pump replica ~now:3;
  Alcotest.(check (option int)) "caught up" (Some 2)
    (Replica.applied_seq replica);
  match Replica.read ~max_lag:0 replica labels_of with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "fresh read refused: %a" Replica.pp_error e

let divergence_rejected () =
  let session, _oracle, _, _ = session_over 10 in
  Alcotest.(check bool) "healthy first" true (Session.quiesce session);
  let replica = Session.replica session in
  (* A rogue write reaches the replica store outside the stream. *)
  let rstore = Option.get (Replica.store replica) in
  let root =
    Option.get
      (Labeled_doc.document (Durable_doc.ldoc rstore)).Ltree_xml.Dom.root
  in
  let anchor =
    (Labeled_doc.label (Durable_doc.ldoc rstore) root).Labeled_doc.start_pos
  in
  Durable_doc.apply rstore
    (Journal.Insert { anchor; index = 0; xml = "<rogue/>" });
  (* Keep replicating: the next handshake must catch it. *)
  let ops, _ = script 20 in
  List.iter (Session.apply session) ops;
  ignore (Session.quiesce session);
  (match Replica.diverged replica with
  | Some _ -> ()
  | None -> Alcotest.fail "rogue write not detected");
  (match Replica.read replica labels_of with
  | Error (Replica.Diverged _) -> ()
  | Ok _ -> Alcotest.fail "diverged replica served a read"
  | Error e -> Alcotest.failf "wrong refusal: %a" Replica.pp_error e);
  match Replica.promote replica with
  | Error (Replica.Diverged _) -> ()
  | Ok _ -> Alcotest.fail "diverged replica promoted"
  | Error e -> Alcotest.failf "wrong promote refusal: %a" Replica.pp_error e

let chain_mismatch_detected () =
  let session, _oracle, _, _ = session_over 5 in
  Alcotest.(check bool) "healthy first" true (Session.quiesce session);
  let replica = Session.replica session in
  let applied = Option.get (Replica.applied_seq replica) in
  (* Forge a handshake whose chain cannot match. *)
  Channel.send (Session.down session)
    ~now:(Session.clock session + 1)
    (Frame.encode
       (Frame.Handshake { epoch = 99; seq = applied; chain = 0x1234567 }));
  Replica.pump replica ~now:(Session.clock session + 1);
  match Replica.diverged replica with
  | Some (Replica.Chain_mismatch { at_seq; _ }) ->
    Alcotest.(check int) "at the handshaken seq" applied at_seq
  | Some d ->
    Alcotest.failf "wrong divergence: %a" Replica.pp_divergence d
  | None -> Alcotest.fail "chain mismatch not detected"

let failover_promotes () =
  let session, oracle, _, _ = session_over 30 in
  Alcotest.(check bool) "caught up before the cut" true
    (Session.quiesce session);
  let primary_epoch = Durable_doc.epoch (Session.primary session) in
  (* Lose the primary: sever both directions mid-flight. *)
  Channel.sever (Session.down session) ~now:(Session.clock session);
  Channel.sever (Session.up session) ~now:(Session.clock session);
  match Session.failover session with
  | Error e -> Alcotest.failf "failover refused: %a" Replica.pp_error e
  | Ok (report, promoted) ->
    Alcotest.(check bool)
      "promotion bumps the epoch past the primary's" true
      (Durable_doc.epoch promoted > primary_epoch);
    Alcotest.(check int) "nothing condemned on a quiesced replica" 0
      report.Durable_doc.entries_dropped;
    Alcotest.(check (list int))
      "survivor bit-identical to oracle" (labels_of oracle)
      (labels_of (Durable_doc.ldoc promoted))

let replica_reattach_after_crash () =
  let psim = Fault.create_sim () in
  let rsim = Fault.create_sim () in
  let session =
    Session.create ~primary_io:(Fault.sim_io psim) ~primary_dir:"p"
      ~replica_io:(Fault.sim_io rsim) ~replica_dir:"r" (make_ldoc ())
  in
  let ops, oracle = script 30 in
  let before, after = (List.filteri (fun i _ -> i < 20) ops,
                       List.filteri (fun i _ -> i >= 20) ops) in
  List.iter (Session.apply session) before;
  Alcotest.(check bool) "caught up" true (Session.quiesce session);
  (* "Crash" the replica process: recover a fresh store from its
     surviving files and re-attach it to the same session. *)
  let rsim2 = Fault.create_sim ~files:(Fault.dump rsim) () in
  let io2 = Fault.sim_io rsim2 in
  (match Durable_doc.recover ~io:io2 ~dir:"r" () with
  | Error faults ->
    Alcotest.failf "replica store unrecoverable (%d faults)"
      (List.length faults)
  | Ok (_report, store) ->
    ignore (Session.replace_replica ~io:io2 ~store session));
  List.iter (Session.apply session) after;
  Alcotest.(check bool) "caught up after reattach" true
    (Session.quiesce session);
  match Replica.read (Session.replica session) labels_of with
  | Ok labels ->
    Alcotest.(check (list int))
      "reattached replica tracks new writes" (labels_of oracle) labels
  | Error e -> Alcotest.failf "read refused: %a" Replica.pp_error e

(* A small but complete replica-level crash matrix: every primary and
   replica write point, every channel send, all modes, plus the
   divergence probe — each cell recovered / promoted / resynced and
   verified against the oracle. *)
let matrix_smoke () =
  let config =
    { Matrix.seed = 7;
      ops = 12;
      doc_nodes = 30;
      group_commit = 2;
      checkpoint_every = 6 }
  in
  let s = Repl_matrix.run config in
  (match
     List.filter (fun c -> c.Matrix.failures <> [])
       s.Repl_matrix.sweep.Matrix.cells
   with
  | [] -> ()
  | c :: _ ->
    Alcotest.failf "%d cells failed; first %s: %s"
      s.Repl_matrix.sweep.Matrix.failed_cells
      (Repl_matrix.cell_name c.Matrix.id)
      (String.concat "; " c.Matrix.failures));
  Alcotest.(check bool) "sweep complete" true (Matrix.ok s.Repl_matrix.sweep);
  Alcotest.(check bool) "swept all three sites" true
    (s.Repl_matrix.primary_points > 0
    && s.Repl_matrix.replica_points > 0
    && s.Repl_matrix.channel_sends > 0)

let matrix_cell_names () =
  List.iter
    (fun (s, want) ->
      match (Repl_matrix.parse_cell s, want) with
      | Some id, true ->
        Alcotest.(check string)
          "name round-trips" s (Repl_matrix.cell_name id)
      | None, false -> ()
      | Some _, false -> Alcotest.failf "parsed junk %S" s
      | None, true -> Alcotest.failf "failed to parse %S" s)
    [ ("primary:P12/torn", true);
      ("replica:P5/clean", true);
      ("channel:C9/flip", true);
      ("probe:divergence", true);
      ("primary:C12/torn", false);
      ("channel:P9/flip", false);
      ("primary:P0/torn", false);
      ("primary:P12/bogus", false);
      ("store:P12/torn", false);
      ("P12/torn", false) ]

(* {1 Tailing the journal from a cursor} *)

(* The shipper resumes each scan where the last one stopped, so over a
   long run it reads each appended byte about once (plus one header per
   rotation) — not the whole journal on every pump. *)
let ingest_scans_linear () =
  let pio = Fault.sim_io (Fault.create_sim ()) in
  let appended = ref 0 in
  let primary_io =
    { pio with
      Fault.append_file =
        (fun path data ->
          appended := !appended + String.length data;
          pio.Fault.append_file path data) }
  in
  let config = { Session.default_config with checkpoint_every = 512 } in
  let session =
    Session.create ~config ~primary_io ~primary_dir:"p"
      ~replica_io:(Fault.sim_io (Fault.create_sim ())) ~replica_dir:"r"
      (make_ldoc ())
  in
  let ops, _ = script 2000 in
  List.iter (Session.apply session) ops;
  Alcotest.(check bool) "quiesced" true (Session.quiesce session);
  let scanned = (Shipper.stats (Session.shipper session)).Shipper.scanned_bytes in
  Alcotest.(check bool) "journal written" true (!appended > 0);
  if scanned > 2 * !appended then
    Alcotest.failf "scanned %d bytes for %d appended" scanned !appended

(* The test plays the replica: it decodes every frame the shipper sends
   and checks it against values recomputed from the script alone. *)
type tail_oracle = {
  entries : Journal.entry array;  (* entry [k - 1] carries seq [k] *)
  asm : Frame.Assembler.asm;
  mutable anchor_base : int;
  mutable anchor_chain : int;
  mutable applied : int option;
  mutable data_frames : int;
  mutable handshakes : int;
  mutable snapshots : int;
}

let expected_chain o seq =
  if seq < o.anchor_base then
    Alcotest.failf "chain at %d requested below its anchor %d" seq
      o.anchor_base;
  let c = ref o.anchor_chain in
  for s = o.anchor_base + 1 to seq do
    c :=
      Chain.extend ~prev:!c ~seq:s
        ~payload:(Journal.encode_entry o.entries.(s - 1))
  done;
  !c

let oracle_receive o ~down ~up ~now =
  List.iter
    (fun line ->
      match Frame.decode line with
      | Error e -> Alcotest.failf "bad frame on an ideal channel: %a" Frame.pp_error e
      | Ok (Frame.Data { seq; payload; _ }) ->
        Alcotest.(check string)
          (Printf.sprintf "data frame %d" seq)
          (Journal.encode_entry o.entries.(seq - 1))
          payload;
        o.data_frames <- o.data_frames + 1;
        if o.applied = Some (seq - 1) then o.applied <- Some seq
      | Ok (Frame.Handshake { seq; chain; _ }) ->
        Alcotest.(check int)
          (Printf.sprintf "handshake chain at %d" seq)
          (expected_chain o seq) chain;
        o.handshakes <- o.handshakes + 1
      | Ok (Frame.Snapshot { base_seq; chain; data; _ }) ->
        (* Either a re-anchor at this snapshot's bytes, or the chain
           carried on unbroken from the current anchor. *)
        if chain = Chain.anchor data then begin
          o.anchor_base <- base_seq;
          o.anchor_chain <- chain
        end
        else
          Alcotest.(check int)
            (Printf.sprintf "snapshot chain at %d" base_seq)
            (expected_chain o base_seq) chain;
        o.snapshots <- o.snapshots + 1;
        o.applied <-
          Some
            (match o.applied with
             | Some a when a > base_seq -> a
             | Some _ | None -> base_seq)
      | Ok (Frame.Ack _ | Frame.Hello _) ->
        Alcotest.fail "replica-bound frame sent upstream")
    (Frame.Assembler.feed o.asm (Channel.drain down ~now));
  match o.applied with
  | Some seq -> Channel.send up ~now (Frame.encode (Frame.Ack { epoch = 0; seq }))
  | None -> ()

(* A primary store with [first] script entries behind it.  [recovered]
   rebuilds it from a crash image taken between a checkpoint's snapshot
   rename and its journal truncation: the journal still holds records
   1..[first], all at or below the snapshot's base. *)
let tail_primary ~recovered ~group_commit entries first =
  let sim = Fault.create_sim () in
  let io = Fault.sim_io sim in
  let store = Durable_doc.initialize ~io ~group_commit ~dir:"p" (make_ldoc ()) in
  for k = 1 to first do
    Durable_doc.apply store entries.(k - 1)
  done;
  Durable_doc.sync store;
  if not recovered then (io, store)
  else begin
    let journal = Option.get (io.Fault.read_file "p/journal") in
    Durable_doc.checkpoint store;
    let image =
      List.map
        (fun (path, data) ->
          (path, if String.equal path "p/journal" then journal else data))
        (Fault.dump sim)
    in
    let io = Fault.sim_io (Fault.create_sim ~files:image ()) in
    match Durable_doc.recover ~io ~group_commit ~dir:"p" () with
    | Error _ -> Alcotest.fail "crash image must recover"
    | Ok (report, store) ->
      Alcotest.(check int) "journal records skipped, not replayed" first
        report.Durable_doc.entries_skipped;
      (io, store)
  end

let tail_schedule ~recovered seed =
  let prng = Ltree_workload.Prng.create seed in
  let rand n = Ltree_workload.Prng.int prng n in
  let n = 120 in
  let ops, _ = script n in
  let entries = Array.of_list ops in
  let first = if recovered then 10 + rand 20 else 0 in
  let io, store =
    tail_primary ~recovered ~group_commit:(1 + rand 4) entries first
  in
  let down = Channel.create () and up = Channel.create () in
  let shipper = Shipper.create ~io ~dir:"p" ~store ~down ~up () in
  let o =
    { entries;
      asm = Frame.Assembler.create ();
      anchor_base = Durable_doc.last_seq store;
      anchor_chain = Chain.anchor (Option.get (io.Fault.read_file "p/snapshot"));
      applied = None;
      data_frames = 0;
      handshakes = 0;
      snapshots = 0 }
  in
  let now = ref 0 in
  let pump () =
    incr now;
    Shipper.pump shipper ~now:!now;
    oracle_receive o ~down ~up ~now:!now
  in
  let next = ref (first + 1) in
  let append k =
    for _ = 1 to k do
      if !next <= n then begin
        Durable_doc.apply store entries.(!next - 1);
        incr next
      end
    done
  in
  (* Checkpoints follow the session's rule (sync, pump, rotate) so no
     record is truncated unseen; the double rotation and the replica's
     re-bootstrap (hello -1, answered by a forced checkpoint) move the
     generation without a pump in between. *)
  let rotate () =
    Durable_doc.sync store;
    pump ();
    Durable_doc.checkpoint store
  in
  while !next <= n do
    match rand 10 with
    | 0 -> rotate ()
    | 1 -> rotate (); Durable_doc.checkpoint store
    | 2 ->
      o.applied <- None;
      Channel.send up ~now:!now (Frame.encode (Frame.Hello { epoch = 0; seq = -1 }))
    | 3 -> Durable_doc.sync store
    | 4 -> append (8 + rand 24) (* outgrow the old generation's cursor *)
    | 5 | 6 -> pump ()
    | _ -> append 1; if rand 2 = 0 then pump ()
  done;
  Durable_doc.sync store;
  let pumps = ref 0 in
  while o.applied <> Some n && !pumps < 64 do
    pump ();
    incr pumps
  done;
  Alcotest.(check (option int))
    (Printf.sprintf "seed %d caught up" seed)
    (Some n) o.applied;
  o

let cursor_matches_recomputation () =
  let data = ref 0 and handshakes = ref 0 and snapshots = ref 0 in
  List.iter
    (fun recovered ->
      for seed = 1 to 12 do
        let o = tail_schedule ~recovered seed in
        data := !data + o.data_frames;
        handshakes := !handshakes + o.handshakes;
        snapshots := !snapshots + o.snapshots
      done)
    [ false; true ];
  Alcotest.(check bool) "data frames checked" true (!data > 1000);
  Alcotest.(check bool) "handshakes checked" true (!handshakes > 50);
  Alcotest.(check bool) "re-bootstraps exercised" true (!snapshots > 24)

(* {1 Causal tracing} *)

(* A noisy session of [n_ops] operations with causal tracing on, on a
   ring sized so it drops nothing; [f] sees the caught-up session and
   its oracle. *)
let with_traced_session n_ops f =
  Ltree_obs.Span.set_capacity_for ~ops:n_ops;
  Causal.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Causal.set_enabled false;
      Ltree_obs.Span.set_capacity 4096)
  @@ fun () ->
  let noisy seed =
    { Channel.ideal with
      seed;
      noise_every = 3;
      noise_modes = Fault.channel_modes }
  in
  let config =
    { Session.default_config with
      down_plan = noisy 11;
      up_plan = noisy 12;
      attach_pumps = 128 }
  in
  let session, oracle, _, _ = session_over ~config n_ops in
  Alcotest.(check bool) "caught up under noise" true
    (Session.quiesce ~max_pumps:2048 session);
  Alcotest.(check int) "the ring dropped nothing" 0
    (Ltree_obs.Span.dropped ());
  f session oracle

(* Drive a noisy session with tracing on; the waterfall folded from
   the ring has a row per record, stages in pipeline order, retries
   attributed to records, and complete rows whose stage deltas sum to
   their e2e column. *)
let causal_waterfall_e2e () =
  with_traced_session 20 @@ fun session oracle ->
  (match Replica.read (Session.replica session) labels_of with
   | Ok labels ->
     Alcotest.(check (list int)) "bit-identical" (labels_of oracle) labels
   | Error e -> Alcotest.failf "read refused: %a" Replica.pp_error e);
  let records = Causal.records (Ltree_obs.Span.entries ()) in
  Alcotest.(check bool) "every scripted record traced" true
    (List.length records >= 20);
  List.iter
    (fun tr ->
      let pairs =
        [ (Causal.Append, Causal.Ship); (Causal.Ship, Causal.Deliver);
          (Causal.Deliver, Causal.Apply); (Causal.Apply, Causal.Readable) ]
      in
      List.iter
        (fun (a, b) ->
          match (Causal.stage_tick tr a, Causal.stage_tick tr b) with
          | Some ta, Some tb ->
            Alcotest.(check bool)
              (Printf.sprintf "seq %d: %s <= %s" tr.Causal.trace_seq
                 (Causal.stage_name a) (Causal.stage_name b))
              true (ta <= tb)
          | _ -> ())
        pairs)
    records;
  Alcotest.(check bool) "noise attributed retries to records" true
    (List.exists (fun tr -> tr.Causal.retries > 0) records);
  let wf = Causal.waterfall records in
  Alcotest.(check int) "waterfall renders a row per record"
    (List.length records + 2)
    (List.length (String.split_on_char '\n' wf));
  Test_obs.waterfall_rows_telescope wf

(* The stamps are ring entries, so a flight-recorder bundle carries
   them: the dumped bundle validates, and its [causal] entry lines,
   read back, fold into exactly the waterfall of the live ring. *)
let causal_stamps_in_bundle () =
  with_traced_session 20 @@ fun _ _ ->
  let bundle = Ltree_obs.Recorder.dump ~reason:"test" () in
  (match Ltree_obs.Recorder.validate bundle with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "bundle rejected: %s" e);
  let module Json = Ltree_obs.Json in
  let str k v =
    match Json.member k v with Some (Json.Str s) -> Some s | _ -> None
  in
  let entry line =
    match Json.parse line with
    | Error _ -> None
    | Ok v -> (
      match (str "kind" v, str "name" v, Json.member "tick" v) with
      | Some "causal", Some name, Some (Json.Num tick) ->
        let attrs =
          match Json.member "attrs" v with
          | Some (Json.Obj kv) ->
            List.filter_map
              (function k, Json.Str s -> Some (k, s) | _ -> None)
              kv
          | _ -> []
        in
        Some
          { Ltree_obs.Trace.kind = "causal"; name; path = name; depth = 0;
            domain = 0; tick = int_of_float tick; start = 0.;
            duration = 0.; deltas = []; attrs }
      | _ -> None)
  in
  let from_bundle =
    Causal.records (List.filter_map entry (String.split_on_char '\n' bundle))
  in
  let live = Causal.records (Ltree_obs.Span.entries ()) in
  Alcotest.(check bool) "the bundle holds every record" true
    (List.length from_bundle >= 20);
  Alcotest.(check string) "bundle rows = live waterfall rows"
    (Causal.waterfall live) (Causal.waterfall from_bundle)

(* No id travels on the wire: the replica recomputes each record's id
   from the (seq, payload) it received.  Under channel damage every
   causal entry of a seq still carries one id, so each record folds
   into one row holding both the primary's stamps (append, ship) and
   the replica's (deliver, apply). *)
let causal_ids_agree_across_ends () =
  with_traced_session 20 @@ fun _ _ ->
  let module Int_tbl = Ltree_metrics.Int_tbl in
  let ids = Int_tbl.create 64 in
  List.iter
    (fun (r : Ltree_obs.Trace.record) ->
      if r.kind = "causal" then
        match (List.assoc_opt "seq" r.attrs, List.assoc_opt "id" r.attrs) with
        | Some seq, Some id -> (
          let seq = int_of_string seq in
          match Int_tbl.find_opt ids seq with
          | None -> Int_tbl.replace ids seq id
          | Some first ->
            Alcotest.(check string)
              (Printf.sprintf "seq %d: %s stamp's id" seq r.name)
              first id)
        | _ -> Alcotest.failf "causal entry without seq/id: %s" r.name)
    (Ltree_obs.Span.entries ());
  let records = Causal.records (Ltree_obs.Span.entries ()) in
  Alcotest.(check int) "one row per seq" (Int_tbl.length ids)
    (List.length records);
  List.iter
    (fun tr ->
      List.iter
        (fun s ->
          Alcotest.(check bool)
            (Printf.sprintf "seq %d stamped at %s" tr.Causal.trace_seq
               (Causal.stage_name s))
            true
            (Option.is_some (Causal.stage_tick tr s)))
        [ Causal.Append; Causal.Ship; Causal.Deliver; Causal.Apply ])
    records

(* A traced run's ring is sized from its op count.  A ring too small
   for the run overwrites its oldest stamps and counts the drops, which
   is why traced runs refuse a waterfall when [Span.dropped () > 0];
   the sized ring keeps every stamp of a noisy 200-op run. *)
let traced_ring_sized_from_ops () =
  let n_ops = 200 in
  let run () =
    Causal.set_enabled true;
    Fun.protect ~finally:(fun () -> Causal.set_enabled false) @@ fun () ->
    let noisy seed =
      { Channel.ideal with
        seed;
        noise_every = 5;
        noise_modes = Fault.channel_modes }
    in
    let config =
      { Session.default_config with
        down_plan = noisy 11;
        up_plan = noisy 12;
        attach_pumps = 128 }
    in
    let session, _, _, _ = session_over ~config n_ops in
    Alcotest.(check bool) "caught up under noise" true
      (Session.quiesce ~max_pumps:4096 session)
  in
  Fun.protect ~finally:(fun () -> Ltree_obs.Span.set_capacity 4096)
  @@ fun () ->
  Ltree_obs.Span.set_capacity 128;
  run ();
  Alcotest.(check bool) "an undersized ring counts its drops" true
    (Ltree_obs.Span.dropped () > 0);
  Alcotest.(check bool) "the oldest records' stamps are gone" false
    (List.exists
       (fun tr -> tr.Causal.trace_seq = 1)
       (Causal.records (Ltree_obs.Span.entries ())));
  Ltree_obs.Span.set_capacity_for ~ops:n_ops;
  run ();
  Alcotest.(check int) "the sized ring dropped nothing" 0
    (Ltree_obs.Span.dropped ());
  let records = Causal.records (Ltree_obs.Span.entries ()) in
  Alcotest.(check bool) "every scripted record traced" true
    (List.length records >= n_ops);
  List.iter
    (fun tr ->
      Alcotest.(check bool)
        (Printf.sprintf "seq %d kept its append stamp" tr.Causal.trace_seq)
        true
        (Option.is_some (Causal.stage_tick tr Causal.Append)))
    records

let suite =
  ( "replication",
    [ case "frame round trip" `Quick frame_roundtrip;
      case "frame rejects damage" `Quick frame_rejects_damage;
      QCheck_alcotest.to_alcotest frame_canonical_prop;
      case "snapshot escaping" `Quick snapshot_escaping;
      case "assembler reassembles chunks" `Quick assembler_reassembles;
      case "backoff monotone and capped" `Quick backoff_monotone_capped;
      case "backoff bounded attempts" `Quick backoff_bounded_attempts;
      case "backoff deadline typed" `Quick backoff_deadline_typed;
      case "channel deterministic per seed" `Quick channel_deterministic;
      case "short reads reassemble" `Quick channel_short_read_heals;
      case "sever drops backlog" `Quick channel_sever_drops;
      case "clean catch-up bit-identical" `Quick clean_catch_up;
      case "noisy catch-up bit-identical" `Quick noisy_catch_up;
      case "stale reads refused with lag" `Quick stale_read_refused;
      case "rogue write detected" `Quick divergence_rejected;
      case "chain mismatch detected" `Quick chain_mismatch_detected;
      case "failover promotes survivor" `Quick failover_promotes;
      case "replica reattaches after crash" `Quick replica_reattach_after_crash;
      case "matrix cell names round-trip" `Quick matrix_cell_names;
      case "replica matrix smoke" `Quick matrix_smoke;
      case "ingest scans each appended byte about once" `Quick
        ingest_scans_linear;
      case "tailed frames match recomputed values" `Quick
        cursor_matches_recomputation;
      case "causal waterfall end-to-end" `Quick causal_waterfall_e2e;
      case "traced session bundles its causal stamps" `Quick
        causal_stamps_in_bundle;
      case "both ends agree on each record's id" `Quick
        causal_ids_agree_across_ends;
      case "traced ring sized from the op count" `Quick
        traced_ring_sized_from_ops
    ] )
