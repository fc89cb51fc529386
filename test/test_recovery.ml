(* The durability layer: CRC-32 vectors, durable round trips, group
   commit semantics, snapshot rotation with fallback, journal-tail
   truncation, the crash matrix, and a fuzz pass over every serialized
   format (corrupt input must fail typed — never an uncaught exception,
   never a silently wrong document). *)

open Ltree_xml
open Ltree_doc
open Ltree_recovery
module Labeled_doc = Ltree_doc.Labeled_doc
module Prng = Ltree_workload.Prng
module Xml_gen = Ltree_workload.Xml_gen
module Invariant = Ltree_analysis.Invariant

let case = Alcotest.test_case

(* External damage (fuzzing), as opposed to crash damage: a fresh sim
   over [sim]'s files with [path]'s contents replaced by [f contents]. *)
let damaged sim ~path ~f =
  Fault.create_sim
    ~files:
      (List.map
         (fun (p, d) -> if String.equal p path then (p, f d) else (p, d))
         (Fault.dump sim))
    ()

let labels_of ldoc = List.map snd (Labeled_doc.labeled_events ldoc)

(* {1 Checksums} *)

let crc_vectors () =
  (* The standard check value, plus a few fixed points computed by any
     independent CRC-32 implementation. *)
  Alcotest.(check int) "check value" 0xCBF43926 (Checksum.crc32 "123456789");
  Alcotest.(check int) "empty" 0 (Checksum.crc32 "");
  Alcotest.(check int) "single byte" 0xE8B7BE43 (Checksum.crc32 "a");
  Alcotest.(check int) "abc" 0x352441C2 (Checksum.crc32 "abc")

(* Bit-at-a-time CRC-32, the definition itself: no table, no slicing. *)
let crc_reference s =
  let c = ref 0xFFFFFFFF in
  String.iter
    (fun ch ->
      c := !c lxor Char.code ch;
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done)
    s;
  !c lxor 0xFFFFFFFF

let crc_slicing () =
  (* Slicing-by-8 takes eight bytes per step and finishes byte by byte:
     every length 0-64 at every start offset 0-7 exercises each mix of
     whole words and tail, on both [crc32] and [update_sub]. *)
  let data = String.init 80 (fun i -> Char.chr ((i * 73 + 29) land 0xFF)) in
  for off = 0 to 7 do
    for len = 0 to 64 do
      let s = String.sub data off len in
      let name = Printf.sprintf "offset %d length %d" off len in
      Alcotest.(check int) name (crc_reference s) (Checksum.crc32 s);
      Alcotest.(check int) (name ^ " in place") (crc_reference s)
        (Checksum.update_sub 0 data ~pos:off ~len)
    done
  done;
  (* Chaining: continuing a CRC over [b] is the CRC of [a ^ b]. *)
  List.iter
    (fun (a, b) ->
      Alcotest.(check int) (Printf.sprintf "update %S %S" a b)
        (Checksum.crc32 (a ^ b))
        (Checksum.update_sub (Checksum.crc32 a) b ~pos:0
           ~len:(String.length b)))
    [ ("", ""); ("", "abc"); ("abc", ""); ("1234", "56789");
      ("x", String.sub data 0 64); (String.sub data 3 29, "tail") ];
  Alcotest.check_raises "range past the end"
    (Invalid_argument "Checksum.update_sub") (fun () ->
      ignore (Checksum.update_sub 0 "abc" ~pos:2 ~len:2))

let crc_hex () =
  let c = Checksum.crc32 "123456789" in
  Alcotest.(check string) "hex form" "cbf43926" (Checksum.to_hex c);
  Alcotest.(check (option int)) "hex round trip" (Some c)
    (Checksum.of_hex (Checksum.to_hex c));
  Alcotest.(check (option int)) "wrong width rejected" None
    (Checksum.of_hex "cbf4392");
  Alcotest.(check (option int)) "non-hex rejected" None
    (Checksum.of_hex "cbf4392x")

(* {1 Durable store} *)

let make_ldoc () =
  Labeled_doc.of_document
    (Parser.parse_string
       "<site><item><name>alpha</name></item><item><name>beta</name>\
        </item><note>n</note></site>")

(* A short edit script against [make_ldoc]'s shape; anchors are begin-tag
   labels, computed against a scratch replica so they are valid in any
   replica. *)
let script_against ldoc n =
  let ops = ref [] in
  let root = Option.get (Labeled_doc.document ldoc).Dom.root in
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

let durable_roundtrip () =
  let sim = Fault.create_sim () in
  let io = Fault.sim_io sim in
  let t = Durable_doc.initialize ~io ~dir:"store" (make_ldoc ()) in
  let oracle = make_ldoc () in
  let ops = script_against oracle 12 in
  List.iter (Durable_doc.apply t) ops;
  Durable_doc.sync t;
  (* Restart from the surviving files only. *)
  let rsim = Fault.create_sim ~files:(Fault.dump sim) () in
  match Durable_doc.recover ~io:(Fault.sim_io rsim) ~dir:"store" () with
  | Error faults ->
    Alcotest.failf "unrecoverable: %s"
      (String.concat "; "
         (List.map (fun f -> Format.asprintf "%a" Durable_doc.pp_fault f)
            faults))
  | Ok (report, t') ->
    Alcotest.(check int) "all ops durable" 12
      report.Durable_doc.durable_seq;
    Alcotest.(check int) "no faults" 0
      (List.length report.Durable_doc.faults);
    Alcotest.(check bool) "current snapshot used" true
      (match report.Durable_doc.source with
       | Durable_doc.Current -> true
       | Durable_doc.Previous -> false);
    Alcotest.(check int) "epoch bumped" 1 (Durable_doc.epoch t');
    Alcotest.(check (list int)) "labels bit-identical" (labels_of oracle)
      (labels_of (Durable_doc.ldoc t'));
    Labeled_doc.check (Durable_doc.ldoc t')

let group_commit_prefix () =
  let sim = Fault.create_sim () in
  let io = Fault.sim_io sim in
  let t =
    Durable_doc.initialize ~io ~group_commit:4 ~dir:"store" (make_ldoc ())
  in
  let oracle = make_ldoc () in
  let ops = script_against oracle 6 in
  List.iter (Durable_doc.apply t) ops;
  (* 6 ops at group commit 4: one flushed batch, two records still
     buffered in memory. *)
  Alcotest.(check int) "two pending" 2 (Durable_doc.pending t);
  (* Crash without sync: only the flushed batch survives. *)
  let rsim = Fault.create_sim ~files:(Fault.dump sim) () in
  match Durable_doc.recover ~io:(Fault.sim_io rsim) ~dir:"store" () with
  | Error _ -> Alcotest.fail "store must recover"
  | Ok (report, t') ->
    Alcotest.(check int) "durable prefix is the flushed batch" 4
      report.Durable_doc.durable_seq;
    let expected = make_ldoc () in
    List.iteri
      (fun i e -> if i < 4 then Journal.apply_entry expected e)
      ops;
    Alcotest.(check (list int)) "prefix labels" (labels_of expected)
      (labels_of (Durable_doc.ldoc t'))

let rotation_prev_fallback () =
  let sim = Fault.create_sim () in
  let io = Fault.sim_io sim in
  let t = Durable_doc.initialize ~io ~dir:"store" (make_ldoc ()) in
  let oracle = make_ldoc () in
  let ops = script_against oracle 10 in
  List.iteri
    (fun i e ->
      Durable_doc.apply t e;
      if i = 3 || i = 7 then Durable_doc.checkpoint t)
    ops;
  Durable_doc.sync t;
  (* Two checkpoints behind us: current snapshot at seq 8, previous at
     seq 4, journal holding 9-10.  External damage to the current
     snapshot: recovery must fall back to the previous generation and
     report it — typed, not fatal.  The journal was truncated at the
     second checkpoint, so its records cannot bridge from the older
     snapshot: ops 5-10 are lost and the sequence gap says so. *)
  let rsim =
    damaged sim ~path:"store/snapshot" ~f:(fun s ->
        String.map (fun c -> if Char.equal c '4' then '5' else c) s)
  in
  match Durable_doc.recover ~io:(Fault.sim_io rsim) ~dir:"store" () with
  | Error _ -> Alcotest.fail "previous generation must load"
  | Ok (report, t') ->
    Alcotest.(check bool) "previous snapshot used" true
      (match report.Durable_doc.source with
       | Durable_doc.Previous -> true
       | Durable_doc.Current -> false);
    let kinds =
      List.map Durable_doc.fault_kind report.Durable_doc.faults
    in
    Alcotest.(check bool) "current generation's damage reported" true
      (List.exists
         (fun k ->
           String.equal k "snapshot-corrupt" || String.equal k "bad-header")
         kinds);
    Alcotest.(check bool) "journal tail beyond the old horizon dropped"
      true
      (List.exists (String.equal "sequence-gap") kinds);
    Alcotest.(check int) "rolled back to the checkpoint" 4
      report.Durable_doc.durable_seq;
    let expected = make_ldoc () in
    List.iteri
      (fun i e -> if i < 4 then Journal.apply_entry expected e)
      ops;
    Alcotest.(check (list int)) "checkpoint labels" (labels_of expected)
      (labels_of (Durable_doc.ldoc t'))

let torn_tail_truncated () =
  let sim = Fault.create_sim () in
  let io = Fault.sim_io sim in
  let t = Durable_doc.initialize ~io ~dir:"store" (make_ldoc ()) in
  let oracle = make_ldoc () in
  let ops = script_against oracle 5 in
  List.iter (Durable_doc.apply t) ops;
  Durable_doc.sync t;
  (* Tear the last record mid-line, as a crash during append would. *)
  let rsim =
    damaged sim ~path:"store/journal" ~f:(fun s ->
        String.sub s 0 (String.length s - 7))
  in
  (match Durable_doc.recover ~io:(Fault.sim_io rsim) ~dir:"store" () with
   | Error _ -> Alcotest.fail "store must recover"
   | Ok (report, _) ->
     Alcotest.(check int) "intact prefix replayed" 4
       report.Durable_doc.durable_seq;
     Alcotest.(check (list string)) "torn record reported"
       [ "torn-record" ]
       (List.map Durable_doc.fault_kind report.Durable_doc.faults);
     (* Recovery truncated the condemned tail: a fresh scan is clean. *)
     let scan = Durable_doc.scan_journal (Fault.sim_io rsim) ~dir:"store" in
     Alcotest.(check bool) "journal clean after truncation" true
       (Option.is_none scan.Durable_doc.scan_fault);
     Alcotest.(check int) "four records kept" 4
       (List.length scan.Durable_doc.records))

let empty_journal_recovers_clean () =
  (* A crash during [initialize] can leave the journal file present but
     empty (the header write tore at offset zero).  That must recover to
     the snapshot with its own typed fault — zero records dropped, not a
     condemned tail masquerading as a bad header. *)
  let sim = Fault.create_sim () in
  let io = Fault.sim_io sim in
  let t = Durable_doc.initialize ~io ~dir:"store" (make_ldoc ()) in
  let snapshot_labels = labels_of (Durable_doc.ldoc t) in
  let rsim = damaged sim ~path:"store/journal" ~f:(fun _ -> "") in
  let rio = Fault.sim_io rsim in
  (match Durable_doc.recover ~io:rio ~dir:"store" () with
   | Error _ -> Alcotest.fail "snapshot alone must recover"
   | Ok (report, t') ->
     Alcotest.(check (list string)) "typed empty-journal fault"
       [ "empty-journal" ]
       (List.map Durable_doc.fault_kind report.Durable_doc.faults);
     Alcotest.(check int) "nothing dropped" 0
       report.Durable_doc.entries_dropped;
     Alcotest.(check int) "nothing replayed" 0
       report.Durable_doc.entries_replayed;
     Alcotest.(check int) "durable seq is the snapshot's" 0
       report.Durable_doc.durable_seq;
     Alcotest.(check (list int)) "snapshot labels intact" snapshot_labels
       (labels_of (Durable_doc.ldoc t'));
     (* Recovery re-homed the header: a fresh scan is clean. *)
     let scan = Durable_doc.scan_journal rio ~dir:"store" in
     Alcotest.(check bool) "journal clean after re-homing" true
       (Option.is_none scan.Durable_doc.scan_fault))

(* Flip one payload bit of journal line [line] (line 0 is the header). *)
let flip_payload_bit ~line s =
  String.concat "\n"
    (List.mapi
       (fun j l ->
         if j <> line then l
         else
           let b = Bytes.of_string l in
           let i = Bytes.length b - 2 in
           Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
           Bytes.to_string b)
       (String.split_on_char '\n' s))

let bitflip_detected () =
  let sim = Fault.create_sim () in
  let io = Fault.sim_io sim in
  let t = Durable_doc.initialize ~io ~dir:"store" (make_ldoc ()) in
  let oracle = make_ldoc () in
  let ops = script_against oracle 5 in
  List.iter (Durable_doc.apply t) ops;
  Durable_doc.sync t;
  (* Flip one content bit inside the third record's payload: the CRC
     must catch it and condemn the tail. *)
  let rsim = damaged sim ~path:"store/journal" ~f:(flip_payload_bit ~line:3) in
  match Durable_doc.recover ~io:(Fault.sim_io rsim) ~dir:"store" () with
  | Error _ -> Alcotest.fail "store must recover"
  | Ok (report, _) ->
    Alcotest.(check int) "prefix before the flip" 2
      report.Durable_doc.durable_seq;
    Alcotest.(check bool) "checksum mismatch reported" true
      (List.exists
         (fun f ->
           String.equal (Durable_doc.fault_kind f) "checksum-mismatch")
         report.Durable_doc.faults);
    Alcotest.(check int) "condemned tail counted" 3
      report.Durable_doc.entries_dropped

(* A scan resumed at any record boundary of the valid prefix must be the
   suffix of the full scan, whatever the tail holds: the resumed scan
   runs the same record loop, with every check, from the cursor. *)
let resumed_scan_is_suffix () =
  let build damage =
    let sim = Fault.create_sim () in
    let t = Durable_doc.initialize ~io:(Fault.sim_io sim) ~dir:"store"
        (make_ldoc ()) in
    List.iter (Durable_doc.apply t) (script_against (make_ldoc ()) 8);
    Durable_doc.sync t;
    Fault.sim_io (damaged sim ~path:"store/journal" ~f:damage)
  in
  let tails =
    [ ("clean", Fun.id);
      ("torn", fun s -> String.sub s 0 (String.length s - 5));
      ("flipped", flip_payload_bit ~line:6) ]
  in
  let seqs scan = List.map fst scan.Durable_doc.records in
  let lines scan =
    List.map (fun (_, e) -> Journal.entry_to_line e) scan.Durable_doc.records
  in
  List.iter
    (fun (name, damage) ->
      let io = build damage in
      let data = Option.get (io.Fault.read_file "store/journal") in
      let full = Durable_doc.scan_journal io ~dir:"store" in
      Alcotest.(check bool) (name ^ ": damage stops the full scan")
        (not (String.equal name "clean"))
        (Option.is_some full.Durable_doc.scan_fault);
      Alcotest.(check int) (name ^ ": full scan reads the file")
        (String.length data) full.Durable_doc.scanned_bytes;
      (* Boundaries: the end of the header, then the end of each valid
         record, each with the sequence number the next must carry. *)
      let boundaries = ref [] in
      let pos = ref 0 in
      let k = ref 0 in
      while !pos < full.Durable_doc.valid_bytes do
        let nl = String.index_from data !pos '\n' in
        let expected =
          if !k = 0 then 0 else fst (List.nth full.Durable_doc.records (!k - 1)) + 1
        in
        boundaries := (!k, nl + 1, expected) :: !boundaries;
        pos := nl + 1;
        incr k
      done;
      Alcotest.(check int) (name ^ ": one boundary per record plus header")
        (List.length full.Durable_doc.records + 1)
        (List.length !boundaries);
      List.iter
        (fun (k, offset, expected) ->
          let what = Printf.sprintf "%s @ record %d" name k in
          let resumed =
            Durable_doc.scan_journal ~from:(offset, expected) io ~dir:"store"
          in
          let suffix l = List.filteri (fun i _ -> i >= k) l in
          Alcotest.(check (list int)) (what ^ ": seqs") (suffix (seqs full))
            (seqs resumed);
          Alcotest.(check (list string)) (what ^ ": entries")
            (suffix (lines full)) (lines resumed);
          Alcotest.(check bool) (what ^ ": same fault") true
            (full.Durable_doc.scan_fault = resumed.Durable_doc.scan_fault);
          Alcotest.(check int) (what ^ ": dropped") full.Durable_doc.dropped
            resumed.Durable_doc.dropped;
          Alcotest.(check int) (what ^ ": valid bytes")
            full.Durable_doc.valid_bytes resumed.Durable_doc.valid_bytes;
          Alcotest.(check int) (what ^ ": next seq") full.Durable_doc.next_seq
            resumed.Durable_doc.next_seq;
          Alcotest.(check int) (what ^ ": reads only past the cursor")
            (String.length data - offset) resumed.Durable_doc.scanned_bytes)
        !boundaries;
      (* A cursor the file no longer reaches, or one inside the header,
         restarts from the header. *)
      List.iter
        (fun offset ->
          let restarted =
            Durable_doc.scan_journal ~from:(offset, 99) io ~dir:"store"
          in
          Alcotest.(check (list int))
            (Printf.sprintf "%s: cursor %d restarts" name offset)
            (seqs full) (seqs restarted))
        [ String.length data + 1; 3 ])
    tails

let replay_error_typed () =
  let ldoc = make_ldoc () in
  (* No node carries label 999999: the entry is well-formed but its
     anchor is unresolvable — a typed error, not a bare Failure. *)
  Alcotest.check_raises "unresolvable anchor"
    (Journal.Replay_error { what = "delete"; anchor = 999999 })
    (fun () -> Journal.apply_entry ldoc (Journal.Delete { anchor = 999999 }))

let quick_crash_matrix () =
  let config =
    { Matrix.seed = 7; ops = 25; doc_nodes = 40; group_commit = 3;
      checkpoint_every = 8 }
  in
  let s = Crash_matrix.run config in
  Alcotest.(check bool) "matrix exhaustive and green" true
    (Matrix.ok s.Crash_matrix.sweep);
  Alcotest.(check int) "every cell verified" 0
    s.Crash_matrix.sweep.Matrix.failed_cells;
  Alcotest.(check bool) "matrix is not trivial" true
    (s.Crash_matrix.total_points > 20)

(* {1 Fuzzing}

   Seeded random mutations of every serialized format.  The property is
   always the same: corrupt input fails {e typed} ([Corrupt], or a typed
   recovery report) — never an uncaught exception, and never a document
   that fails validation. *)

let mutate prng s =
  let len = String.length s in
  if len = 0 then "x"
  else
    match Prng.int prng 5 with
    | 0 ->
      (* Flip one bit. *)
      let i = Prng.int prng len in
      let b = Bytes.of_string s in
      Bytes.set b i
        (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl Prng.int prng 8)));
      Bytes.to_string b
    | 1 -> String.sub s 0 (Prng.int prng len) (* truncate *)
    | 2 ->
      (* Delete a slice. *)
      let i = Prng.int prng len in
      let n = 1 + Prng.int prng (len - i) in
      String.sub s 0 i ^ String.sub s (i + n) (len - i - n)
    | 3 ->
      (* Insert noise. *)
      let i = Prng.int prng (len + 1) in
      let junk =
        String.init
          (1 + Prng.int prng 8)
          (fun _ -> Char.chr (Prng.int prng 256))
      in
      String.sub s 0 i ^ junk ^ String.sub s i (len - i)
    | _ ->
      (* Duplicate a slice in place. *)
      let i = Prng.int prng len in
      let n = 1 + Prng.int prng (min 16 (len - i)) in
      String.sub s 0 (i + n) ^ String.sub s i n
      ^ String.sub s (i + n) (len - i - n)

let fuzz_journal_codec () =
  let lines =
    Array.map Journal.entry_to_line
      [|
        Journal.Insert
          { anchor = 0; index = 0; xml = "<x a=\"1\">t&amp;x<y/></x>" };
        Journal.Delete { anchor = 5 };
        Journal.Set_text { anchor = 2; text = "new text" };
      |]
  in
  let prng = Prng.create 101 in
  for i = 1 to 300 do
    let s = mutate prng lines.(i mod Array.length lines) in
    match Journal.entry_of_line s with
    | (_ : Journal.entry) -> () (* mutation landed somewhere harmless *)
    | exception Journal.Corrupt _ -> ()
    | exception e ->
      Alcotest.failf "mutation %d: journal codec leaked %s" i
        (Printexc.to_string e)
  done

let fuzz_snapshot_codec () =
  let pristine = Snapshot.save (make_ldoc ()) in
  let prng = Prng.create 202 in
  for i = 1 to 300 do
    let s = mutate prng pristine in
    match Snapshot.load s with
    | recovered ->
      (* Accepted input must yield a document that validates. *)
      (try Labeled_doc.check recovered
       with e ->
         Alcotest.failf "mutation %d: accepted snapshot fails check: %s" i
           (Printexc.to_string e))
    | exception Snapshot.Corrupt _ -> ()
    | exception e ->
      Alcotest.failf "mutation %d: snapshot codec leaked %s" i
        (Printexc.to_string e)
  done

let fuzz_durable_store () =
  (* Pristine on-disk state: a store with a rotation behind it and a
     journal tail. *)
  let sim = Fault.create_sim () in
  let t =
    Durable_doc.initialize ~io:(Fault.sim_io sim) ~group_commit:2
      ~dir:"store" (make_ldoc ())
  in
  let oracle = make_ldoc () in
  List.iteri
    (fun i e ->
      Durable_doc.apply t e;
      if i = 9 then Durable_doc.checkpoint t)
    (script_against oracle 20);
  Durable_doc.sync t;
  let pristine = Fault.dump sim in
  let paths = Array.of_list (List.map fst pristine) in
  let prng = Prng.create 303 in
  for i = 1 to 200 do
    let fsim = ref (Fault.create_sim ~files:pristine ()) in
    (* Damage one or two files. *)
    for _ = 0 to Prng.int prng 2 do
      fsim :=
        damaged !fsim ~path:(Prng.pick prng paths)
          ~f:(fun s -> mutate prng s)
    done;
    let fsim = !fsim in
    match
      Durable_doc.recover ~io:(Fault.sim_io fsim) ~dir:"store" ()
    with
    | Error (_ :: _) -> () (* both generations destroyed: typed, fine *)
    | Error [] -> Alcotest.failf "mutation %d: empty fault list" i
    | Ok (_, t') ->
      (try Labeled_doc.check (Durable_doc.ldoc t')
       with e ->
         Alcotest.failf "mutation %d: recovered document fails check: %s" i
           (Printexc.to_string e));
      (* Whatever recovery kept must scan clean now. *)
      let scan =
        Durable_doc.scan_journal (Fault.sim_io fsim) ~dir:"store"
      in
      (match scan.Durable_doc.scan_fault with
       | None -> ()
       | Some f ->
         Alcotest.failf "mutation %d: journal not clean after recovery: %s"
           i
           (Format.asprintf "%a" Durable_doc.pp_fault f))
    | exception e ->
      Alcotest.failf "mutation %d: recovery leaked %s" i
        (Printexc.to_string e)
  done

(* Every truncation and every single-bit flip of a durable [snapshot]
   file, with no [snapshot.prev] to fall back on, is a typed snapshot
   fault: the CRC covers the header fields and the payload, and the
   magic is checked apart. *)
let durable_snapshot_sweep () =
  let sim = Fault.create_sim () in
  let ldoc = make_ldoc () in
  ignore (script_against ldoc 12);
  let root = Option.get (Labeled_doc.document ldoc).Dom.root in
  Labeled_doc.delete_subtree ldoc (List.hd (Dom.children root));
  ignore (Durable_doc.initialize ~io:(Fault.sim_io sim) ~dir:"store" ldoc);
  let pristine =
    Option.get ((Fault.sim_io sim).Fault.read_file "store/snapshot")
  in
  let typed name data =
    let fsim = damaged sim ~path:"store/snapshot" ~f:(fun _ -> data) in
    match Durable_doc.recover ~io:(Fault.sim_io fsim) ~dir:"store" () with
    | Error
        ((Durable_doc.Bad_header _ | Durable_doc.Snapshot_corrupt _)
        :: [ Durable_doc.Missing_file _ ]) -> ()
    | Error faults ->
      Alcotest.failf "%s: unexpected faults %s" name
        (String.concat "; "
           (List.map (Format.asprintf "%a" Durable_doc.pp_fault) faults))
    | Ok _ -> Alcotest.failf "%s: damaged snapshot accepted" name
    | exception e ->
      Alcotest.failf "%s: recovery leaked %s" name (Printexc.to_string e)
  in
  for len = 0 to String.length pristine - 1 do
    typed (Printf.sprintf "truncated to %d" len) (String.sub pristine 0 len)
  done;
  for byte = 0 to String.length pristine - 1 do
    for bit = 0 to 7 do
      let b = Bytes.of_string pristine in
      Bytes.set b byte
        (Char.chr (Char.code (Bytes.get b byte) lxor (1 lsl bit)));
      typed (Printf.sprintf "bit %d of byte %d" bit byte) (Bytes.to_string b)
    done
  done;
  (* The undamaged file still recovers. *)
  match Durable_doc.recover ~io:(Fault.sim_io sim) ~dir:"store" () with
  | Ok (_, t) ->
    Alcotest.(check (list int)) "pristine file recovers" (labels_of ldoc)
      (labels_of (Durable_doc.ldoc t))
  | Error _ -> Alcotest.fail "pristine snapshot rejected"

(* {1 The simulated disk against a reference model}

   [Ref_disk] is the simulated disk as it was when a file was one
   string and an append stored [prior ^ data]: the simplest statement
   of the semantics.  The chunked [Fault] sim must be indistinguishable
   from it — same files, same write points, same [Crash] — at every
   crash point of a script, in every damage mode. *)

module Ref_disk = struct
  type t = {
    files : (string, string) Hashtbl.t;
    plan : Fault.plan option;
    mutable point : int;
  }

  let create plan = { files = Hashtbl.create 8; plan; point = 0 }

  let arm t =
    t.point <- t.point + 1;
    match t.plan with
    | Some p when p.Fault.crash_point = t.point -> Some p
    | Some _ | None -> None

  let flip_bit prng data =
    let i = Prng.int prng (String.length data) in
    let bit = Prng.int prng 8 in
    let b = Bytes.of_string data in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
    Bytes.to_string b

  let injected_payload (p : Fault.plan) ~point data =
    let len = String.length data in
    if len = 0 then None
    else
      let prng = Prng.create (p.Fault.seed lxor (point * 0x9E3779B9)) in
      match p.Fault.mode with
      | Fault.Torn -> Some (String.sub data 0 (Prng.int prng len))
      | Fault.Flip -> Some (flip_bit prng data)
      | Fault.Clean | Fault.Short_read | Fault.Delay -> None

  let crash t what = raise (Fault.Crash { point = t.point; what })

  let write t path data =
    match arm t with
    | None -> Hashtbl.replace t.files path data
    | Some p ->
      (match injected_payload p ~point:t.point data with
       | None -> ()
       | Some partial -> Hashtbl.replace t.files path partial);
      crash t ("write " ^ path)

  let append t path data =
    let prior = Option.value ~default:"" (Hashtbl.find_opt t.files path) in
    match arm t with
    | None -> Hashtbl.replace t.files path (prior ^ data)
    | Some p ->
      (match injected_payload p ~point:t.point data with
       | None -> ()
       | Some partial -> Hashtbl.replace t.files path (prior ^ partial));
      crash t ("append " ^ path)

  let rename t ~src ~dst =
    match arm t with
    | Some _ -> crash t (Printf.sprintf "rename %s -> %s" src dst)
    | None -> (
      match Hashtbl.find_opt t.files src with
      | None -> invalid_arg ("Fault.rename: no such file " ^ src)
      | Some data ->
        Hashtbl.remove t.files src;
        Hashtbl.replace t.files dst data)

  let fsync t path =
    match arm t with Some _ -> crash t ("fsync " ^ path) | None -> ()

  let remove t path =
    match arm t with
    | Some _ -> crash t ("remove " ^ path)
    | None -> Hashtbl.remove t.files path

  let dump t =
    Hashtbl.fold (fun path data acc -> (path, data) :: acc) t.files []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
end

type disk_op =
  | Write of string * string
  | Append of string * string
  | Read of string
  | Exists of string
  | Rename of string * string
  | Fsync of string
  | Remove of string

(* A fixed prologue pins the three cases the chunked representation
   could get wrong — reads between appends (the flatten cache), an
   append creating a missing file, and a torn append of length 0 (a
   1-byte append torn anywhere keeps 0 bytes, creating an empty file)
   — then a seeded tail mixes every primitive over a few paths. *)
let disk_script seed =
  let prologue =
    [ Append ("j", "head-");
      Read "j";
      Append ("j", "one-");
      Append ("j", "two-");
      Read "j";
      Read "j";
      Append ("j", "");
      Read "j";
      Append ("fresh", "z");
      Read "fresh" ]
  in
  let prng = Prng.create seed in
  let paths = [| "j"; "k"; "snap"; "fresh" |] in
  let payload () =
    String.init (Prng.int prng 12) (fun _ ->
        Char.chr (Char.code 'a' + Prng.int prng 26))
  in
  let tail =
    List.init 70 (fun _ ->
        let path = Prng.pick prng paths in
        match Prng.int prng 9 with
        | 0 -> Write (path, payload ())
        | 1 | 2 | 3 -> Append (path, payload ())
        | 4 | 5 -> Read path
        | 6 -> Exists path
        | 7 -> Rename (path, Prng.pick prng paths)
        | _ -> if Prng.bool prng then Fsync path else Remove path)
  in
  prologue @ tail

(* Runs a script to its end or its crash, logging every observation a
   caller can make; a primitive rejecting its arguments is logged too,
   and the script goes on. *)
let run_disk_script ~io ops =
  let log = ref [] in
  let note s = log := s :: !log in
  let crashed =
    try
      List.iter
        (fun op ->
          try
            match op with
            | Write (p, d) -> io.Fault.write_file p d
            | Append (p, d) -> io.Fault.append_file p d
            | Read p ->
              note
                (match io.Fault.read_file p with
                 | None -> "read " ^ p ^ ": none"
                 | Some d -> Printf.sprintf "read %s: %S" p d)
            | Exists p ->
              note (Printf.sprintf "exists %s: %b" p (io.Fault.file_exists p))
            | Rename (src, dst) -> io.Fault.rename_file ~src ~dst
            | Fsync p -> io.Fault.fsync p
            | Remove p -> io.Fault.remove_file p
          with Invalid_argument m -> note ("rejected: " ^ m))
        ops;
      None
    with Fault.Crash { point; what } -> Some (point, what)
  in
  (List.rev !log, crashed)

let sim_disk_matches_reference () =
  let ops = disk_script 23 in
  let run plan =
    let sim = Fault.create_sim ?plan () in
    let got =
      run_disk_script ~io:(Fault.sim_io sim) ops
    in
    let r = Ref_disk.create plan in
    let ref_io =
      { Fault.read_file = Hashtbl.find_opt r.Ref_disk.files;
        write_file = Ref_disk.write r;
        append_file = Ref_disk.append r;
        rename_file = Ref_disk.rename r;
        fsync = Ref_disk.fsync r;
        remove_file = Ref_disk.remove r;
        file_exists = Hashtbl.mem r.Ref_disk.files }
    in
    let want =
      run_disk_script ~io:ref_io ops
    in
    let cell =
      match plan with
      | None -> "uninjected"
      | Some p ->
        Printf.sprintf "P%d/%s" p.Fault.crash_point (Fault.mode_name p.mode)
    in
    Alcotest.(check (list string)) (cell ^ ": observations") (fst want)
      (fst got);
    Alcotest.(check (option (pair int string))) (cell ^ ": crash")
      (snd want) (snd got);
    let dump = Fault.dump sim and points = Fault.points sim in
    Alcotest.(check int) (cell ^ ": points") r.Ref_disk.point points;
    Alcotest.(check (list (pair string string))) (cell ^ ": dump")
      (Ref_disk.dump r) dump;
    (snd got, dump, points)
  in
  let _, _, width = run None in
  Alcotest.(check bool) "script reaches many write points" true (width > 40);
  let torn_fresh = ref None in
  List.iter
    (fun mode ->
      for crash_point = 1 to width + 1 do
        match run (Some { Fault.crash_point; mode; seed = 99 }) with
        | Some (_, "append fresh"), dump, _
          when mode = Fault.Torn && Option.is_none !torn_fresh ->
          torn_fresh := Some (List.assoc_opt "fresh" dump)
        | _ -> ()
      done)
    Fault.all_modes;
  (* The first append to "fresh" creates it; torn, its 1-byte payload
     keeps 0 bytes, which must still leave an empty file. *)
  Alcotest.(check (option (option string)))
    "torn 1-byte append creates an empty file" (Some (Some "")) !torn_fresh

let suite =
  ( "recovery",
    [ case "crc32 vectors" `Quick crc_vectors;
      case "crc32 slicing-by-8 = bitwise reference" `Quick crc_slicing;
      case "crc32 hex forms" `Quick crc_hex;
      case "sim disk matches the reference model" `Quick
        sim_disk_matches_reference;
      case "durable round trip" `Quick durable_roundtrip;
      case "group commit durable prefix" `Quick group_commit_prefix;
      case "rotation falls back to previous snapshot" `Quick
        rotation_prev_fallback;
      case "torn journal tail truncated" `Quick torn_tail_truncated;
      case "empty journal recovers to the snapshot" `Quick
        empty_journal_recovers_clean;
      case "bit flip caught by record checksum" `Quick bitflip_detected;
      case "resumed scan is a suffix of the full scan" `Quick
        resumed_scan_is_suffix;
      case "unresolvable anchor is typed" `Quick replay_error_typed;
      case "quick crash matrix" `Quick quick_crash_matrix;
      case "fuzz: journal codec (300 mutations)" `Quick fuzz_journal_codec;
      case "fuzz: snapshot codec (300 mutations)" `Quick
        fuzz_snapshot_codec;
      case "fuzz: durable store files (200 mutations)" `Quick
        fuzz_durable_store;
      case "every damaged snapshot file is a typed fault" `Quick
        durable_snapshot_sweep ] )
