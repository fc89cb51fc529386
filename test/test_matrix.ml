(* Characterization of the three crash matrices at small configs.  Each
   instance pins the CRC of its ordered cell-name list, the count of
   every outcome constructor and its profile figures; a pool of two
   domains must return exactly the serial run's cells (names, outcomes
   and failures, in the same order). *)

module Matrix = Ltree_recovery.Matrix
module Crash_matrix = Ltree_recovery.Crash_matrix
module Repl_matrix = Ltree_replication.Repl_matrix
module Shard_matrix = Ltree_shard.Shard_matrix
module Checksum = Ltree_recovery.Checksum
module Fault = Ltree_recovery.Fault
module Pool = Ltree_exec.Pool

let case = Alcotest.test_case

let names_crc names = Checksum.crc32 (String.concat "\n" names)

(* [(constructor, count)] sorted by constructor name. *)
let tally tags =
  List.sort_uniq String.compare tags
  |> List.map (fun t ->
         (t, List.length (List.filter (String.equal t) tags)))

let counts = Alcotest.(list (pair string int))

let with_pool2 f = Pool.with_pool ~size:2 (fun pool -> f pool)

(* {1 Store matrix} *)

let crash_config =
  { Matrix.seed = 7; ops = 25; doc_nodes = 40; group_commit = 3;
    checkpoint_every = 8 }

let crash_tag = function
  | Crash_matrix.Recovered _ -> "Recovered"
  | Crash_matrix.Unrecoverable _ -> "Unrecoverable"

let crash_characterized () =
  let s = Crash_matrix.run crash_config in
  let cells = s.Crash_matrix.sweep.Matrix.cells in
  Alcotest.(check int) "cell-name CRC" 2719741767
    (names_crc (List.map (fun c -> Crash_matrix.cell_name c.Matrix.id) cells));
  Alcotest.check counts "outcomes"
    [ ("Recovered", 120); ("Unrecoverable", 9) ]
    (tally (List.map (fun c -> crash_tag c.Matrix.outcome) cells));
  Alcotest.(check int) "total_points" 43 s.Crash_matrix.total_points;
  Alcotest.(check int) "init_points" 5 s.Crash_matrix.init_points;
  Alcotest.check counts "fault_counts"
    [ ("bad-header", 8); ("checksum-mismatch", 10); ("missing-file", 28);
      ("torn-record", 10) ]
    s.Crash_matrix.fault_counts;
  let p = with_pool2 (fun pool -> Crash_matrix.run ~pool crash_config) in
  Alcotest.(check bool) "pool of 2 = serial" true
    (Stdlib.( = ) cells p.Crash_matrix.sweep.Matrix.cells)

(* {1 Replica matrix} *)

let repl_config =
  { Matrix.seed = 7; ops = 12; doc_nodes = 30; group_commit = 2;
    checkpoint_every = 6 }

let repl_tag = function
  | Repl_matrix.Promoted _ -> "Promoted"
  | Repl_matrix.Reattached _ -> "Reattached"
  | Repl_matrix.Resynced -> "Resynced"
  | Repl_matrix.No_pair -> "No_pair"
  | Repl_matrix.Lost _ -> "Lost"
  | Repl_matrix.Diverged_detected -> "Diverged_detected"
  | Repl_matrix.Incomplete _ -> "Incomplete"

let repl_characterized () =
  let s = Repl_matrix.run repl_config in
  let cells = s.Repl_matrix.sweep.Matrix.cells in
  Alcotest.(check int) "cell-name CRC" 351288937
    (names_crc (List.map (fun c -> Repl_matrix.cell_name c.Matrix.id) cells));
  Alcotest.check counts "outcomes"
    [ ("Diverged_detected", 1); ("Lost", 3); ("No_pair", 15);
      ("Promoted", 72); ("Reattached", 78); ("Resynced", 54) ]
    (tally (List.map (fun c -> repl_tag c.Matrix.outcome) cells));
  Alcotest.(check (list int)) "primary/replica/channel points"
    [ 29; 5; 27; 3; 18 ]
    [ s.Repl_matrix.primary_points; s.Repl_matrix.primary_init_points;
      s.Repl_matrix.replica_points; s.Repl_matrix.replica_init_points;
      s.Repl_matrix.channel_sends ];
  let p = with_pool2 (fun pool -> Repl_matrix.run ~pool repl_config) in
  Alcotest.(check bool) "pool of 2 = serial" true
    (Stdlib.( = ) cells p.Repl_matrix.sweep.Matrix.cells)

(* {1 Shard matrix} *)

let shard_config =
  { Shard_matrix.matrix =
      { Matrix.seed = 42; ops = 12; doc_nodes = 40; group_commit = 4;
        checkpoint_every = 6 };
    shards = 2 }

let shard_tag = function
  | Shard_matrix.Recovered _ -> "Recovered"
  | Shard_matrix.Unrecoverable _ -> "Unrecoverable"

let shard_characterized () =
  let s = Shard_matrix.run shard_config in
  let cells = s.Shard_matrix.sweep.Matrix.cells in
  Alcotest.(check int) "cell-name CRC" 46985329
    (names_crc (List.map (fun c -> Shard_matrix.cell_name c.Matrix.id) cells));
  Alcotest.check counts "outcomes"
    [ ("Recovered", 114); ("Unrecoverable", 18) ]
    (tally (List.map (fun c -> shard_tag c.Matrix.outcome) cells));
  Alcotest.(check (array int)) "total_points per shard" [| 19; 25 |]
    s.Shard_matrix.total_points;
  Alcotest.(check (array int)) "init_points per shard" [| 5; 5 |]
    s.Shard_matrix.init_points;
  let p = with_pool2 (fun pool -> Shard_matrix.run ~pool shard_config) in
  Alcotest.(check bool) "pool of 2 = serial" true
    (Stdlib.( = ) cells p.Shard_matrix.sweep.Matrix.cells)

(* {1 Coordinates}

   [parse_cell] is the exact inverse of [cell_name] in every instance:
   each canonical name round-trips, and every other spelling of the same
   coordinate (base prefixes, underscores, signs, leading zeros) is
   rejected rather than run as an alias. *)

let roundtrip name parse ~canonical ~rejected =
  List.iter
    (fun s ->
      match parse s with
      | Some id -> Alcotest.(check string) "name round-trips" s (name id)
      | None -> Alcotest.failf "failed to parse %S" s)
    canonical;
  List.iter
    (fun s ->
      if Option.is_some (parse s) then Alcotest.failf "accepted alias %S" s)
    rejected

let coordinates_roundtrip () =
  roundtrip Crash_matrix.cell_name Crash_matrix.parse_cell
    ~canonical:[ "P1/clean"; "P3/torn"; "P37/flip"; "P1000/torn" ]
    ~rejected:
      [ "P0x3/torn"; "P0_3/torn"; "P+3/torn"; "P03/torn"; "P-3/torn";
        "P0/torn"; "P/torn"; "P3"; "P3/bogus"; "p3/torn"; " P3/torn";
        "P3/torn "; "S0/P3/torn"; "" ];
  roundtrip Shard_matrix.cell_name Shard_matrix.parse_cell
    ~canonical:[ "S0/P1/clean"; "S1/P37/torn"; "S12/P3/flip" ]
    ~rejected:
      [ "S0x1/P0b11/flip"; "S0x1/P3/flip"; "S1/P0b11/flip"; "S01/P3/torn";
        "S+1/P3/torn"; "S1/P03/torn"; "S/P3/torn"; "S1/P0/torn";
        "S1/torn"; "P3/torn"; "" ];
  roundtrip Repl_matrix.cell_name Repl_matrix.parse_cell
    ~canonical:
      [ "primary:P12/torn"; "replica:P5/clean"; "channel:C9/flip";
        "probe:divergence" ]
    ~rejected:
      [ "replica:P0o3/clean"; "primary:P0x3/torn"; "channel:C0_9/flip";
        "replica:P+5/clean"; "replica:P05/clean"; "primary:C12/torn";
        "channel:P9/flip"; "probe:divergence2"; "P12/torn"; "" ]

(* {1 Config validation and --only membership} *)

let raises_invalid what f =
  match f () with
  | (_ : int) -> Alcotest.failf "%s: accepted" what
  | exception Invalid_argument _ -> ()

let cells_of sweep = List.length sweep.Matrix.cells

let config_validated () =
  raises_invalid "store checkpoint_every 0" (fun () ->
      cells_of
        (Crash_matrix.run { crash_config with Matrix.checkpoint_every = 0 })
          .Crash_matrix.sweep);
  raises_invalid "store group_commit 0" (fun () ->
      cells_of
        (Crash_matrix.run { crash_config with Matrix.group_commit = 0 })
          .Crash_matrix.sweep);
  raises_invalid "replica ops 0" (fun () ->
      cells_of
        (Repl_matrix.run { repl_config with Matrix.ops = 0 }).Repl_matrix.sweep);
  raises_invalid "shard checkpoint_every 0" (fun () ->
      cells_of
        (Shard_matrix.run
           { shard_config with
             Shard_matrix.matrix =
               { shard_config.Shard_matrix.matrix with
                 Matrix.checkpoint_every = 0 } })
          .Shard_matrix.sweep);
  raises_invalid "shard shards 0" (fun () ->
      cells_of
        (Shard_matrix.run { shard_config with Shard_matrix.shards = 0 })
          .Shard_matrix.sweep)

let only_must_be_a_cell () =
  raises_invalid "store P9999/torn" (fun () ->
      cells_of
        (Crash_matrix.run ~only:(9999, Fault.Torn) crash_config)
          .Crash_matrix.sweep);
  raises_invalid "shard S9/P1/torn" (fun () ->
      cells_of
        (Shard_matrix.run ~only:(9, 1, Fault.Torn) shard_config)
          .Shard_matrix.sweep);
  raises_invalid "replica channel:C999/flip" (fun () ->
      cells_of
        (Repl_matrix.run
           ~only:(Repl_matrix.Channel_cell (999, Fault.Flip))
           repl_config)
          .Repl_matrix.sweep);
  let s = Crash_matrix.run ~only:(43, Fault.Flip) crash_config in
  Alcotest.(check (list string)) "the last cell is a member" [ "P43/flip" ]
    (List.map
       (fun c -> Crash_matrix.cell_name c.Matrix.id)
       s.Crash_matrix.sweep.Matrix.cells)

let suite =
  ( "matrix",
    [ case "store matrix characterized; pool = serial" `Quick
        crash_characterized;
      case "replica matrix characterized; pool = serial" `Quick
        repl_characterized;
      case "shard matrix characterized; pool = serial" `Quick
        shard_characterized;
      case "parse_cell is the exact inverse of cell_name" `Quick
        coordinates_roundtrip;
      case "every count in the config must be >= 1" `Quick config_validated;
      case "--only must name a cell of the matrix" `Quick
        only_must_be_a_cell ] )
