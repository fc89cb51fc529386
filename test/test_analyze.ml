(* Coverage for the typed interprocedural analyzer (tools/analyze).
   Fixture sources under test/analyze_fixtures/ are self-contained
   (Stdlib only, with a mini [Pool] standing in for Ltree_exec.Pool)
   and are typechecked in-process — no dune-built .cmt needed. *)

let case = Alcotest.test_case

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let fixture =
  let memo : (string, Analyze_rules.unit_info) Hashtbl.t =
    Hashtbl.create 8
  in
  fun name unit_name ->
    match Hashtbl.find_opt memo name with
    | Some u -> u
    | None ->
      let path = Filename.concat "analyze_fixtures" name in
      let u =
        Analyze_rules.typecheck_impl ~unit_name ~path (read_file path)
      in
      Hashtbl.replace memo name u;
      u

let base = { Analyze_rules.default_config with race_allow = [] }

let fingerprints cfg units =
  List.map
    (fun f -> f.Analyze_rules.fingerprint)
    (Analyze_rules.analyze cfg units)

let contains ~sub s =
  let n = String.length s and p = String.length sub in
  let rec at i = i + p <= n && (String.equal (String.sub s i p) sub || at (i + 1)) in
  at 0

(* {1 R8} *)

let r8_seeded () =
  Alcotest.(check (list string))
    "every seeded R8 violation fires, and nothing else"
    [
      "R8|Fix_race.record|global-write|Fix_race.table";
      "R8|Fix_race.run_global_array|global-write|Fix_race.totals";
      "R8|Fix_race.run_captured_ref|captured-write|acc";
      "R8|Fix_race.run_captured_pass.cell|captured-write|shared";
    ]
    (fingerprints base [ fixture "fix_race.ml" "Fix_race" ])

let r8_interprocedural () =
  (* the acceptance case: an unsynchronized Hashtbl write two project
     calls away from the Pool closure is still attributed *)
  let fps = fingerprints base [ fixture "fix_race.ml" "Fix_race" ] in
  Alcotest.(check bool)
    "closure -> deep -> record reaches the Hashtbl write" true
    (List.mem "R8|Fix_race.record|global-write|Fix_race.table" fps)

let r8_clean () =
  (* Atomic / DLS / closure-local / read-only accesses must not fire;
     the deliberate Mutex-guarded write is suppressed by race_allow
     (also proving the allowlist counts as used). *)
  let cfg =
    {
      base with
      Analyze_rules.race_allow =
        [
          ( "Fix_race_clean.run_locked",
            "fixture: writes run under mu; mirrors the audit pattern of \
             DESIGN.md section 7" );
        ];
    }
  in
  Alcotest.(check (list string))
    "clean fixture is silent (incl. Atomic-mediated access)" []
    (fingerprints cfg [ fixture "fix_race_clean.ml" "Fix_race_clean" ])

let allowlist_stale () =
  let cfg =
    {
      base with
      Analyze_rules.race_allow =
        [ ("Fix_race.gone", "entry for deleted code; DESIGN.md section 7") ];
    }
  in
  let fps = fingerprints cfg [ fixture "fix_race.ml" "Fix_race" ] in
  Alcotest.(check bool)
    "stale race_allow entry raises A1" true
    (List.mem "A1|Fix_race.gone" fps);
  Alcotest.(check bool)
    "seeded findings still reported" true
    (List.mem "R8|Fix_race.record|global-write|Fix_race.table" fps)

let allowlist_note () =
  let cfg =
    {
      base with
      Analyze_rules.race_allow =
        [ ("Fix_race.record", "audited, but missing the crossref") ];
    }
  in
  let fps = fingerprints cfg [ fixture "fix_race.ml" "Fix_race" ] in
  Alcotest.(check bool)
    "entry without DESIGN.md crossref raises A2" true
    (List.mem "A2|Fix_race.record" fps);
  Alcotest.(check bool)
    "the allowlisted finding itself is suppressed" false
    (List.mem "R8|Fix_race.record|global-write|Fix_race.table" fps)

let r8_through_matrix_engine () =
  (* [Matrix.run] spawns a wrapper of its [~eval], so an instance's
     [~eval] closure is a parallel scope of its own *)
  Alcotest.(check (list string))
    "captured-ref write in an ~eval closure is flagged"
    [ "R8|Fix_matrix.run_instance|captured-write|verified" ]
    (fingerprints base [ fixture "fix_matrix.ml" "Fix_matrix" ])

(* {1 R9} *)

let r9_seeded () =
  Alcotest.(check (list string))
    "every seeded R9 allocation fires, and nothing else"
    [
      "R9|Fix_hot.bad_closure|allocating call to `Stdlib.List.map`";
      "R9|Fix_hot.bad_closure|closure allocation";
      "R9|Fix_hot.bad_tuple|tuple allocation";
      "R9|Fix_hot.bad_cons|constructor allocation `::`";
      "R9|Fix_hot.bad_float|boxed float from `Stdlib.*.`";
      "R9|Fix_hot.bad_call|calls Fix_hot.grow";
    ]
    (fingerprints base [ fixture "fix_hot.ml" "Fix_hot" ])

let r9_clean () =
  Alcotest.(check (list string))
    "hot functions honouring the contract are silent" []
    (fingerprints base [ fixture "fix_hot_clean.ml" "Fix_hot_clean" ])

(* {1 Baseline} *)

let baseline_diff () =
  let findings =
    Analyze_rules.analyze base [ fixture "fix_race.ml" "Fix_race" ]
  in
  let first = (List.hd findings).Analyze_rules.fingerprint in
  let gone = "R8|Fix_race.gone|global-write|Fix_race.x" in
  let baseline = [ (first, "audited"); (gone, "stale entry") ] in
  let fresh, stale = Analyze_rules.diff_baseline ~baseline findings in
  Alcotest.(check int)
    "baselined finding suppressed"
    (List.length findings - 1)
    (List.length fresh);
  Alcotest.(check (list string)) "stale baseline entry reported" [ gone ] stale

let baseline_roundtrip () =
  let findings =
    Analyze_rules.analyze base [ fixture "fix_race.ml" "Fix_race" ]
  in
  let rendered = Analyze_rules.render_baseline ~existing:[] findings in
  let parsed = Analyze_rules.parse_baseline rendered in
  Alcotest.(check (list string))
    "render/parse round-trips every fingerprint"
    (List.map (fun f -> f.Analyze_rules.fingerprint) findings)
    (List.map fst parsed);
  let fresh, stale = Analyze_rules.diff_baseline ~baseline:parsed findings in
  Alcotest.(check int) "round-tripped baseline suppresses all" 0
    (List.length fresh);
  Alcotest.(check (list string)) "and nothing is stale" [] stale

(* {1 Configuration hygiene} *)

let rule_registry () =
  Alcotest.(check (list string))
    "analyzer rules registered"
    [ "A1"; "A2"; "R8"; "R9" ]
    (List.sort String.compare (List.map fst (Analyze_rules.rule_ids ())))

let default_config_audited () =
  List.iter
    (fun (pat, note) ->
      Alcotest.(check bool)
        (Printf.sprintf "race_allow %s cites DESIGN.md" pat)
        true
        (contains ~sub:"DESIGN.md" note))
    Analyze_rules.default_config.Analyze_rules.race_allow;
  List.iter
    (fun (m, note) ->
      Alcotest.(check bool)
        (Printf.sprintf "guarded module %s cites DESIGN.md" m)
        true
        (contains ~sub:"DESIGN.md" note))
    Analyze_rules.default_config.Analyze_rules.guarded_modules

let suite =
  ( "analyze",
    [
      case "seeded R8 fixture violations" `Quick r8_seeded;
      case "R8 reaches writes interprocedurally" `Quick r8_interprocedural;
      case "R8 sees ~eval closures passed to a matrix engine" `Quick
        r8_through_matrix_engine;
      case "clean parallel scopes stay silent (Atomic/DLS/local)" `Quick
        r8_clean;
      case "stale race_allow entries raise A1" `Quick allowlist_stale;
      case "race_allow entries need a DESIGN.md note (A2)" `Quick
        allowlist_note;
      case "seeded R9 fixture allocations" `Quick r9_seeded;
      case "clean hot functions stay silent" `Quick r9_clean;
      case "baseline diff suppresses known, reports stale" `Quick
        baseline_diff;
      case "baseline render/parse round-trip" `Quick baseline_roundtrip;
      case "rule registry lists R8/R9/A1/A2" `Quick rule_registry;
      case "default config allowlists carry audits" `Quick
        default_config_audited;
    ] )
