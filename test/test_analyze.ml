(* Coverage for the static analyzer (tools/analyze).  Fixture sources
   under test/analyze_fixtures/ are self-contained (Stdlib only, with a
   mini [Pool] standing in for Ltree_exec.Pool) and are typechecked
   in-process — no dune-built .cmt needed.  The [analyze] suite covers
   the whole-program rules (R8/R9) and A1/A2 over
   [race_allow]; the [lint] suite covers the per-unit rules R1-R7,
   A1/A2 over [global_allow] and the unused-export rule R11, with
   [analyze_fixtures/libroot/] playing the role of [lib/]. *)

let case = Alcotest.test_case

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let unit_name_of path =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename path))

(* [fixture name] typechecks analyze_fixtures/[name] against the
   interfaces of [deps]; [~as_path] reports it under another source path,
   which is what rule scopes look at. *)
let fixture =
  let memo : (string, Analyze_rules.unit_info) Hashtbl.t =
    Hashtbl.create 8
  in
  fun ?deps ?as_path name ->
    let src = Filename.concat "analyze_fixtures" name in
    let path = Option.value as_path ~default:src in
    match Hashtbl.find_opt memo path with
    | Some u -> u
    | None ->
      let u =
        Analyze_rules.typecheck_impl ?deps ~unit_name:(unit_name_of path)
          ~path (read_file src)
      in
      Hashtbl.replace memo path u;
      u

(* The R8/R9 fixtures sit at the top of analyze_fixtures/, which plays
   [lib/] for them; their R6/R7 findings are the lint suite's business. *)
let base =
  {
    Analyze_rules.default_config with
    lib_prefix = "analyze_fixtures/";
    race_allow = [];
    global_allow = [];
  }

(* The failing findings; R11's test-only list is checked on its own. *)
let analyze cfg units = fst (Analyze_rules.analyze cfg units)

let fingerprints ?(rules = [ "R8"; "R9"; "A1"; "A2" ]) cfg units =
  List.filter_map
    (fun f ->
      if List.mem f.Analyze_rules.rule rules then Some f.fingerprint
      else None)
    (analyze cfg units)

let contains = Analyze_rules.contains

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
    (fingerprints base [ fixture "fix_race.ml" ])

let r8_interprocedural () =
  (* the acceptance case: an unsynchronized Hashtbl write two project
     calls away from the Pool closure is still attributed *)
  let fps = fingerprints base [ fixture "fix_race.ml" ] in
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
    (fingerprints cfg [ fixture "fix_race_clean.ml" ])

let allowlist_stale () =
  let cfg =
    {
      base with
      Analyze_rules.race_allow =
        [ ("Fix_race.gone", "entry for deleted code; DESIGN.md section 7") ];
    }
  in
  let fps = fingerprints cfg [ fixture "fix_race.ml" ] in
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
  let fps = fingerprints cfg [ fixture "fix_race.ml" ] in
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
    (fingerprints base [ fixture "fix_matrix.ml" ])

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
    (fingerprints base [ fixture "fix_hot.ml" ])

let r9_clean () =
  Alcotest.(check (list string))
    "hot functions honouring the contract are silent" []
    (fingerprints base [ fixture "fix_hot_clean.ml" ])

(* {1 Baseline} *)

(* {1 Configuration hygiene} *)

let rule_registry () =
  Alcotest.(check (list string))
    "one registry for every rule"
    [
      "A1"; "A2"; "R1"; "R11"; "R2"; "R3"; "R4"; "R5"; "R6"; "R7"; "R8";
      "R9";
    ]
    (List.sort String.compare (List.map fst (Analyze_rules.rule_ids ())))

let default_config_audited () =
  let cfg = Analyze_rules.default_config in
  List.iter
    (fun (entry, note) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s cites DESIGN.md" entry)
        true
        (contains ~sub:"DESIGN.md" note))
    (List.map (fun (p, n) -> ("race_allow " ^ p, n)) cfg.race_allow
    @ List.map
        (fun (p, b, n) -> (Printf.sprintf "global_allow %s:%s" p b, n))
        cfg.global_allow)

(* {1 Per-unit rules R1-R7} *)

let libroot = "analyze_fixtures/libroot/"

let lint_config =
  {
    Analyze_rules.default_config with
    lib_prefix = libroot;
    core_prefix = libroot ^ "core/";
    print_allow = [];
    arith_allow = [ (libroot ^ "core/bad_arith.ml", "pow_ok") ];
    race_allow = [];
    global_allow =
      [
        ( libroot ^ "bad_global.ml", "ring",
          "fixture: stands in for an audited global; DESIGN.md section 7" );
      ];
  }

let rec sources dir =
  List.concat_map
    (fun entry ->
      let path = Filename.concat dir entry in
      if Sys.is_directory path then sources path
      else if Filename.check_suffix entry ".ml" then [ path ]
      else [])
    (List.sort String.compare (Array.to_list (Sys.readdir dir)))

(* Every fixture under libroot/, typechecked once. *)
let lint_units =
  let memo =
    lazy
      (List.map
         (fun path ->
           let prefix = String.length "analyze_fixtures/" in
           fixture (String.sub path prefix (String.length path - prefix)))
         (sources "analyze_fixtures/libroot"))
  in
  fun () -> Lazy.force memo

(* For a subset of the fixtures: the [ring] entry would be stale. *)
let solo_config = { lint_config with global_allow = [] }

let render (f : Analyze_rules.finding) =
  Printf.sprintf "%s:%s:%d" f.file f.rule f.line

(* The per-unit rules only: every libroot/ export is unused among the
   fixtures, so R11 has cases of its own below. *)
let lint cfg units =
  List.filter_map
    (fun (f : Analyze_rules.finding) ->
      if String.equal f.rule "R11" then None else Some (render f))
    (analyze cfg units)

let seeded_violations () =
  let expected =
    List.map
      (fun s -> libroot ^ s)
      [
        "bad_catchall.ml:R3:2";
        "bad_catchall.ml:R3:3";
        "bad_catchall.ml:R3:5";
        "bad_global.ml:R7:3";
        "bad_global.ml:R7:4";
        "bad_global.ml:R7:7";
        "bad_hashtbl.ml:R2:5";
        "bad_hashtbl.ml:R2:6";
        "bad_hashtbl.ml:R2:7";
        "bad_hashtbl.ml:R2:8";
        "bad_hashtbl.ml:R2:9";
        "bad_hashtbl.ml:R2:10";
        "bad_hashtbl.ml:R2:11";
        "bad_hashtbl.ml:R2:12";
        "bad_hashtbl.ml:R2:13";
        "bad_minmax.ml:R2:4";
        "bad_minmax.ml:R2:5";
        "bad_obj.ml:R1:2";
        "bad_obj.ml:R1:3";
        "bad_obj.ml:R1:4";
        "bad_obj.ml:R1:5";
        "bad_poly.ml:R2:3";
        "bad_poly.ml:R2:4";
        "bad_poly.ml:R2:5";
        "bad_poly.ml:R2:6";
        "bad_poly.ml:R2:7";
        "bad_poly.ml:R2:8";
        "bad_print.ml:R4:2";
        "bad_print.ml:R4:3";
        "bad_print.ml:R4:4";
        "core/bad_arith.ml:R5:3";
        "core/bad_arith.ml:R5:4";
        "core/bad_arith.ml:R5:5";
        "missing_mli.ml:R6:1";
      ]
  in
  Alcotest.(check (list string))
    "every seeded violation fires, and nothing else" expected
    (lint lint_config (lint_units ()))

let clean_fixtures_silent () =
  List.iter
    (fun name ->
      Alcotest.(check (list string))
        (name ^ " analyzes clean") []
        (lint solo_config [ fixture ("libroot/" ^ name) ]))
    [ "clean.ml"; "clean_compare.ml"; "clean_hashtbl.ml" ]

let mli_presence () =
  Alcotest.(check (list string))
    "only the lib module without an .mli fires"
    [ libroot ^ "missing_mli.ml:R6:1" ]
    (List.filter_map
       (fun (f : Analyze_rules.finding) ->
         if String.equal f.rule "R6" then Some (render f) else None)
       (analyze lint_config
          [
            fixture "libroot/missing_mli.ml"; fixture "libroot/clean.ml";
            (* outside lib_prefix: no interface needed *)
            fixture "fix_hot.ml";
          ]))

let hygiene cfg =
  List.filter_map
    (fun (f : Analyze_rules.finding) ->
      if String.equal f.rule "A1" || String.equal f.rule "A2" then
        Some f.fingerprint
      else None)
    (analyze cfg [ fixture "libroot/bad_global.ml" ])

let global_allow_stale () =
  Alcotest.(check (list string))
    "a vanished binding and a deleted file both raise A1"
    [
      "A1|" ^ libroot ^ "bad_global.ml:vanished";
      "A1|" ^ libroot ^ "no_such_file.ml:ring";
    ]
    (hygiene
       {
         lint_config with
         global_allow =
           [
             ( libroot ^ "bad_global.ml", "vanished",
               "entry for deleted code; DESIGN.md section 7" );
             ( libroot ^ "no_such_file.ml", "ring",
               "entry for deleted file; DESIGN.md section 7" );
           ];
       })

let global_allow_note () =
  Alcotest.(check (list string))
    "a note without a DESIGN.md crossref raises A2"
    [ "A2|" ^ libroot ^ "bad_global.ml:ring" ]
    (hygiene
       {
         lint_config with
         global_allow =
           [
             ( libroot ^ "bad_global.ml", "ring",
               "audited, but missing the crossref" );
           ];
       })

let r2_minmax_prelude () =
  Alcotest.(check (list string))
    "an int prelude does not make max specialized"
    [ libroot ^ "bad_minmax.ml:R2:4"; libroot ^ "bad_minmax.ml:R2:5" ]
    (lint solo_config [ fixture "libroot/bad_minmax.ml" ])

let r2_formerly_allowlisted () =
  (* lib/doc/ was exempt from the untyped R2 *)
  let u = fixture ~as_path:"lib/doc/record_compare.ml" "record_compare.ml" in
  Alcotest.(check (list string))
    "a generic compare on a record in lib/doc/ fires"
    [ "R2|lib/doc/record_compare.ml:5:27" ]
    (fingerprints ~rules:[ "R2" ]
       { Analyze_rules.default_config with race_allow = []; global_allow = [] }
       [ u ])

let r2_specialized_silent () =
  Alcotest.(check (list string))
    "=/compare at int, string, float, bool, a constant variant, an int \
     alias and against [], Int.max and String.equal stay silent"
    []
    (lint solo_config [ fixture "libroot/clean_compare.ml" ])

(* {1 R11} *)

let r11_units () =
  let exports = fixture "libroot/r11_exports.ml" in
  [
    exports;
    fixture ~deps:[ exports ] "r11_client.ml";
    fixture ~deps:[ exports ] ~as_path:"test/r11_tests.ml" "r11_tests.ml";
  ]

let r11_key (f : Analyze_rules.finding) = f.func

let r11_findings () =
  let dead, test_only =
    Analyze_rules.unused_exports lint_config (r11_units ())
  in
  Alcotest.(check (list string))
    "the dead and the self-only export fire; used, aliased, \
     let-module-aliased and included ones do not"
    [ "R11_exports.self_only"; "R11_exports.dead" ]
    (List.map r11_key dead);
  Alcotest.(check bool)
    "a use through a local let-module alias counts" false
    (List.exists
       (fun f -> String.equal (r11_key f) "R11_exports.via_let_module")
       (dead @ test_only));
  Alcotest.(check (list string))
    "an export used only from test/ is reported apart"
    [ "R11_exports.tested" ]
    (List.map r11_key test_only);
  Alcotest.(check (list string))
    "each finding points at its val in the .mli"
    [ libroot ^ "r11_exports.mli:R11:13"; libroot ^ "r11_exports.mli:R11:14" ]
    (List.map render dead);
  Alcotest.(check (list bool))
    "the self-only finding says so" [ true; false ]
    (List.map
       (fun (f : Analyze_rules.finding) ->
         contains ~sub:"only inside its own unit" f.message)
       dead)

let r11_fails_test_only_does_not () =
  let failing, test_only = Analyze_rules.analyze lint_config (r11_units ()) in
  Alcotest.(check (list string))
    "analyze returns the test-only exports apart" [ "R11_exports.tested" ]
    (List.map r11_key test_only);
  let fired =
    List.filter_map
      (fun (f : Analyze_rules.finding) ->
        if String.equal f.rule "R11" then Some f.func else None)
      failing
  in
  Alcotest.(check (list string))
    "analyze fails on R11 findings, not on test-only exports"
    [ "R11_exports.self_only"; "R11_exports.dead" ]
    fired

let r11_users_beyond_scope () =
  (* the scanned units are the exporter alone; the users still count *)
  let users = r11_units () in
  Alcotest.(check (list string))
    "uses come from every unit, not only the scanned ones"
    [ "R11_exports.self_only"; "R11_exports.dead" ]
    (List.map r11_key
       (fst
          (Analyze_rules.unused_exports ~users lint_config [ List.hd users ])))

let lint_suite =
  ( "lint",
    [
      case "seeded fixture violations (R1-R7)" `Quick seeded_violations;
      case "clean fixtures stay silent" `Quick clean_fixtures_silent;
      case "interface presence (R6)" `Quick mli_presence;
      case "stale global_allow entries raise A1" `Quick global_allow_stale;
      case "global_allow notes must cite DESIGN.md (A2)" `Quick
        global_allow_note;
      case "R2 flags min/max under an int prelude" `Quick r2_minmax_prelude;
      case "R2 flags a record compare in formerly exempt lib/doc" `Quick
        r2_formerly_allowlisted;
      case "R2 stays silent on specialized comparisons" `Quick
        r2_specialized_silent;
      case "R11 flags dead and self-only exports" `Quick r11_findings;
      case "R11 fails analyze; test-only exports do not" `Quick
        r11_fails_test_only_does_not;
      case "R11 counts users outside the scanned scope" `Quick
        r11_users_beyond_scope;
    ] )

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
      case "rule registry lists R1-R9/R11/A1/A2" `Quick rule_registry;
      case "default config allowlists carry audits" `Quick
        default_config_audited;
    ] )
