(* ltree-analyze: the project's static analysis (rules R1-R9 and R11,
   allowlist hygiene A1/A2; DESIGN.md section 7) over the .cmt artifacts
   dune leaves in _build.  `dune build @check` writes a .cmt for every
   module, executables' main modules included.

     ltree_analyze [--build DIR] [--list-rules] [SCOPE ...]

   SCOPE entries (default: lib bin bench examples tools) filter units by
   source path prefix; each rule further restricts itself to its own
   scope (R2, R4, R6-R9 and R11 to lib/, R5 to lib/core/).  R11 counts
   uses from every .cmt under the build directory, whatever the scopes.
   Exit codes: 0 clean, 1 any finding, 2 usage/environment error,
   including a scope that matches no unit.  There is no baseline: a
   finding is accepted only by an audited allowlist entry in
   analyze_rules.ml. *)

let usage () =
  prerr_endline
    "usage: ltree_analyze [--build DIR] [--list-rules] [SCOPE ...]";
  exit 2

let rec collect_cmts acc dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> acc
  | entries ->
    Array.fold_left
      (fun acc entry ->
        let path = Filename.concat dir entry in
        if Sys.is_directory path then collect_cmts acc path
        else if Filename.check_suffix entry ".cmt" then path :: acc
        else acc)
      acc entries

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  if List.exists (String.equal "--list-rules") args then begin
    List.iter
      (fun (id, doc) -> Printf.printf "%-4s %s\n" id doc)
      (Analyze_rules.rule_ids ());
    exit 0
  end;
  let build = ref "_build/default" in
  let scopes = ref [] in
  let rec parse = function
    | [] -> ()
    | "--build" :: dir :: rest ->
      build := dir;
      parse rest
    | "--build" :: [] -> usage ()
    | arg :: _ when String.length arg > 1 && arg.[0] = '-' -> usage ()
    | scope :: rest ->
      scopes := scope :: !scopes;
      parse rest
  in
  parse args;
  let scopes =
    match List.rev !scopes with
    | [] -> [ "lib"; "bin"; "bench"; "examples"; "tools" ]
    | s -> s
  in
  if not (Sys.file_exists !build && Sys.is_directory !build) then begin
    Printf.eprintf
      "ltree-analyze: build directory %S not found (run `dune build` \
       first)\n"
      !build;
    exit 2
  end;
  let under s (u : Analyze_rules.unit_info) =
    let s = if Filename.check_suffix s "/" then s else s ^ "/" in
    String.length u.u_file >= String.length s
    && String.sub u.u_file 0 (String.length s) = s
  in
  (* every unit is a potential user of a lib/ export (R11); the scopes
     pick the units whose own findings are reported *)
  let seen = Hashtbl.create 64 in
  let all =
    List.filter_map
      (fun path ->
        match Analyze_rules.load_cmt ~build:!build path with
        | Some u when not (Hashtbl.mem seen u.Analyze_rules.u_file) ->
          Hashtbl.replace seen u.Analyze_rules.u_file ();
          Some u
        | _ -> None)
      (List.sort String.compare (collect_cmts [] !build))
  in
  (match List.filter (fun s -> not (List.exists (under s) all)) scopes with
  | [] -> ()
  | missing ->
    Printf.eprintf
      "ltree-analyze: no .cmt units under %s match scope %s (a typo, or \
       run `dune build @all @check` first)\n"
      !build (String.concat " " missing);
    exit 2);
  let units =
    List.filter (fun u -> List.exists (fun s -> under s u) scopes) all
  in
  let cfg = Analyze_rules.default_config in
  let findings, test_only = Analyze_rules.analyze ~users:all cfg units in
  List.iter
    (fun v -> Format.printf "@[<v>%a@]@." Analyze_rules.pp_finding v)
    findings;
  (match test_only with
  | [] -> ()
  | _ ->
    Printf.printf
      "ltree-analyze: %d test-only export(s), not failing (each must be an \
       invariant check, an oracle or a test printer):\n"
      (List.length test_only);
    List.iter
      (fun (f : Analyze_rules.finding) ->
        Printf.printf "  %s:%d: %s\n" f.file f.line f.message)
      test_only);
  match findings with
  | [] ->
    Printf.printf "ltree-analyze: %d unit(s) in %s clean (%d rules)\n"
      (List.length units)
      (String.concat " " scopes)
      (List.length (Analyze_rules.rule_ids ()));
    exit 0
  | vs ->
    Printf.eprintf "ltree-analyze: %d finding(s)\n" (List.length vs);
    exit 1
