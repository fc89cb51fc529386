(* ltree-analyze: the project's static-analysis pass over the Typedtree
   of every compiled unit (dune's .cmt files, or sources typechecked
   in-process by the fixture tests).  One config and one finding type
   cover every rule; the rule table is DESIGN.md section 7.

   Per-unit rules, each scoped by source path:

   - R1: no [Obj.*] anywhere;
   - R2 ([lib/]): no comparison that falls back to the generic
     [caml_compare] family.  Each [=]/[<>]/[<]/[>]/[<=]/[>=]/[compare]
     is judged by its operand type at the call site, exactly as the
     compiler specializes it: immediate types, [float], [string],
     [bytes] and the boxed ints are fine, anything else is flagged.
     [Stdlib.min]/[Stdlib.max] are flagged at every type (they are
     never specialized), and so is every use of a local alias of a
     flagged comparison.  The generic keyed lookups
     [Hashtbl.{find,find_opt,replace,add,mem,remove}] and
     [List.{assoc,mem_assoc,mem}] are flagged at immediate key types
     (int, char, bool, constant variants);
   - R3: no exception-swallowing [try ... with _ ->];
   - R4 ([lib/]): no console output;
   - R5 ([lib/core/]): raw [*]/[lsl] on [radix]/[m] must go through the
     overflow-checked [Params.pow_*] helpers;
   - R6 ([lib/]): every module has an interface file;
   - R7 ([lib/]): no top-level mutable globals outside [global_allow].

   Whole-program rules over the call graph of the [lib/] units
   (nested-function nodes, parameter-mutation summaries):

   - R8 (domain-safety): compute the set of functions reachable from
     parallel entry points (closures or function idents handed to
     [Pool.map]/[Domain.spawn], transitively through project wrappers
     that forward a closure to them) and flag any access to mutable
     state that is not local to the spawned scope and not mediated by
     Atomic / Mutex / Domain.DLS.  Residual accesses must be
     allowlisted in [race_allow] with an audit note citing DESIGN.md.

   - R9 (hot-path allocation): functions carrying [@ltree.hot] must
     not allocate on their fast path.  Closures, tuples, non-constant
     constructors, records, boxed floats, allocating stdlib calls and
     calls into project functions that may allocate are all reported
     with the allocating expression.  [@ltree.cold] marks audited
     slow-path regions (resize branches, error paths) that are
     excluded, and [raise]/[failwith]/[invalid_arg]/[assert] subtrees
     are skipped as error paths.

   - R11 (unused exports): a top-level [val] of a [lib/] interface that
     no other unit references, counting references from every unit
     passed as users ([test/] ones included).  Exports referenced only
     from [test/] are reported apart and never fail.

   Allowlist hygiene is checked by one piece of code for both
   [race_allow] (R8) and [global_allow] (R7): A1 flags an entry that no
   longer suppresses any finding, A2 an entry whose audit note does not
   cite DESIGN.md.  There is no baseline: a finding is accepted only
   by an audited allowlist entry (or, for R9, an [@ltree.cold]
   region).  R10 is reserved. *)

type finding = {
  rule : string;  (* "R1" .. "R9" | "R11" | "A1" | "A2" *)
  file : string;
  line : int;  (* 1-based; 0 for config-level findings *)
  col : int;
  func : string;
      (* owning function key, e.g. "Ltree_exec.Pool.map"; the binding
         key for R7, the unit for the other per-unit rules *)
  message : string;
  hint : string;
  fingerprint : string;  (* stable id: dedup, report order, tests *)
}

type config = {
  lib_prefix : string;  (* R2/R4/R6/R7 scope, e.g. "lib/" *)
  core_prefix : string;  (* R5 scope, e.g. "lib/core/" *)
  print_allow : string list;  (* R4: exempt source paths *)
  arith_allow : (string * string) list;
      (* R5: (path, top-level binding whose body is exempt); "*" exempts
         the whole file *)
  global_allow : (string * string * string) list;
      (* R7: (path, top-level binding, audit note); "*" allows the whole
         file.  Checked by A1/A2 like [race_allow]. *)
  parallel_entries : string list;
      (* function names (module-boundary suffixes) whose call sites
         spawn their function arguments onto other domains *)
  sync_prefixes : string list;
      (* fully-qualified prefixes of the sanctioned synchronisation
         primitives; calls into these are never flagged *)
  race_allow : (string * string) list;
      (* (owner-function pattern, audit note).  A pattern is an exact
         function key or a prefix ending in ".*".  Every entry must
         cite DESIGN.md (A2) and still suppress >= 1 finding (A1). *)
  hot_attr : string;  (* attribute marking zero-alloc functions *)
  cold_attr : string;  (* attribute marking audited slow-path regions *)
  mutable_ctors : string list;
      (* constructors whose top-level application makes a mutable
         global whose mere *read* from a parallel scope is flagged *)
  alloc_calls : string list;  (* stdlib functions that allocate *)
  alloc_call_prefixes : string list;  (* prefix-matched alloc calls *)
  float_ops : string list;  (* operators producing boxed floats *)
  raise_like : string list;  (* error-path heads: subtree skipped *)
}

let default_config =
  {
    lib_prefix = "lib/";
    core_prefix = "lib/core/";
    print_allow = [ "lib/metrics/table.ml" (* the sanctioned table printer *) ];
    arith_allow =
      [
        ("lib/core/params.ml", "*");
        (* pow_checked and friends are the overflow-checked helpers *)
        ("lib/core/tuning.ml", "lattice");
        (* candidate f = s*m products, bounded by max_f: not label math *)
      ];
    global_allow =
      [
        ( "lib/obs/span.ml", "ring",
          "the one process-wide event ring (spans, points and \
           flight-recorder notes): every access goes through the \
           module's own ring_mu mutex; audited in DESIGN.md section 10" );
      ];
    parallel_entries = [ "Pool.map"; "Domain.spawn" ];
    sync_prefixes =
      [
        "Stdlib.Atomic."; "Stdlib.Mutex."; "Stdlib.Condition.";
        "Stdlib.Semaphore."; "Stdlib.Domain.DLS.";
      ];
    race_allow =
      [
        ( "Ltree_recovery.Matrix.run.*",
          "the matrix engine's only shared state is the progress counter \
           under progress_mu; each instance's eval owns its sims, \
           documents and stores; audited in DESIGN.md section 9" );
        ( "Ltree_obs.Span.*",
          "the one event ring (spans and notes) is the \
           R7-allowlisted global; every access runs under ring_mu; \
           audited in DESIGN.md section 10" );
      ];
    hot_attr = "ltree.hot";
    cold_attr = "ltree.cold";
    (* [Atomic.make], [Mutex.create], [Condition.create] and
       [Domain.DLS.new_key] are deliberately absent: those are the
       sanctioned domain-safe constructs. *)
    mutable_ctors =
      [
        "ref"; "Hashtbl.create"; "Queue.create"; "Stack.create";
        "Buffer.create"; "Array.make"; "Array.create_float";
        "Bytes.create"; "Bytes.make"; "Ltree_metrics.Int_tbl.create";
      ];
    alloc_calls =
      [
        "Stdlib.Array.make"; "Stdlib.Array.init"; "Stdlib.Array.sub";
        "Stdlib.Array.copy"; "Stdlib.Array.append"; "Stdlib.Array.concat";
        "Stdlib.Array.to_list"; "Stdlib.Array.of_list"; "Stdlib.Array.map";
        "Stdlib.Array.mapi"; "Stdlib.Array.make_matrix";
        "Stdlib.List.map"; "Stdlib.List.mapi"; "Stdlib.List.init";
        "Stdlib.List.append"; "Stdlib.List.rev"; "Stdlib.List.rev_append";
        "Stdlib.List.concat"; "Stdlib.List.sort"; "Stdlib.List.stable_sort";
        "Stdlib.List.filter"; "Stdlib.List.filter_map"; "Stdlib.List.flatten";
        "Stdlib.String.make"; "Stdlib.String.sub"; "Stdlib.String.concat";
        "Stdlib.String.init"; "Stdlib.String.map"; "Stdlib.String.uppercase_ascii";
        "Stdlib.String.lowercase_ascii";
        "Stdlib.^"; "Stdlib.@"; "Stdlib.string_of_int";
        "Stdlib.string_of_float"; "Stdlib.float_of_string";
        "Stdlib.Bytes.create"; "Stdlib.Bytes.make"; "Stdlib.Bytes.sub";
        "Stdlib.Bytes.copy"; "Stdlib.Bytes.to_string"; "Stdlib.Bytes.of_string";
        "Stdlib.Buffer.create"; "Stdlib.Buffer.contents";
        "Stdlib.Hashtbl.create"; "Stdlib.Hashtbl.copy";
        "Stdlib.Hashtbl.fold"; "Stdlib.Hashtbl.find_opt";
        "Ltree_metrics.Int_tbl.create"; "Ltree_metrics.Int_tbl.copy";
        "Ltree_metrics.Int_tbl.fold"; "Ltree_metrics.Int_tbl.find_opt";
        "Stdlib.Queue.create"; "Stdlib.Stack.create";
      ];
    alloc_call_prefixes = [ "Stdlib.Printf."; "Stdlib.Format." ];
    float_ops =
      [
        "Stdlib.+."; "Stdlib.-."; "Stdlib.*."; "Stdlib./."; "Stdlib.~-.";
        "Stdlib.**"; "Stdlib.float_of_int"; "Stdlib.abs_float";
      ];
    raise_like =
      [
        "Stdlib.raise"; "Stdlib.raise_notrace"; "Stdlib.failwith";
        "Stdlib.invalid_arg";
      ];
  }

(* {1 Small helpers} *)

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let has_suffix ~suffix s =
  String.length s >= String.length suffix
  && String.sub s (String.length s - String.length suffix)
       (String.length suffix)
     = suffix

(* "Ltree_exec__Read_snapshot" (dune's wrapped-library mangling) ->
   "Ltree_exec.Read_snapshot". *)
let normalize_unit name =
  let b = Buffer.create (String.length name) in
  let n = String.length name in
  let i = ref 0 in
  while !i < n do
    if !i + 1 < n && name.[!i] = '_' && name.[!i + 1] = '_' then begin
      Buffer.add_char b '.';
      i := !i + 2
    end
    else begin
      Buffer.add_char b name.[!i];
      incr i
    end
  done;
  Buffer.contents b

let strip_stdlib s =
  if has_prefix ~prefix:"Stdlib." s then String.sub s 7 (String.length s - 7)
  else s

let pos_of (loc : Location.t) =
  let p = loc.loc_start in
  (p.pos_lnum, p.pos_cnum - p.pos_bol)

(* An owner pattern from [race_allow]: exact key, or "Prefix.*". *)
let pattern_matches pat key =
  if has_suffix ~suffix:".*" pat then
    has_prefix ~prefix:(String.sub pat 0 (String.length pat - 1)) key
  else String.equal pat key

let last_segment key =
  match String.rindex_opt key '.' with
  | Some i -> String.sub key (i + 1) (String.length key - i - 1)
  | None -> key

let attr_present name (attrs : Parsetree.attributes) =
  List.exists
    (fun (a : Parsetree.attribute) -> String.equal a.attr_name.txt name)
    attrs

(* {1 Unit loading} *)

type unit_info = {
  u_name : string;  (* normalized module path, e.g. "Ltree_exec.Pool" *)
  u_file : string;  (* source path for reporting *)
  u_str : Typedtree.structure;
  u_sig : Typedtree.signature option;  (* the interface: R6, R11 *)
  u_loadpath : string list option;
      (* .cmi directories to rebuild the environments a .cmt stores as
         summaries; [None] for in-process units, whose environments are
         complete *)
}

let read_annots path =
  match Cmt_format.read_cmt path with
  | exception (Sys_error _ | End_of_file | Failure _) -> None
  | exception Cmi_format.Error _ -> None
  | exception Cmt_format.Error _ -> None
  | info -> Some info

(* A .cmt dune wrote under [build]: its load path is relative to the
   build root.  Only real [.ml] sources count (dune's generated alias
   modules are [.ml-gen]); the unit's interface is the .cmti dune wrote
   beside it, if any. *)
let load_cmt ~build path =
  match read_annots path with
  | None -> None
  | Some info -> (
    match (info.Cmt_format.cmt_annots, info.Cmt_format.cmt_sourcefile) with
    | Cmt_format.Implementation str, Some file
      when Filename.check_suffix file ".ml" ->
      let resolve d =
        if Filename.is_relative d then Filename.concat build d else d
      in
      let u_sig =
        match read_annots (Filename.remove_extension path ^ ".cmti") with
        | Some { Cmt_format.cmt_annots = Cmt_format.Interface sg; _ } ->
          Some sg
        | _ -> None
      in
      Some
        { u_name = normalize_unit info.Cmt_format.cmt_modname;
          u_file = file; u_str = str; u_sig;
          u_loadpath = Some (List.map resolve info.Cmt_format.cmt_loadpath) }
    | _ -> None)

(* Typecheck a self-contained source in-process: the hermetic path the
   fixture tests use (no dune build of the fixtures required).  The
   source may depend on Stdlib and on the interfaces of [deps]; its own
   interface is [path ^ "i"], if that exists. *)
let typecheck_impl ?(deps = []) ~unit_name ~path source =
  ignore (Warnings.parse_options false "-a");
  Clflags.dont_write_files := true;
  Compmisc.init_path ();
  let parse path source =
    let lexbuf = Lexing.from_string source in
    Location.init lexbuf path;
    lexbuf
  in
  let env =
    List.fold_left
      (fun env d ->
        match d.u_sig with
        | Some sg ->
          Env.add_module
            (Ident.create_persistent d.u_name)
            Types.Mp_present (Types.Mty_signature sg.Typedtree.sig_type) env
        | None -> env)
      (Compmisc.initial_env ()) deps
  in
  let tstr, _, _, _, _ =
    Typemod.type_structure env (Parse.implementation (parse path source))
  in
  let mli = path ^ "i" in
  let u_sig =
    if Sys.file_exists mli then
      let ic = open_in_bin mli in
      let src =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      Some
        (Typemod.type_interface (Compmisc.initial_env ())
           (Parse.interface (parse mli src)))
    else None
  in
  { u_name = unit_name; u_file = path; u_str = tstr; u_sig;
    u_loadpath = None }

(* {1 Identifier resolution}

   Node keys are dot-paths rooted at the unit name:
   "Ltree_exec.Read_snapshot.run", nested functions append their path
   ("Ltree_recovery.Crash_matrix.run.eval_cell").  Each unit carries a
   stamp table mapping local idents (functions, local modules, module
   aliases) to keys so that same-unit references resolve to the same
   key as cross-unit ones. *)

type uctx = {
  uc_unit : string;
  uc_file : string;
  uc_stamps : (string, string) Hashtbl.t;  (* Ident.unique_name -> key *)
}

let rec path_key uc (p : Path.t) =
  match p with
  | Path.Pident id -> (
    match Hashtbl.find_opt uc.uc_stamps (Ident.unique_name id) with
    | Some k -> k
    | None -> normalize_unit (Ident.name id))
  | Path.Pdot (p, s) -> path_key uc p ^ "." ^ s
  | Path.Papply (p, _) -> path_key uc p
  | Path.Pextra_ty (p, _) -> path_key uc p

(* {1 Program model} *)

type node = {
  n_key : string;
  n_uc : uctx;
  n_loc : Location.t;
  n_body : Typedtree.expression;  (* includes the curried spine *)
  n_hot : bool;
}

type global = {
  g_key : string;
  g_ctor : string option;  (* the [mutable_ctors] entry it applies, if any *)
  g_file : string;
  g_loc : Location.t;
}

type program = {
  nodes : (string, node) Hashtbl.t;
  globals : (string, global) Hashtbl.t;
}

let binding_ident (p : Typedtree.pattern) =
  let rec go (p : Typedtree.pattern) =
    match p.pat_desc with
    | Typedtree.Tpat_var (id, _) -> Some id
    (* A constrained binding [let x : t = e] typechecks as
       [Tpat_alias (Tpat_any, x, _)], so the alias ident is the binder. *)
    | Typedtree.Tpat_alias (p, id, _) ->
      (match go p with Some _ as s -> s | None -> Some id)
    | _ -> None
  in
  go p

let is_function (e : Typedtree.expression) =
  match e.exp_desc with Typedtree.Texp_function _ -> true | _ -> false

(* The mutable constructor a top-level RHS applies, if any: what makes
   the binding a mutable global (R7, and R8's global reads). *)
let mutable_ctor_of cfg uc (e : Typedtree.expression) =
  match e.exp_desc with
  | Typedtree.Texp_apply
      ({ exp_desc = Typedtree.Texp_ident (p, _, _); _ }, _ :: _) ->
    let name = strip_stdlib (path_key uc p) in
    if List.exists (String.equal name) cfg.mutable_ctors then Some name
    else None
  | _ -> None

(* Register every let-bound function in [e] (recursively) as a node
   keyed under [prefix], stamping the binder so references resolve. *)
let rec register_fns cfg prog uc ~prefix ~hot_inherited
    (vbs : Typedtree.value_binding list) =
  List.iter
    (fun (vb : Typedtree.value_binding) ->
      match binding_ident vb.vb_pat with
      | Some id when is_function vb.vb_expr ->
        let key = prefix ^ "." ^ Ident.name id in
        let hot = hot_inherited || attr_present cfg.hot_attr vb.vb_attributes in
        Hashtbl.replace uc.uc_stamps (Ident.unique_name id) key;
        Hashtbl.replace prog.nodes key
          { n_key = key; n_uc = uc; n_loc = vb.vb_loc; n_body = vb.vb_expr;
            n_hot = hot };
        register_nested cfg prog uc ~prefix:key vb.vb_expr
      | _ -> ())
    vbs

and register_nested cfg prog uc ~prefix (e : Typedtree.expression) =
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun sub (e : Typedtree.expression) ->
          (match e.exp_desc with
          | Typedtree.Texp_let (_, vbs, _) ->
            List.iter
              (fun (vb : Typedtree.value_binding) ->
                match binding_ident vb.vb_pat with
                | Some id when is_function vb.vb_expr ->
                  let key = prefix ^ "." ^ Ident.name id in
                  let hot = attr_present cfg.hot_attr vb.vb_attributes in
                  Hashtbl.replace uc.uc_stamps (Ident.unique_name id) key;
                  if not (Hashtbl.mem prog.nodes key) then
                    Hashtbl.replace prog.nodes key
                      { n_key = key; n_uc = uc; n_loc = vb.vb_loc;
                        n_body = vb.vb_expr; n_hot = hot }
                | _ -> ())
              vbs
          | _ -> ());
          Tast_iterator.default_iterator.expr sub e);
    }
  in
  it.expr it e

let rec register_structure cfg prog uc ~prefix (str : Typedtree.structure) =
  List.iter
    (fun (item : Typedtree.structure_item) ->
      match item.str_desc with
      | Typedtree.Tstr_value (_, vbs) ->
        List.iter
          (fun (vb : Typedtree.value_binding) ->
            match binding_ident vb.vb_pat with
            | Some _ when is_function vb.vb_expr -> ()
            | Some id ->
              let key = prefix ^ "." ^ Ident.name id in
              Hashtbl.replace uc.uc_stamps (Ident.unique_name id) key;
              (* [add]: a shadowed binding stays visible to R7 *)
              Hashtbl.add prog.globals key
                { g_key = key; g_ctor = mutable_ctor_of cfg uc vb.vb_expr;
                  g_file = uc.uc_file; g_loc = vb.vb_loc }
            | None -> ())
          vbs;
        register_fns cfg prog uc ~prefix ~hot_inherited:false vbs
      | Typedtree.Tstr_module mb -> register_module cfg prog uc ~prefix mb
      | Typedtree.Tstr_recmodule mbs ->
        List.iter (register_module cfg prog uc ~prefix) mbs
      | _ -> ())
    str.str_items

and register_module cfg prog uc ~prefix (mb : Typedtree.module_binding) =
  let name = match mb.mb_id with Some id -> Some id | None -> None in
  let rec strip (m : Typedtree.module_expr) =
    match m.mod_desc with
    | Typedtree.Tmod_constraint (m, _, _, _) -> strip m
    | _ -> m
  in
  let m = strip mb.mb_expr in
  match (name, m.mod_desc) with
  | Some id, Typedtree.Tmod_structure str ->
    let key = prefix ^ "." ^ Ident.name id in
    Hashtbl.replace uc.uc_stamps (Ident.unique_name id) key;
    register_structure cfg prog uc ~prefix:key str
  | Some id, Typedtree.Tmod_ident (p, _) ->
    (* module alias: references through the alias resolve to the
       target's key, so "module H = Ltree_obs.Histogram" behaves like
       the real thing *)
    Hashtbl.replace uc.uc_stamps (Ident.unique_name id) (path_key uc p)
  | _ -> ()

let build_program cfg units =
  let prog = { nodes = Hashtbl.create 256; globals = Hashtbl.create 64 } in
  List.iter
    (fun u ->
      let uc =
        { uc_unit = u.u_name; uc_file = u.u_file;
          uc_stamps = Hashtbl.create 64 }
      in
      register_structure cfg prog uc ~prefix:u.u_name u.u_str)
    units;
  prog

(* {1 Generic body facts}

   One walk per scope collects everything the rules need: bound
   idents, setfield targets, applications (head key + matched args),
   references to project nodes / globals. *)

type app = {
  a_head : string;  (* resolved head key *)
  a_args : (Asttypes.arg_label * Typedtree.expression) list;
  a_loc : Location.t;
}

type facts = {
  f_locals : (string, unit) Hashtbl.t;  (* Ident.unique_name *)
  mutable f_apps : app list;
  mutable f_refs : (string * Location.t) list;  (* resolved Texp_ident *)
  mutable f_setfields :
    (Typedtree.expression * string * Location.t) list;  (* target, label *)
}

let collect_facts uc (e : Typedtree.expression) =
  let f =
    { f_locals = Hashtbl.create 64; f_apps = []; f_refs = [];
      f_setfields = [] }
  in
  let pat : type k. Tast_iterator.iterator -> k Typedtree.general_pattern
      -> unit =
   fun sub p ->
    (match p.pat_desc with
    | Typedtree.Tpat_var (id, _) ->
      Hashtbl.replace f.f_locals (Ident.unique_name id) ()
    | Typedtree.Tpat_alias (_, id, _) ->
      Hashtbl.replace f.f_locals (Ident.unique_name id) ()
    | _ -> ());
    Tast_iterator.default_iterator.pat sub p
  in
  let expr sub (e : Typedtree.expression) =
    (match e.exp_desc with
    | Typedtree.Texp_ident (p, _, _) ->
      f.f_refs <- (path_key uc p, e.exp_loc) :: f.f_refs
    | Typedtree.Texp_for (id, _, _, _, _, _) ->
      Hashtbl.replace f.f_locals (Ident.unique_name id) ()
    | Typedtree.Texp_setfield (tgt, _, lbl, _) ->
      f.f_setfields <- (tgt, lbl.lbl_name, e.exp_loc) :: f.f_setfields
    | Typedtree.Texp_apply
        ({ exp_desc = Typedtree.Texp_ident (p, _, _); _ }, args) ->
      let head = path_key uc p in
      let args =
        List.filter_map
          (fun (l, a) -> match a with Some a -> Some (l, a) | None -> None)
          args
      in
      f.f_apps <- { a_head = head; a_args = args; a_loc = e.exp_loc }
        :: f.f_apps
    | _ -> ());
    Tast_iterator.default_iterator.expr sub e
  in
  let it = { Tast_iterator.default_iterator with expr; pat } in
  it.expr it e;
  f

(* {1 Mutation summaries}

   Which of a function's parameters does it mutate, directly or by
   passing them on?  Computed as a fixpoint over the call graph so the
   rule composes through wrappers ([Counters.add_comparison],
   [Pool.worker], ...).  A parallel scope may freely mutate its *own*
   locals and parameters; what R8 flags is mutation of captured or
   global state — and passing captured/global state into a function
   whose summary says it mutates that position. *)

(* Nolabel argument positions mutated by stdlib entry points. *)
let stdlib_mutators =
  [
    ("Stdlib.:=", [ 0 ]); ("Stdlib.incr", [ 0 ]); ("Stdlib.decr", [ 0 ]);
    ("Stdlib.Array.set", [ 0 ]); ("Stdlib.Array.unsafe_set", [ 0 ]);
    ("Stdlib.Array.fill", [ 0 ]); ("Stdlib.Array.blit", [ 2 ]);
    ("Stdlib.Array.sort", [ 1 ]); ("Stdlib.Array.stable_sort", [ 1 ]);
    ("Stdlib.Bytes.set", [ 0 ]); ("Stdlib.Bytes.unsafe_set", [ 0 ]);
    ("Stdlib.Bytes.blit", [ 2 ]); ("Stdlib.Bytes.fill", [ 0 ]);
    ("Stdlib.Hashtbl.add", [ 0 ]); ("Stdlib.Hashtbl.replace", [ 0 ]);
    ("Stdlib.Hashtbl.remove", [ 0 ]); ("Stdlib.Hashtbl.reset", [ 0 ]);
    ("Stdlib.Hashtbl.clear", [ 0 ]);
    ("Stdlib.Hashtbl.filter_map_inplace", [ 1 ]);
    ("Ltree_metrics.Int_tbl.add", [ 0 ]);
    ("Ltree_metrics.Int_tbl.replace", [ 0 ]);
    ("Ltree_metrics.Int_tbl.remove", [ 0 ]);
    ("Ltree_metrics.Int_tbl.reset", [ 0 ]);
    ("Ltree_metrics.Int_tbl.clear", [ 0 ]);
    ("Ltree_metrics.Int_tbl.filter_map_inplace", [ 1 ]);
    ("Stdlib.Queue.add", [ 1 ]); ("Stdlib.Queue.push", [ 1 ]);
    ("Stdlib.Queue.pop", [ 0 ]); ("Stdlib.Queue.take", [ 0 ]);
    ("Stdlib.Queue.clear", [ 0 ]); ("Stdlib.Queue.transfer", [ 0; 1 ]);
    ("Stdlib.Stack.push", [ 1 ]); ("Stdlib.Stack.pop", [ 0 ]);
    ("Stdlib.Stack.clear", [ 0 ]);
    ("Stdlib.Buffer.add_char", [ 0 ]); ("Stdlib.Buffer.add_string", [ 0 ]);
    ("Stdlib.Buffer.add_substring", [ 0 ]);
    ("Stdlib.Buffer.add_buffer", [ 0 ]); ("Stdlib.Buffer.clear", [ 0 ]);
    ("Stdlib.Buffer.reset", [ 0 ]);
  ]

(* Heads that return a component of their first argument: peeled when
   chasing the root identifier of an access path. *)
let deref_heads =
  [
    "Stdlib.!"; "Stdlib.Array.get"; "Stdlib.Array.unsafe_get";
    "Stdlib.Bytes.get"; "Stdlib.Hashtbl.find"; "Ltree_metrics.Int_tbl.find";
  ]

let rec nolabel_nth args n =
  match args with
  | [] -> None
  | (Asttypes.Nolabel, a) :: rest ->
    if n = 0 then Some a else nolabel_nth rest (n - 1)
  | _ :: rest -> nolabel_nth rest n

(* The root identifier of an access path: x, x.f, !x, x.(i), x.f.(i).g *)
let rec head_path uc (e : Typedtree.expression) =
  match e.exp_desc with
  | Typedtree.Texp_ident (p, _, _) -> Some p
  | Typedtree.Texp_field (e, _, _) -> head_path uc e
  | Typedtree.Texp_apply
      ({ exp_desc = Typedtree.Texp_ident (p, _, _); _ }, args) ->
    if List.exists (String.equal (path_key uc p)) deref_heads then
      let args =
        List.filter_map
          (fun (l, a) ->
            match a with Some a -> Some (l, a) | None -> None)
          args
      in
      (match nolabel_nth args 0 with
      | Some a -> head_path uc a
      | None -> None)
    else None
  | _ -> None

(* The curried parameter spine: (label, binder unique_name) per slot,
   stopping at the first pattern-dispatch ([function] with several
   cases) since mutations of destructured pieces cannot be mapped back
   to a caller argument. *)
let spine_slots (e : Typedtree.expression) =
  let rec go (e : Typedtree.expression) acc =
    match e.exp_desc with
    | Typedtree.Texp_function
        { arg_label; cases = [ { c_lhs; c_guard = None; c_rhs } ]; _ } ->
      let binder =
        match binding_ident c_lhs with
        | Some id -> Some (Ident.unique_name id)
        | None -> None
      in
      go c_rhs ((arg_label, binder) :: acc)
    | _ -> List.rev acc
  in
  go e []

(* Match call-site arguments onto callee slots: Nolabel args fill
   Nolabel slots in order, labelled args find their label. *)
let slot_args slots args =
  let nolabel_slots =
    List.concat
      (List.mapi
         (fun i (l, _) -> if l = Asttypes.Nolabel then [ i ] else [])
         slots)
  in
  let label_of = function
    | Asttypes.Labelled s | Asttypes.Optional s -> Some s
    | Asttypes.Nolabel -> None
  in
  let c = ref 0 in
  List.filter_map
    (fun (l, a) ->
      match l with
      | Asttypes.Nolabel ->
        let i = List.nth_opt nolabel_slots !c in
        incr c;
        (match i with Some i -> Some (i, a) | None -> None)
      | Asttypes.Labelled s | Asttypes.Optional s ->
        let rec find i = function
          | [] -> None
          | (sl, _) :: rest -> (
            match label_of sl with
            | Some s' when String.equal s s' -> Some i
            | _ -> find (i + 1) rest)
        in
        (match find 0 slots with Some i -> Some (i, a) | None -> None))
    args

(* Arguments a call mutates, per the stdlib table + current summaries. *)
let mutated_args summaries prog (a : app) slots_of =
  let from_stdlib =
    match List.assoc_opt a.a_head stdlib_mutators with
    | Some positions ->
      List.filter_map (fun p -> nolabel_nth a.a_args p) positions
    | None -> []
  in
  let from_summary =
    match Hashtbl.find_opt summaries a.a_head with
    | Some idxs when Hashtbl.mem prog.nodes a.a_head ->
      let slots = slots_of a.a_head in
      List.filter_map
        (fun (i, arg) -> if List.mem i idxs then Some arg else None)
        (slot_args slots a.a_args)
    | _ -> []
  in
  from_stdlib @ from_summary

let compute_summaries prog factsof =
  let summaries : (string, int list) Hashtbl.t = Hashtbl.create 64 in
  let slots_cache : (string, (Asttypes.arg_label * string option) list) Hashtbl.t =
    Hashtbl.create 64
  in
  let slots_of key =
    match Hashtbl.find_opt slots_cache key with
    | Some s -> s
    | None ->
      let s =
        match Hashtbl.find_opt prog.nodes key with
        | Some n -> spine_slots n.n_body
        | None -> []
      in
      Hashtbl.replace slots_cache key s;
      s
  in
  let pass () =
    let changed = ref false in
    Hashtbl.iter
      (fun key (n : node) ->
        let f : facts = factsof key in
        let mutated : (string, unit) Hashtbl.t = Hashtbl.create 16 in
        let note (e : Typedtree.expression) =
          match head_path n.n_uc e with
          | Some (Path.Pident id) when not (Ident.global id) ->
            Hashtbl.replace mutated (Ident.unique_name id) ()
          | _ -> ()
        in
        List.iter (fun (tgt, _, _) -> note tgt) f.f_setfields;
        List.iter
          (fun a -> List.iter note (mutated_args summaries prog a slots_of))
          f.f_apps;
        let slots = slots_of key in
        let idxs =
          List.concat
            (List.mapi
               (fun i (_, binder) ->
                 match binder with
                 | Some u when Hashtbl.mem mutated u -> [ i ]
                 | _ -> [])
               slots)
        in
        let prev =
          match Hashtbl.find_opt summaries key with Some l -> l | None -> []
        in
        if idxs <> prev then begin
          Hashtbl.replace summaries key idxs;
          changed := true
        end)
      prog.nodes;
    !changed
  in
  let rec fix n = if pass () && n > 0 then fix (n - 1) in
  fix 50;
  (summaries, slots_of)

(* {1 Taint: what runs on other domains} *)

let entry_matches cfg head =
  List.exists
    (fun e -> String.equal head e || has_suffix ~suffix:("." ^ e) head)
    cfg.parallel_entries

(* Functions that (transitively) contain a parallel-entry call site:
   handing them a closure hands it to the pool. *)
let compute_spawning cfg prog factsof =
  let spawning : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let is_spawn_call h = entry_matches cfg h || Hashtbl.mem spawning h in
  let pass () =
    let changed = ref false in
    Hashtbl.iter
      (fun key _ ->
        if not (Hashtbl.mem spawning key) then
          let f : facts = factsof key in
          if List.exists (fun a -> is_spawn_call a.a_head) f.f_apps then begin
            Hashtbl.replace spawning key ();
            changed := true
          end)
      prog.nodes;
    !changed
  in
  let rec fix n = if pass () && n > 0 then fix (n - 1) in
  fix 50;
  spawning

(* Roots: function arguments at entry/spawning call sites — literal
   closures become scopes owned by the enclosing function; named
   functions seed the tainted set.  Taint then closes over every
   project function a tainted scope references. *)
let compute_tainted cfg prog factsof spawning =
  let is_spawn_call h = entry_matches cfg h || Hashtbl.mem spawning h in
  let closure_scopes = ref [] in
  let tainted : (string, unit) Hashtbl.t = Hashtbl.create 32 in
  let queue = Queue.create () in
  let seed key = if not (Hashtbl.mem tainted key) then begin
      Hashtbl.replace tainted key ();
      Queue.add key queue
    end
  in
  Hashtbl.iter
    (fun key (n : node) ->
      let f : facts = factsof key in
      List.iter
        (fun a ->
          if is_spawn_call a.a_head then
            List.iter
              (fun (_, (arg : Typedtree.expression)) ->
                match arg.exp_desc with
                | Typedtree.Texp_function _ ->
                  closure_scopes := (key, n.n_uc, arg) :: !closure_scopes
                | Typedtree.Texp_ident (p, _, _) ->
                  let k = path_key n.n_uc p in
                  if Hashtbl.mem prog.nodes k then seed k
                | _ -> ())
              a.a_args)
        f.f_apps)
    prog.nodes;
  (* closure scopes taint everything they reference *)
  let scope_facts =
    List.map
      (fun (owner, uc, e) -> (owner, uc, collect_facts uc e))
      !closure_scopes
  in
  List.iter
    (fun (_, _, (f : facts)) ->
      List.iter
        (fun (k, _) -> if Hashtbl.mem prog.nodes k then seed k)
        f.f_refs)
    scope_facts;
  while not (Queue.is_empty queue) do
    let key = Queue.pop queue in
    let f : facts = factsof key in
    List.iter
      (fun (k, _) -> if Hashtbl.mem prog.nodes k then seed k)
      f.f_refs
  done;
  (tainted, scope_facts)

(* {1 R8 — domain-safety} *)

let under_module m key = has_prefix ~prefix:(m ^ ".") key

let sync_call cfg head =
  List.exists (fun p -> has_prefix ~prefix:p head) cfg.sync_prefixes

type target = Local | Captured of string | Global of string | Unknown

let classify uc (locals : (string, unit) Hashtbl.t) e =
  match head_path uc e with
  | Some (Path.Pident id) when not (Ident.global id) ->
    let u = Ident.unique_name id in
    if Hashtbl.mem locals u then Local
    else (
      match Hashtbl.find_opt uc.uc_stamps u with
      | Some k -> Global k
      | None -> Captured (Ident.name id))
  | Some p -> Global (path_key uc p)
  | None -> Unknown

let r8_hint =
  "mediate the access with Atomic / Mutex / Domain.DLS, make the state \
   local to the spawned scope, or add a race_allow entry with an audit \
   note citing DESIGN.md"

let check_scope cfg prog summaries slots_of ~owner (uc : uctx) (f : facts)
    out =
  let fin loc kind target message =
    let line, col = pos_of loc in
    out :=
      {
        rule = "R8"; file = uc.uc_file; line; col; func = owner; message;
        hint = r8_hint;
        fingerprint =
          String.concat "|" [ "R8"; owner; kind; target ];
      }
      :: !out
  in
  let flag_target loc ~via tgt =
    match classify uc f.f_locals tgt with
    | Local | Unknown -> ()
    | Captured name ->
      fin loc "captured-write" name
        (Printf.sprintf
           "parallel scope mutates captured `%s`%s" name via)
    | Global key ->
      fin loc "global-write" key
        (Printf.sprintf "parallel scope mutates global `%s`%s" key via)
  in
  List.iter
    (fun (tgt, lbl, loc) ->
      flag_target loc ~via:(Printf.sprintf " (field `%s`)" lbl) tgt)
    f.f_setfields;
  List.iter
    (fun (a : app) ->
      if sync_call cfg a.a_head then ()
      else
        List.iter
          (fun arg ->
            flag_target a.a_loc
              ~via:(Printf.sprintf " (passed to mutating `%s`)" a.a_head)
              arg)
          (mutated_args summaries prog a slots_of))
    f.f_apps;
  List.iter
    (fun (k, loc) ->
      match Hashtbl.find_opt prog.globals k with
      | Some g when Option.is_some g.g_ctor ->
        fin loc "global-read" k
          (Printf.sprintf
             "parallel scope reads mutable global `%s` without \
              synchronisation" k)
      | _ -> ())
    f.f_refs

(* {1 R9 — hot-path allocation} *)

let r9_hint =
  "keep the fast path allocation-free: hoist or precompute, or mark \
   an audited slow path with [@ltree.cold]"

(* Walk one fast-path expression, reporting allocation events and
   project calls.  [@ltree.cold] expressions/bindings, raise-like
   subtrees and asserts are skipped; nested function bodies are
   skipped too (they are nodes of their own, reached via may-alloc
   summaries at their call sites). *)
let scan_alloc cfg (uc : uctx) body ~emit ~call =
  let rec walk sub (e : Typedtree.expression) =
    if attr_present cfg.cold_attr e.exp_attributes then ()
    else
      match e.exp_desc with
      | Typedtree.Texp_function _ ->
        emit e.exp_loc "closure allocation"
      | Typedtree.Texp_let (_, vbs, cont) ->
        List.iter
          (fun (vb : Typedtree.value_binding) ->
            if attr_present cfg.cold_attr vb.vb_attributes then ()
            else if is_function vb.vb_expr then
              let name =
                match binding_ident vb.vb_pat with
                | Some id -> Ident.name id
                | None -> "_"
              in
              emit vb.vb_loc
                (Printf.sprintf "closure allocation for local `%s`" name)
            else walk sub vb.vb_expr)
          vbs;
        walk sub cont
      | Typedtree.Texp_apply
          ({ exp_desc = Typedtree.Texp_ident (p, _, _); _ }, args) ->
        let h = path_key uc p in
        if List.exists (String.equal h) cfg.raise_like then ()
        else begin
          if
            List.exists (String.equal h) cfg.alloc_calls
            || List.exists
                 (fun pre -> has_prefix ~prefix:pre h)
                 cfg.alloc_call_prefixes
          then emit e.exp_loc (Printf.sprintf "allocating call to `%s`" h)
          else if List.exists (String.equal h) cfg.float_ops then
            emit e.exp_loc (Printf.sprintf "boxed float from `%s`" h)
          else call h e.exp_loc;
          List.iter
            (fun (_, a) -> match a with Some a -> walk sub a | None -> ())
            args
        end
      | Typedtree.Texp_assert _ -> ()
      | Typedtree.Texp_tuple _ ->
        emit e.exp_loc "tuple allocation";
        Tast_iterator.default_iterator.expr sub e
      | Typedtree.Texp_construct (_, cd, _ :: _) ->
        emit e.exp_loc
          (Printf.sprintf "constructor allocation `%s`" cd.cstr_name);
        Tast_iterator.default_iterator.expr sub e
      | Typedtree.Texp_record _ ->
        emit e.exp_loc "record allocation";
        Tast_iterator.default_iterator.expr sub e
      | Typedtree.Texp_array (_ :: _) ->
        emit e.exp_loc "array literal allocation";
        Tast_iterator.default_iterator.expr sub e
      | Typedtree.Texp_variant (_, Some _) ->
        emit e.exp_loc "polymorphic variant allocation";
        Tast_iterator.default_iterator.expr sub e
      | Typedtree.Texp_lazy _ -> emit e.exp_loc "lazy allocation"
      | _ -> Tast_iterator.default_iterator.expr sub e
  in
  let it = { Tast_iterator.default_iterator with expr = walk } in
  (* peel the curried spine: its [fun] chain is the calling convention,
     not an allocation *)
  let rec leaves (e : Typedtree.expression) =
    match e.exp_desc with
    | Typedtree.Texp_function { cases; _ } ->
      List.iter (fun (c : Typedtree.value Typedtree.case) -> leaves c.c_rhs) cases
    | _ -> it.expr it e
  in
  leaves body

let scan_node cfg (n : node) =
  let events = ref [] and calls = ref [] in
  scan_alloc cfg n.n_uc n.n_body
    ~emit:(fun loc msg -> events := (loc, msg) :: !events)
    ~call:(fun h loc -> calls := (h, loc) :: !calls);
  (List.rev !events, List.rev !calls)

let compute_may_alloc cfg prog =
  let scans : (string, (Location.t * string) list * (string * Location.t) list) Hashtbl.t =
    Hashtbl.create 64
  in
  Hashtbl.iter
    (fun key n -> Hashtbl.replace scans key (scan_node cfg n))
    prog.nodes;
  let may : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  Hashtbl.iter
    (fun key (events, _) ->
      if events <> [] then Hashtbl.replace may key ())
    scans;
  let pass () =
    let changed = ref false in
    Hashtbl.iter
      (fun key (_, calls) ->
        if
          (not (Hashtbl.mem may key))
          && List.exists (fun (h, _) -> Hashtbl.mem may h) calls
        then begin
          Hashtbl.replace may key ();
          changed := true
        end)
      scans;
    !changed
  in
  let rec fix n = if pass () && n > 0 then fix (n - 1) in
  fix 50;
  (scans, may)

let check_hot prog scans may out =
  Hashtbl.iter
    (fun key (n : node) ->
      if n.n_hot then begin
        let events, calls =
          match Hashtbl.find_opt scans key with
          | Some s -> s
          | None -> ([], [])
        in
        let fin loc message detail =
          let line, col = pos_of loc in
          out :=
            {
              rule = "R9"; file = n.n_uc.uc_file; line; col; func = key;
              message; hint = r9_hint;
              fingerprint = String.concat "|" [ "R9"; key; detail ];
            }
            :: !out
        in
        List.iter
          (fun (loc, msg) ->
            fin loc (Printf.sprintf "[@ltree.hot] fast path: %s" msg) msg)
          events;
        List.iter
          (fun (h, loc) ->
            if Hashtbl.mem may h then
              fin loc
                (Printf.sprintf
                   "[@ltree.hot] fast path calls `%s`, which may allocate"
                   h)
                (Printf.sprintf "calls %s" h))
          calls
      end)
    prog.nodes

(* {1 R1-R7 — per-unit rules}

   R1-R6 walk one unit's Typedtree and apply only to units whose source
   path is in their scope; R7 reads the program model's top-level
   bindings.  Paths resolve through [path_key] with an empty stamp
   table, so [Obj.magic] reads "Stdlib.Obj.magic" however it was
   spelled. *)

let finding_at ~rule ~file ~func ~loc ~message ~hint =
  let line, col = pos_of loc in
  {
    rule; file; line; col; func; message; hint;
    fingerprint = Printf.sprintf "%s|%s:%d:%d" rule file line col;
  }

let unit_finding ~rule (u : unit_info) ~loc ~message ~hint =
  finding_at ~rule ~file:u.u_file ~func:u.u_name ~loc ~message ~hint

let iter_expr f =
  let expr sub (e : Typedtree.expression) =
    f e;
    Tast_iterator.default_iterator.expr sub e
  in
  { Tast_iterator.default_iterator with expr }

(* R1 *)
let check_obj uc u out =
  let is_obj p =
    let k = path_key uc p in
    String.equal k "Stdlib.Obj" || has_prefix ~prefix:"Stdlib.Obj." k
  in
  let flag loc p =
    out :=
      unit_finding ~rule:"R1" u ~loc
        ~message:(Printf.sprintf "use of %s" (path_key uc p))
        ~hint:"Obj defeats the type system; use a typed representation \
               instead"
      :: !out
  in
  let expr sub (e : Typedtree.expression) =
    (match e.exp_desc with
    | Typedtree.Texp_ident (p, _, _) when is_obj p -> flag e.exp_loc p
    | _ -> ());
    Tast_iterator.default_iterator.expr sub e
  in
  let module_expr sub (m : Typedtree.module_expr) =
    (match m.mod_desc with
    | Typedtree.Tmod_ident (p, _) when is_obj p -> flag m.mod_loc p
    | _ -> ());
    Tast_iterator.default_iterator.module_expr sub m
  in
  let typ sub (t : Typedtree.core_type) =
    (match t.ctyp_desc with
    | Typedtree.Ttyp_constr (p, _, _) when is_obj p -> flag t.ctyp_loc p
    | _ -> ());
    Tast_iterator.default_iterator.typ sub t
  in
  let it = { Tast_iterator.default_iterator with expr; module_expr; typ } in
  it.structure it u.u_str

(* R2.  The comparison primitives the compiler specializes by operand
   type ([Translprim.specialize_primitive]); anything it cannot
   specialize runs the generic [caml_compare] family. *)
let compare_prims =
  [
    "%equal"; "%notequal"; "%lessthan"; "%greaterthan"; "%lessequal";
    "%greaterequal"; "%compare";
  ]

let never_specialized = [ "Stdlib.min"; "Stdlib.max" ]

let specializing_types =
  Predef.
    [
      path_int; path_char; path_bool; path_unit; path_float; path_string;
      path_bytes; path_nativeint; path_int32; path_int64;
    ]

(* Does a comparison whose first operand has type [ty] compile to the
   generic compare?  Predefined base types answer without an
   environment; anything else is scraped exactly as the compiler does. *)
let generic_at env_of env ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, [], _)
    when List.exists (Path.same p) specializing_types -> false
  | _ ->
    let env = env_of env in
    not
      (List.exists (Typeopt.is_base_type env ty) specializing_types
      || Typeopt.maybe_pointer_type env ty = Lambda.Immediate)

let first_param ty =
  match Types.get_desc ty with
  | Types.Tarrow (_, p1, _, _) -> Some p1
  | _ -> None

let is_const_arg (e : Typedtree.expression) =
  match e.exp_desc with
  | Typedtree.Texp_construct (_, { cstr_tag = Types.Cstr_constant _; _ }, _)
  | Typedtree.Texp_variant (_, None) ->
    true
  | _ -> false

let r2_hint =
  "compare at a base type (annotate the operands), or use Int.equal/\
   Int.compare/String.equal/Float.compare/List.equal; use Int.min/Int.max \
   instead of min/max"

let check_compare ~env_of uc u out =
  (* local aliases of comparisons (a prelude's [let ( = ) = ...]): a use
     runs whatever its definition compiled to *)
  let aliases : (string, bool) Hashtbl.t = Hashtbl.create 8 in
  (* [Some generic] for a comparison ident, [None] for anything else *)
  let verdict ~const_arg (e : Typedtree.expression) =
    match e.exp_desc with
    | Typedtree.Texp_ident (p, _, vd) -> (
      match (p, vd.val_kind) with
      | _, Types.Val_prim prim
        when List.mem prim.Primitive.prim_name compare_prims ->
        let eq =
          List.mem prim.Primitive.prim_name [ "%equal"; "%notequal" ]
        in
        Some
          ((not (eq && const_arg))
          &&
          match first_param e.exp_type with
          | Some ty -> generic_at env_of e.exp_env ty
          | None -> true)
      | Path.Pident id, _ -> Hashtbl.find_opt aliases (Ident.unique_name id)
      | _ ->
        if List.mem (path_key uc p) never_specialized then Some true
        else None)
    | _ -> None
  in
  let collect =
    let value_binding sub (vb : Typedtree.value_binding) =
      (match binding_ident vb.vb_pat with
      | Some id -> (
        match verdict ~const_arg:false vb.vb_expr with
        | Some g -> Hashtbl.replace aliases (Ident.unique_name id) g
        | None -> ())
      | None -> ());
      Tast_iterator.default_iterator.value_binding sub vb
    in
    { Tast_iterator.default_iterator with value_binding }
  in
  collect.structure collect u.u_str;
  let flag (e : Typedtree.expression) =
    match e.exp_desc with
    | Typedtree.Texp_ident (p, _, _) ->
      let name = strip_stdlib (path_key uc p) in
      let at =
        match first_param e.exp_type with
        | Some ty -> Format.asprintf " at type %a" Printtyp.type_expr ty
        | None -> ""
      in
      out :=
        unit_finding ~rule:"R2" u ~loc:e.exp_loc
          ~message:
            (Printf.sprintf "generic comparison `%s`%s in lib/" name at)
          ~hint:r2_hint
        :: !out
    | _ -> ()
  in
  let expr sub (e : Typedtree.expression) =
    match e.exp_desc with
    | Typedtree.Texp_apply
        ( ({ exp_desc = Typedtree.Texp_ident _; _ } as head),
          [ (_, Some a); (_, Some b) ] ) ->
      if verdict ~const_arg:(is_const_arg a || is_const_arg b) head
         = Some true
      then flag head;
      sub.Tast_iterator.expr sub a;
      sub.Tast_iterator.expr sub b
    | _ ->
      if verdict ~const_arg:false e = Some true then flag e;
      Tast_iterator.default_iterator.expr sub e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.structure it u.u_str

(* R2, keyed lookups.  The generic [Hashtbl] and the association-list
   functions compare keys with the generic [caml_compare] (and hash them
   with [caml_hash]) whatever the key type; at an immediate key type a
   specialized table or a dense column does the same job without either. *)
let keyed_lookups =
  [
    "Stdlib.Hashtbl.find"; "Stdlib.Hashtbl.find_opt"; "Stdlib.Hashtbl.replace";
    "Stdlib.Hashtbl.add"; "Stdlib.Hashtbl.mem"; "Stdlib.Hashtbl.remove";
    "Stdlib.List.assoc"; "Stdlib.List.mem_assoc"; "Stdlib.List.mem";
  ]

let immediate_types = Predef.[ path_int; path_char; path_bool; path_unit ]

let keyed_hint =
  "key int-keyed tables with Ltree_metrics.Int_tbl (same hash, so the same \
   iteration order), index a column when keys are dense, or scan with \
   List.exists/List.find_opt and Int.equal"

let check_keyed ~env_of uc u out =
  let key_type name ty =
    match first_param ty with
    | None -> None
    | Some p ->
      if has_prefix ~prefix:"Stdlib.Hashtbl." name then
        match Types.get_desc p with
        | Types.Tconstr (_, k :: _, _) -> Some k
        | _ -> None
      else Some p
  in
  let immediate env ty =
    match Types.get_desc ty with
    | Types.Tconstr (p, [], _) when List.exists (Path.same p) immediate_types
      ->
      true
    | Types.Tvar _ -> false
    | _ -> Typeopt.maybe_pointer_type (env_of env) ty = Lambda.Immediate
  in
  let it =
    iter_expr (fun e ->
        match e.exp_desc with
        | Typedtree.Texp_ident (p, _, _) -> (
          let name = path_key uc p in
          if List.mem name keyed_lookups then
            match key_type name e.exp_type with
            | Some k when immediate e.exp_env k ->
              out :=
                unit_finding ~rule:"R2" u ~loc:e.exp_loc
                  ~message:
                    (Format.asprintf
                       "generic `%s` at immediate key type %a in lib/"
                       (strip_stdlib name) Printtyp.type_expr k)
                  ~hint:keyed_hint
                :: !out
            | Some _ | None -> ())
        | _ -> ())
  in
  it.structure it u.u_str

(* R3 *)
let check_catchall u out =
  let rec wild : type k. k Typedtree.general_pattern -> bool =
   fun p ->
    match p.pat_desc with
    | Typedtree.Tpat_any -> true
    | Typedtree.Tpat_or (a, b, _) -> wild a || wild b
    | Typedtree.Tpat_alias (p, _, _) -> wild p
    | _ -> false
  in
  let it =
    iter_expr (fun e ->
        match e.exp_desc with
        | Typedtree.Texp_try (_, cases) ->
          List.iter
            (fun (c : Typedtree.value Typedtree.case) ->
              if wild c.c_lhs && Option.is_none c.c_guard then
                out :=
                  unit_finding ~rule:"R3" u ~loc:c.c_lhs.pat_loc
                    ~message:"catch-all exception handler swallows failures"
                    ~hint:
                      "match the specific exceptions you expect; a \
                       blanket handler hides invariant violations and \
                       asynchronous exceptions"
                  :: !out)
            cases
        | _ -> ())
  in
  it.structure it u.u_str

(* R4 *)
let print_calls =
  [
    "print_string"; "print_endline"; "print_newline"; "print_int";
    "print_char"; "print_float"; "print_bytes"; "prerr_string";
    "prerr_endline"; "prerr_newline"; "prerr_int"; "prerr_char";
    "prerr_float"; "prerr_bytes"; "Printf.printf"; "Printf.eprintf";
    "Format.printf"; "Format.eprintf"; "Format.print_string";
    "Format.print_newline";
  ]

let check_print uc u out =
  let it =
    iter_expr (fun e ->
        match e.exp_desc with
        | Typedtree.Texp_ident (p, _, _) ->
          let name = strip_stdlib (path_key uc p) in
          if List.mem name print_calls then
            out :=
              unit_finding ~rule:"R4" u ~loc:e.exp_loc
                ~message:(Printf.sprintf "console output (%s) in lib/" name)
                ~hint:
                  "library code must not print; return data and let bin/ \
                   or bench/ render it via Ltree_metrics.Table"
              :: !out
        | _ -> ())
  in
  it.structure it u.u_str

(* R5.  An identifier or record field named [radix] or [m] is the
   signature of computing radix^h / m^h by hand. *)
let mentions_power_base (e : Typedtree.expression) =
  let found = ref false in
  let hits s = String.equal s "radix" || String.equal s "m" in
  let it =
    iter_expr (fun e ->
        match e.exp_desc with
        | Typedtree.Texp_ident (Path.Pident id, _, _) when hits (Ident.name id)
          ->
          found := true
        | Typedtree.Texp_field (_, _, lbl) when hits lbl.lbl_name ->
          found := true
        | _ -> ())
  in
  it.expr it e;
  !found

let check_arith cfg uc u out =
  let exempt =
    List.filter_map
      (fun (p, b) -> if String.equal p u.u_file then Some b else None)
      cfg.arith_allow
  in
  let it =
    iter_expr (fun e ->
        match e.exp_desc with
        | Typedtree.Texp_apply
            ( { exp_desc = Typedtree.Texp_ident (p, _, _); exp_loc; _ },
              [ (_, Some a); (_, Some b) ] ) ->
          let op = strip_stdlib (path_key uc p) in
          if
            (String.equal op "*" || String.equal op "lsl")
            && (mentions_power_base a || mentions_power_base b)
          then
            out :=
              unit_finding ~rule:"R5" u ~loc:exp_loc
                ~message:
                  (Printf.sprintf
                     "raw %s involving radix/m in label arithmetic" op)
                ~hint:
                  "go through Params.pow_radix / Params.pow_m: they raise \
                   Label_overflow instead of silently wrapping"
              :: !out
        | _ -> ())
  in
  let names (vb : Typedtree.value_binding) =
    List.map Ident.name (Typedtree.pat_bound_idents vb.vb_pat)
  in
  if not (List.mem "*" exempt) then
    List.iter
      (fun (item : Typedtree.structure_item) ->
        match item.str_desc with
        | Typedtree.Tstr_value (_, vbs)
          when List.exists
                 (fun vb -> List.exists (fun n -> List.mem n exempt) (names vb))
                 vbs ->
          ()  (* the checked helper's own body *)
        | _ -> it.structure_item it item)
      u.u_str.str_items

(* R6 *)
let check_interface u out =
  if Option.is_none u.u_sig then
    out :=
      {
        rule = "R6"; file = u.u_file; line = 1; col = 0; func = u.u_name;
        message = "library module has no interface file";
        hint =
          "add a .mli: every lib/ module must state its contract (and hide \
           its internals)";
        fingerprint = "R6|" ^ u.u_file;
      }
      :: !out

(* R7, over the program model: every top-level binding (nested modules
   included) of a [lib/] unit whose RHS applies a mutable constructor.
   [global_allow] suppresses audited ones. *)
let check_globals prog =
  Hashtbl.fold
    (fun _ g acc ->
      match g.g_ctor with
      | Some ctor ->
        let name = last_segment g.g_key in
        finding_at ~rule:"R7" ~file:g.g_file ~func:g.g_key ~loc:g.g_loc
          ~message:
            (Printf.sprintf "top-level mutable global `%s` (%s) in lib/" name
               ctor)
          ~hint:
            "shared mutable state breaks domain-safety; make it \
             per-instance, use Atomic/Mutex-guarded state, or allowlist it \
             in global_allow after an audit"
        :: acc
      | None -> acc)
    prog.globals []

(* The environment rebuild for one unit's R2 checks.  A .cmt stores its
   environments as summaries; they are rebuilt against the unit's own
   load path.  The caches are reset whenever that path changes, since
   two executables' directories may hold different modules of one name. *)
let env_rebuilder ~loaded u =
  match u.u_loadpath with
  | None -> Fun.id
  | Some dirs ->
    if not (List.equal String.equal !loaded dirs) then begin
      Load_path.init ~auto_include:Load_path.no_auto_include dirs;
      Env.reset_cache ();
      Envaux.reset_cache ();
      loaded := dirs
    end;
    fun env ->
      match Envaux.env_of_only_summary env with
      | env -> env
      | exception Envaux.Error _ -> env

(* R1-R6 over one unit, each within its scope ([loaded]: the load path
   the environment caches currently hold). *)
let check_unit cfg ~loaded u =
  let uc =
    { uc_unit = u.u_name; uc_file = u.u_file; uc_stamps = Hashtbl.create 1 }
  in
  let out = ref [] in
  let under prefix = has_prefix ~prefix u.u_file in
  let in_lib = under cfg.lib_prefix in
  check_obj uc u out;
  check_catchall u out;
  if in_lib then begin
    let env_of = env_rebuilder ~loaded u in
    check_compare ~env_of uc u out;
    check_keyed ~env_of uc u out;
    if not (List.mem u.u_file cfg.print_allow) then check_print uc u out;
    check_interface u out
  end;
  if under cfg.core_prefix then check_arith cfg uc u out;
  !out

(* {1 Driver} *)

let dedup_findings fs =
  let seen : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  List.filter
    (fun f ->
      if Hashtbl.mem seen f.fingerprint then false
      else begin
        Hashtbl.replace seen f.fingerprint ();
        true
      end)
    fs

let sort_findings fs =
  List.sort
    (fun a b ->
      let c = String.compare a.file b.file in
      if c <> 0 then c
      else
        let c = compare a.line b.line in
        if c <> 0 then c
        else
          let c = String.compare a.rule b.rule in
          if c <> 0 then c else String.compare a.fingerprint b.fingerprint)
    fs

(* R11, over the whole program: a value a [lib/] interface declares that
   no other unit references.  References are every [Texp_ident] of every
   unit passed as [users], resolved through [path_key] after the unit's
   own top-level bindings and module aliases (local ones included) are
   stamped, so [Accountant.note] under [module Accountant =
   Ltree_obs.Accountant] reads "Ltree_obs.Accountant.note".  Only the
   interface's own top-level [val]s are exports: items an [include S]
   brings in, and values inside functor results, are not checked. *)

let test_prefix = "test/"

let unit_refs cfg u =
  let uc =
    { uc_unit = u.u_name; uc_file = u.u_file; uc_stamps = Hashtbl.create 64 }
  in
  register_structure cfg
    { nodes = Hashtbl.create 64; globals = Hashtbl.create 16 }
    uc ~prefix:u.u_name u.u_str;
  let refs : (string, unit) Hashtbl.t = Hashtbl.create 256 in
  let rec alias id (m : Typedtree.module_expr) =
    match m.mod_desc with
    | Typedtree.Tmod_constraint (m, _, _, _) -> alias id m
    | Typedtree.Tmod_ident (p, _) ->
      Hashtbl.replace uc.uc_stamps (Ident.unique_name id) (path_key uc p)
    | _ -> ()
  in
  let expr sub (e : Typedtree.expression) =
    (match e.exp_desc with
    | Typedtree.Texp_ident (p, _, _) -> Hashtbl.replace refs (path_key uc p) ()
    | Typedtree.Texp_letmodule (Some id, _, _, m, _) -> alias id m
    | _ -> ());
    Tast_iterator.default_iterator.expr sub e
  in
  let module_binding sub (mb : Typedtree.module_binding) =
    Option.iter (fun id -> alias id mb.mb_expr) mb.mb_id;
    Tast_iterator.default_iterator.module_binding sub mb
  in
  let it = { Tast_iterator.default_iterator with expr; module_binding } in
  it.structure it u.u_str;
  refs

(* The top-level [val]s of the [lib/] interfaces among [units]. *)
let exports cfg units =
  List.concat_map
    (fun u ->
      match u.u_sig with
      | Some sg when has_prefix ~prefix:cfg.lib_prefix u.u_file ->
        List.filter_map
          (fun (item : Typedtree.signature_item) ->
            match item.sig_desc with
            | Typedtree.Tsig_value vd -> Some (u, vd)
            | _ -> None)
          sg.sig_items
      | _ -> [])
    units

(* [(dead, test_only)]: R11 findings, and the exports referenced from
   [test/] units alone (reported, never failing). *)
let unused_exports ?users cfg units =
  let refs =
    List.map (fun u -> (u, unit_refs cfg u)) (Option.value users ~default:units)
  in
  let classify (u, (vd : Typedtree.value_description)) =
    let key = u.u_name ^ "." ^ Ident.name vd.val_id in
    let users =
      List.filter_map
        (fun (v, r) -> if Hashtbl.mem r key then Some v else None)
        refs
    in
    let others =
      List.filter (fun v -> not (String.equal v.u_name u.u_name)) users
    in
    let finding message hint =
      let line, col = pos_of vd.val_loc in
      {
        rule = "R11"; file = Filename.remove_extension u.u_file ^ ".mli"; line;
        col; func = key; message; hint; fingerprint = "R11|" ^ key;
      }
    in
    match others with
    | [] when users = [] ->
      Some
        (Either.Left
           (finding
              (Printf.sprintf "`%s` is exported but used nowhere" key)
              "delete it: the val, its doc comment and its body"))
    | [] ->
      Some
        (Either.Left
           (finding
              (Printf.sprintf
                 "`%s` is exported but used only inside its own unit" key)
              "delete the val and its doc comment from the .mli"))
    | _
      when List.for_all
             (fun v -> has_prefix ~prefix:test_prefix v.u_file)
             others ->
      let files =
        List.sort_uniq String.compare (List.map (fun v -> v.u_file) others)
      in
      Some
        (Either.Right
           (finding
              (Printf.sprintf "`%s` is used only from %s" key
                 (String.concat ", " files))
              "keep it only if it is an invariant check, an oracle or a test \
               printer; otherwise delete it with its tests"))
    | _ -> None
  in
  let dead, test_only =
    List.partition_map Fun.id (List.filter_map classify (exports cfg units))
  in
  (sort_findings dead, sort_findings test_only)

(* {1 Allowlists and their hygiene}

   [race_allow] (R8) and [global_allow] (R7) are one mechanism: an entry
   suppresses the findings it matches, A1 flags an entry that suppresses
   nothing (the code it audited is gone) and A2 one whose audit note
   does not cite DESIGN.md. *)

type allow = {
  al_list : string;  (* "race_allow" | "global_allow" *)
  al_entry : string;
  al_note : string;
  al_matches : finding -> bool;
}

let allowlists cfg =
  List.map
    (fun (pat, note) ->
      {
        al_list = "race_allow"; al_entry = pat; al_note = note;
        al_matches =
          (fun f -> String.equal f.rule "R8" && pattern_matches pat f.func);
      })
    cfg.race_allow
  @ List.map
      (fun (path, name, note) ->
        {
          al_list = "global_allow"; al_entry = path ^ ":" ^ name;
          al_note = note;
          al_matches =
            (fun f ->
              String.equal f.rule "R7" && String.equal f.file path
              && (String.equal name "*"
                 || String.equal name (last_segment f.func)));
        })
      cfg.global_allow

let contains ~sub s =
  let n = String.length s and p = String.length sub in
  let rec at i =
    i + p <= n && (String.equal (String.sub s i p) sub || at (i + 1))
  in
  at 0

let apply_allowlists allows findings =
  let used = Hashtbl.create 16 in
  let kept =
    List.filter
      (fun f ->
        match List.find_opt (fun a -> a.al_matches f) allows with
        | Some a ->
          Hashtbl.replace used (a.al_list, a.al_entry) ();
          false
        | None -> true)
      findings
  in
  let hygiene a =
    let finding rule message hint =
      {
        rule; file = "(" ^ a.al_list ^ ")"; line = 0; col = 0;
        func = a.al_entry; message; hint;
        fingerprint = rule ^ "|" ^ a.al_entry;
      }
    in
    (if Hashtbl.mem used (a.al_list, a.al_entry) then []
     else
       [
         finding "A1"
           (Printf.sprintf
              "stale %s entry `%s`: it no longer suppresses any finding"
              a.al_list a.al_entry)
           "delete the entry (the code it audited is gone)";
       ])
    @
    if contains ~sub:"DESIGN.md" a.al_note then []
    else
      [
        finding "A2"
          (Printf.sprintf
             "%s entry `%s` has no DESIGN.md cross-reference in its audit \
              note"
             a.al_list a.al_entry)
          "cite the DESIGN.md section that audits this entry";
      ]
  in
  (kept, List.concat_map hygiene allows)

(* [(failing, test_only)]: every failing finding over [units], and
   R11's non-failing test-only exports; R11 counts references from
   [users] (default: [units] themselves). *)
let analyze ?users cfg units =
  (* R8/R9 model the library only: bin/ and bench/ reach the pool through
     lib/ entry points, and [Pool.with_pool]'s caller-side closure would
     read as a parallel scope *)
  let prog =
    build_program cfg
      (List.filter (fun u -> has_prefix ~prefix:cfg.lib_prefix u.u_file) units)
  in
  let facts_tbl : (string, facts) Hashtbl.t = Hashtbl.create 128 in
  let factsof key =
    match Hashtbl.find_opt facts_tbl key with
    | Some f -> f
    | None ->
      let n = Hashtbl.find prog.nodes key in
      let f = collect_facts n.n_uc n.n_body in
      Hashtbl.replace facts_tbl key f;
      f
  in
  let summaries, slots_of = compute_summaries prog factsof in
  let spawning = compute_spawning cfg prog factsof in
  let tainted, closure_scopes = compute_tainted cfg prog factsof spawning in
  let raw = ref [] in
  List.iter
    (fun (owner, uc, f) ->
      check_scope cfg prog summaries slots_of ~owner uc f raw)
    closure_scopes;
  (* A tainted node whose ancestor node is tainted too is covered by
     the ancestor's subtree analysis: everything the ancestor binds is
     per-task state, so the nested function's writes to it are
     domain-private.  Only the outermost tainted nodes are analyzed as
     scopes of their own (spawn-boundary closures always are). *)
  Hashtbl.iter
    (fun key () ->
      let covered =
        Hashtbl.fold
          (fun k () acc ->
            acc || ((not (String.equal k key)) && under_module k key))
          tainted false
      in
      if not covered then
        let n = Hashtbl.find prog.nodes key in
        check_scope cfg prog summaries slots_of ~owner:key n.n_uc
          (factsof key) raw)
    tainted;
  (* a read finding is subsumed by a write finding on the same state *)
  let r8 = dedup_findings (sort_findings !raw) in
  let writes : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun f ->
      match String.split_on_char '|' f.fingerprint with
      | [ "R8"; owner; kind; target ] when kind <> "global-read" ->
        Hashtbl.replace writes (owner ^ "|" ^ target) ()
      | _ -> ())
    r8;
  let r8 =
    List.filter
      (fun f ->
        match String.split_on_char '|' f.fingerprint with
        | [ "R8"; owner; "global-read"; target ] ->
          not (Hashtbl.mem writes (owner ^ "|" ^ target))
        | _ -> true)
      r8
  in
  (* R9 *)
  let scans, may = compute_may_alloc cfg prog in
  let r9 = ref [] in
  check_hot prog scans may r9;
  let r9 = dedup_findings (sort_findings !r9) in
  let units_findings =
    let loaded = ref [] in
    List.concat_map (check_unit cfg ~loaded) units
  in
  let kept, hygiene =
    apply_allowlists (allowlists cfg)
      (units_findings @ check_globals prog @ r8)
  in
  let r11, test_only = unused_exports ?users cfg units in
  (sort_findings (kept @ r9 @ hygiene @ r11), test_only)

(* {1 Reporting} *)

let pp_finding ppf f =
  Format.fprintf ppf "%s:%d:%d: [%s] %s@,  %s@,  hint: %s" f.file f.line
    f.col f.rule f.func f.message f.hint

let rule_ids () =
  [
    ("R1", "no Obj.* anywhere");
    ("R2", "no comparison in lib/ that falls back to the generic compare");
    ("R3", "no exception-swallowing try ... with _ ->");
    ("R4", "no Printf.printf/print_* in lib/");
    ("R5", "raw * / lsl on radix/m in lib/core must use Params.pow_*");
    ("R6", "every lib/**/X.ml has a matching X.mli");
    ("R7", "no top-level ref/Hashtbl/mutable globals in lib/");
    ("R8", "no unmediated mutable-state access in parallel scopes");
    ("R9", "no allocation on [@ltree.hot] fast paths");
    ("R11", "every val a lib/ .mli declares is used by another unit");
    ("A1", "race_allow/global_allow entries must still suppress a finding");
    ("A2", "race_allow/global_allow entries must cite DESIGN.md");
  ]
