module Fault = Ltree_recovery.Fault
module Durable_doc = Ltree_recovery.Durable_doc
module Crash_matrix = Ltree_recovery.Crash_matrix
module Matrix = Ltree_recovery.Matrix

(* Monomorphic comparison prelude (lint rule R2). *)
let ( = ) : int -> int -> bool = Stdlib.( = )
let ( <> ) : int -> int -> bool = Stdlib.( <> )
let ( < ) : int -> int -> bool = Stdlib.( < )
let ( > ) : int -> int -> bool = Stdlib.( > )
let ( <= ) : int -> int -> bool = Stdlib.( <= )
let ( >= ) : int -> int -> bool = Stdlib.( >= )

(* The shard-level crash matrix, an instance of {!Matrix}: run the whole
   sharded stack, kill exactly {e one} shard's disk at every one of its
   write points in every damage mode, recover that shard {e alone} from
   its surviving files, and verify the whole document:

   - the recovered shard passes {!Matrix.verify_prefix} against its
     local oracle at the durable prefix, and the durable prefix lies in
     [[synced_j, attempted_j]] for that shard;
   - every {e other} shard still sits at its full applied local prefix
     (a crash is contained: one shard's disk damage never touches a
     sibling's store);
   - the router twin sits exactly at the global prefix of operations
     whose owning-shard commit completed — so recovered shard + live
     siblings + router compose back into the global oracle's document.

   Everything derives from [config.matrix.seed]: the same global script
   as {!Crash_matrix.generate_script} (global anchors route through the
   sharded store unchanged), per-shard local scripts learned from a
   clean profile run, per-shard write points learned from each shard's
   own fault sim. *)

type config = { matrix : Matrix.config; shards : int }

let default_config =
  { matrix =
      { Matrix.seed = 42; ops = 120; doc_nodes = 100; group_commit = 4;
        checkpoint_every = 24 };
    shards = 3 }

let store_dir = "store"

(* {1 Profile pass}

   One clean run of the whole sharded workload: learns each shard's
   write-point count, how many points its initialization consumed, and
   its local script (via the local-entry hook).  The local script,
   replayed on a pristine copy of the shard's initial document, is the
   shard's oracle. *)

type shard_profile = {
  init_points : int;
  total_points : int;
  oracle : Matrix.oracle;  (** over the shard's local script *)
}

let build_sharded ?sim_for config =
  Sharded_doc.create ~group_commit:config.matrix.Matrix.group_commit ?sim_for
    ~shards:config.shards
    (Crash_matrix.base_doc config.matrix)

let drive ?on_op ?on_checkpoint config script sdoc =
  List.iteri
    (fun i entry ->
      Sharded_doc.apply sdoc entry;
      (match on_op with None -> () | Some f -> f (i + 1));
      if (i + 1) mod config.matrix.Matrix.checkpoint_every = 0 then begin
        Sharded_doc.checkpoint sdoc;
        match on_checkpoint with None -> () | Some f -> f ()
      end)
    script;
  Sharded_doc.sync sdoc

let profile config script =
  let sdoc = build_sharded config in
  let init_points =
    Array.init config.shards (fun j -> Fault.points (Sharded_doc.shard_sim sdoc j))
  in
  let locals = Array.make config.shards [] in
  Sharded_doc.set_local_entry_hook sdoc
    (Some (fun sid e -> locals.(sid) <- e :: locals.(sid)));
  drive config script sdoc;
  let pristine = build_sharded config in
  Array.init config.shards (fun j ->
      { init_points = init_points.(j);
        total_points = Fault.points (Sharded_doc.shard_sim sdoc j);
        oracle =
          Matrix.build_oracle (Sharded_doc.shard_ldoc pristine j)
            (List.rev locals.(j)) })

(* {1 Results} *)

type id = int * int * Fault.mode

type outcome =
  | Recovered of {
      durable_seq : int;
      attempted : int;  (** local ops the shard started before the crash *)
      synced : int;  (** last known-durable local seq before the crash *)
      fault_kinds : string list;
    }
  | Unrecoverable of { fault_kinds : string list }

let cell_name (shard, point, mode) =
  Printf.sprintf "S%d/%s" shard (Matrix.coord_name 'P' point mode)

let parse_cell s =
  match String.index_opt s '/' with
  | None -> None
  | Some slash when slash >= 1 && Char.equal s.[0] 'S' -> (
    let rest = String.sub s (slash + 1) (String.length s - slash - 1) in
    match
      ( Matrix.parse_nat (String.sub s 1 (slash - 1)),
        Matrix.parse_coord 'P' rest )
    with
    | Some shard, Some (point, mode) -> Some (shard, point, mode)
    | _ -> None)
  | Some _ -> None

type summary = {
  config : config;
  total_points : int array;
  init_points : int array;
  sweep : (id, outcome) Matrix.sweep;
}

(* {1 One cell} *)

type cell_state = {
  mutable attempted : int;  (** local ops started on the armed shard *)
  mutable synced : int;  (** its last known-durable local seq *)
  mutable applied_global : int;  (** global ops whose apply completed *)
  per_shard_applied : int array;  (** local ops begun, per sid *)
}

let eval_cell config script (profiles : shard_profile array) global_oracle
    (j, point, mode) =
  let plan =
    { Fault.crash_point = point; mode; seed = config.matrix.Matrix.seed }
  in
  let armed = Fault.create_sim ~plan () in
  let sim_for sid = if sid = j then armed else Fault.create_sim () in
  let state =
    { attempted = 0; synced = 0; applied_global = 0;
      per_shard_applied = Array.make config.shards 0 }
  in
  let sdoc_ref = ref None in
  let crashed =
    match
      let sdoc = build_sharded ~sim_for config in
      sdoc_ref := Some sdoc;
      Sharded_doc.set_local_entry_hook sdoc
        (Some
           (fun sid _e ->
             state.per_shard_applied.(sid) <-
               state.per_shard_applied.(sid) + 1;
             if sid = j then state.attempted <- state.attempted + 1));
      let durable = Sharded_doc.shard_durable sdoc j in
      drive config script sdoc
        ~on_op:(fun n ->
          state.applied_global <- n;
          state.synced <-
            Durable_doc.last_seq durable - Durable_doc.pending durable)
        ~on_checkpoint:(fun () ->
          state.synced <- Durable_doc.last_seq durable)
    with
    | () -> false
    | exception Fault.Crash _ -> true
  in
  let rsim = Fault.create_sim ~files:(Fault.dump armed) () in
  let io = Fault.sim_io rsim in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  if not crashed then fail "workload did not crash at an in-range point";
  let outcome =
    match
      Durable_doc.recover ~io ~group_commit:config.matrix.Matrix.group_commit
        ~dir:store_dir ()
    with
    | Error faults ->
      let kinds = List.map Durable_doc.fault_kind faults in
      (* Losing a whole shard store is legitimate only when the crash
         predates the shard's very first completed checkpoint. *)
      if not (state.attempted = 0 && point <= profiles.(j).init_points) then
        fail "shard %d unrecoverable after %d local ops (point %d): %s" j
          state.attempted point
          (String.concat ", " kinds);
      Unrecoverable { fault_kinds = kinds }
    | Ok (report, rt) ->
      let durable = report.Durable_doc.durable_seq in
      if durable < state.synced || durable > state.attempted then
        fail "shard %d durable seq %d outside [synced %d, attempted %d]" j
          durable state.synced state.attempted;
      List.iter
        (fun f -> fail "shard %d: %s" j f)
        (Matrix.verify_prefix profiles.(j).oracle ~io ~dir:store_dir
           ~seq:durable rt);
      Recovered
        { durable_seq = durable;
          attempted = state.attempted;
          synced = state.synced;
          fault_kinds =
            List.map Durable_doc.fault_kind report.Durable_doc.faults }
  in
  (* Containment: the un-armed shards and the router twin must sit at
     exactly the prefixes that completed before the crash — recovered
     shard + live siblings + router re-compose the global oracle's
     document. *)
  (match !sdoc_ref with
   | None ->
     if state.applied_global <> 0 then
       fail "no sharded store, yet %d global ops applied" state.applied_global
   | Some sdoc ->
     for q = 0 to config.shards - 1 do
       if q <> j then begin
         let applied = state.per_shard_applied.(q) in
         let got = Matrix.observe_labels (Sharded_doc.shard_ldoc sdoc q) in
         if
           not
             (Matrix.int_array_equal got
                profiles.(q).oracle.Matrix.labels.(applied))
         then fail "sibling shard %d not at its applied prefix %d" q applied
       end
     done;
     let got = Matrix.observe_labels (Sharded_doc.router sdoc) in
     let want = global_oracle.Matrix.labels.(state.applied_global) in
     if not (Matrix.int_array_equal got want) then
       fail "router twin not at global prefix %d" state.applied_global);
  (outcome, List.rev !failures)

(* {1 The sweep} *)

let run ?pool ?progress ?only config =
  Matrix.validate ~extra:[ ("shards", config.shards) ] config.matrix;
  let script = Crash_matrix.generate_script config.matrix in
  let profiles = profile config script in
  let global_oracle =
    Matrix.build_oracle (Crash_matrix.base_ldoc config.matrix) script
  in
  let cells =
    Array.of_list
      (List.concat_map
         (fun mode ->
           List.concat
             (List.init config.shards (fun j ->
                  List.init profiles.(j).total_points (fun i ->
                      (j, i + 1, mode)))))
         Fault.all_modes)
  in
  { config;
    total_points = Array.map (fun (p : shard_profile) -> p.total_points) profiles;
    init_points = Array.map (fun (p : shard_profile) -> p.init_points) profiles;
    sweep =
      Matrix.run ?pool ?progress ?only ~name:cell_name
        ~eval:(eval_cell config script profiles global_oracle)
        cells }
