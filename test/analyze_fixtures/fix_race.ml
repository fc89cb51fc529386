(* R8 fixture: seeded domain-safety violations.  Self-contained against
   Stdlib — the mini [Pool] plays the role of Ltree_exec.Pool (the
   analyzer matches parallel entries by module-boundary suffix). *)

module Pool = struct
  let map (f : int -> 'b) (xs : int array) = Array.map f xs
end

(* Unsynchronized global Hashtbl, reached from a parallel closure
   through two project calls: closure -> deep -> record. *)
let table : (int, int) Hashtbl.t = Hashtbl.create 16

let record i = Hashtbl.replace table i i
let deep i = record i
let run_interprocedural () = Pool.map (fun i -> deep i) [| 0; 1; 2; 3 |]

(* Direct global array write from the spawned closure. *)
let totals = Array.make 8 0
let run_global_array () = Pool.map (fun i -> totals.(i) <- i) [| 0; 1; 2 |]

(* Captured ref mutated across domains. *)
let run_captured_ref () =
  let acc = ref 0 in
  ignore (Pool.map (fun i -> acc := !acc + i) [| 0; 1; 2; 3 |]);
  !acc

(* Named local function handed to the pool: it mutates state captured
   from its (unspawned) parent, so the write crosses the boundary. *)
let run_captured_pass () =
  let shared : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let cell i =
    Hashtbl.replace shared i i;
    i
  in
  Pool.map cell [| 1; 2; 3 |]
