(* R8 fixture: parallel scopes whose state handling is sound — none of
   these may fire.  [run_locked] is the one deliberate exception: the
   analyzer cannot see lock discipline, so it fires by design and the
   test suppresses it through a race_allow entry (exercising the
   allowlist use-count). *)

module Pool = struct
  let map (f : int -> 'b) (xs : int array) = Array.map f xs
end

(* Atomic-mediated global: must NOT fire. *)
let hits = Atomic.make 0

let run_atomic () =
  Pool.map (fun i -> ignore (Atomic.fetch_and_add hits i)) [| 0; 1; 2; 3 |]

(* Scratch state created inside the spawned closure is domain-private. *)
let run_closure_local () =
  Pool.map
    (fun i ->
      let scratch : (int, int) Hashtbl.t = Hashtbl.create 8 in
      Hashtbl.replace scratch i i)
    [| 0; 1; 2; 3 |]

(* Domain-local storage is the sanctioned per-domain mutable cell. *)
let slot = Domain.DLS.new_key (fun () -> 0)

let run_dls () =
  Pool.map
    (fun i -> Domain.DLS.set slot (Domain.DLS.get slot + i))
    [| 0; 1; 2; 3 |]

(* Captured state that is only read is safe. *)
let run_read_only () =
  let data = Array.make 16 1 in
  let sum = Atomic.make 0 in
  Pool.map
    (fun i -> ignore (Atomic.fetch_and_add sum data.(i)))
    (Array.init 16 Fun.id)

(* Mutex-guarded global write: fires by design, allowlisted in the
   test's race_allow with an audit note. *)
let guarded : (int, int) Hashtbl.t = Hashtbl.create 8
let mu = Mutex.create ()

let run_locked () =
  Pool.map
    (fun i ->
      Mutex.lock mu;
      Hashtbl.replace guarded i i;
      Mutex.unlock mu)
    [| 0; 1; 2; 3 |]
