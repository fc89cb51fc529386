(* R8 fixture: a crash-matrix instance.  The mini [Matrix.run] hands a
   wrapper of its [~eval] argument to the pool, the way
   Ltree_recovery.Matrix.run does; the spawning-wrapper fixpoint must
   still see a captured-ref mutation inside the instance's [~eval]
   closure. *)

module Pool = struct
  let map (f : 'a -> 'b) (xs : 'a array) = Array.map f xs
end

module Matrix = struct
  let run ~(eval : 'id -> bool) (cells : 'id array) =
    Pool.map (fun id -> eval id) cells
end

let run_instance () =
  let verified = ref 0 in
  Matrix.run
    ~eval:(fun point ->
      incr verified;
      point > 0)
    [| 1; 2; 3 |]
