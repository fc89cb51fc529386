(* R2 fixture: keyed lookups through a table specialized to int keys, or
   at key types that are not immediate.  None of these may fire. *)
module Int_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end)

let add (t : string Int_tbl.t) k v = Int_tbl.replace t k v
let by_name (t : (string, int) Hashtbl.t) k = Hashtbl.find_opt t k
let by_pair (t : (int * int, unit) Hashtbl.t) k = Hashtbl.mem t k
let listed (l : int list) k = List.exists (Int.equal k) l
let named (l : string list) k = List.mem k l
let generic t k = Hashtbl.find_opt t k
