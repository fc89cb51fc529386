(* R2 fixture: the generic keyed lookups at immediate key types.  Every
   use below fires. *)
type color = Red | Green | Blue

let add (t : (int, string) Hashtbl.t) k v = Hashtbl.replace t k v
let look (t : (char, int) Hashtbl.t) c = Hashtbl.find_opt t c
let has (t : (color, unit) Hashtbl.t) = Hashtbl.mem t Red
let drop (t : (bool, int) Hashtbl.t) = Hashtbl.remove t true
let name (l : (int * string) list) k = List.assoc k l
let known (l : (int * string) list) k = List.mem_assoc k l
let listed (l : int list) k = List.mem k l
let first (t : (int, string) Hashtbl.t) = Hashtbl.find t 0
let push (t : (int, int) Hashtbl.t) = Hashtbl.add t 1 2
