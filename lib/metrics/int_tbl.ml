include Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end)

let drop_below t cut =
  filter_map_inplace (fun k v -> if k < cut then None else Some v) t
