type cell = {
  mutable label : int;
  mutable prev : cell option;
  mutable next : cell option;
}

type t = {
  mutable first : cell option;
  mutable last : cell option;
  mutable length : int;
}

let create () = { first = None; last = None; length = 0 }
let length t = t.length
let first t = t.first
let last t = t.last

let append t label =
  let cell = { label; prev = t.last; next = None } in
  (match t.last with
   | Some l -> l.next <- Some cell
   | None -> t.first <- Some cell);
  t.last <- Some cell;
  t.length <- t.length + 1;
  cell

let insert_after t anchor label =
  let cell = { label; prev = Some anchor; next = anchor.next } in
  (match anchor.next with
   | Some n -> n.prev <- Some cell
   | None -> t.last <- Some cell);
  anchor.next <- Some cell;
  t.length <- t.length + 1;
  cell

let insert_before t anchor label =
  let cell = { label; prev = anchor.prev; next = Some anchor } in
  (match anchor.prev with
   | Some p -> p.next <- Some cell
   | None -> t.first <- Some cell);
  anchor.prev <- Some cell;
  t.length <- t.length + 1;
  cell

let remove t cell =
  let unlinked =
    cell.prev = None && cell.next = None
    && (match t.first with Some f -> f != cell | None -> true)
  in
  if unlinked then invalid_arg "Dll.remove: cell not in list";
  (match cell.prev with
   | Some p -> p.next <- cell.next
   | None -> t.first <- cell.next);
  (match cell.next with
   | Some n -> n.prev <- cell.prev
   | None -> t.last <- cell.prev);
  cell.prev <- None;
  cell.next <- None;
  t.length <- t.length - 1

let iter t f =
  let rec go = function
    | None -> ()
    | Some cell ->
      let next = cell.next in
      f cell;
      go next
  in
  go t.first

let check t =
  let count = ref 0 in
  let rec go prev = function
    | None ->
      (match (prev, t.last) with
       | Some p, Some l when p != l -> failwith "Dll: last pointer stale"
       | None, Some _ -> failwith "Dll: last set on empty list"
       | Some _, None -> failwith "Dll: last missing"
       | _ -> ())
    | Some cell ->
      incr count;
      (match (cell.prev, prev) with
       | Some p, Some q when p == q -> ()
       | None, None -> ()
       | _ -> failwith "Dll: prev link broken");
      (match prev with
       | Some p when p.label >= cell.label ->
         failwith
           (Printf.sprintf "Dll: labels not increasing (%d >= %d)" p.label
              cell.label)
       | _ -> ());
      go (Some cell) cell.next
  in
  go None t.first;
  if !count <> t.length then failwith "Dll: length mismatch"
