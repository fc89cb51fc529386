type record = {
  kind : string;
  name : string;
  path : string;
  depth : int;
  domain : int;
  tick : int;
  start : float;
  duration : float;
  deltas : (string * int) list;
  attrs : (string * string) list;
}

let delta r key =
  match List.assoc_opt key r.deltas with Some v -> v | None -> 0

(* {1 The ring}

   A fixed-capacity buffer of the most recent records.  Old records are
   overwritten silently (the [dropped] count says how many); the trace
   is a flight recorder, not a log. *)

type t = {
  capacity : int;
  slots : record option array;
  mutable added : int;  (* total ever added *)
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Trace.create: capacity must be >= 1";
  { capacity; slots = Array.make capacity None; added = 0 }

let add t r =
  t.slots.(t.added mod t.capacity) <- Some r;
  t.added <- t.added + 1

let dropped t = Int.max 0 (t.added - t.capacity)

let clear t =
  Array.fill t.slots 0 t.capacity None;
  t.added <- 0

(* Oldest first. *)
let to_list t =
  let n = Int.min t.added t.capacity in
  let first = if t.added > t.capacity then t.added mod t.capacity else 0 in
  List.init n (fun i ->
      match t.slots.((first + i) mod t.capacity) with
      | Some r -> r
      | None -> assert false)

(* {1 JSONL export} *)

let json_escape = Json.escape

let entry_json r =
  let int i = Json.Num (float_of_int i) in
  let unless_empty key field = function
    | [] -> []
    | kv -> [ (key, Json.Obj (List.map field kv)) ]
  in
  Json.Obj
    ([ ("kind", Json.Str r.kind); ("name", Json.Str r.name);
       ("path", Json.Str r.path); ("depth", int r.depth);
       ("domain", int r.domain); ("tick", int r.tick);
       ("start", Json.Num r.start); ("dur_us", Json.Num (r.duration *. 1e6)) ]
    @ unless_empty "counters" (fun (k, v) -> (k, int v)) r.deltas
    @ unless_empty "attrs" (fun (k, v) -> (k, Json.Str v)) r.attrs)

let to_jsonl records =
  let buf = Buffer.create 4096 in
  List.iter
    (fun r ->
      Json.to_buffer buf (entry_json r);
      Buffer.add_char buf '\n')
    records;
  Buffer.contents buf

(* {1 Reading JSONL back} *)

let validate_jsonl data =
  let lines =
    List.filter
      (fun l -> not (String.equal (String.trim l) ""))
      (String.split_on_char '\n' data)
  in
  let rec go i acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
        match Json.parse line with
        | Ok (Json.Obj _ as v) -> go (i + 1) (v :: acc) rest
        | Ok _ -> Error (Printf.sprintf "line %d: not an object" (i + 1))
        | Error detail -> Error (Printf.sprintf "line %d: %s" (i + 1) detail))
  in
  go 0 [] lines

(* {1 Flamegraph}

   Self-time by (domain, span path).  [total] is the sum of durations of
   the spans recorded at a path; [self] subtracts the durations of
   recorded spans whose parent path it is -- but only spans from the
   same domain, so pool-worker spans never eat into another domain's
   self time.  Rendering indents by path depth, so the lexicographic
   sort groups children under their parents; when records come from more
   than one domain, each domain gets its own section. *)

type frame_stat = {
  mutable total : float;
  mutable self : float;
  mutable count : int;
}

let parent_path path =
  match String.rindex_opt path '/' with
  | None -> None
  | Some i -> Some (String.sub path 0 i)

let flamegraph_stats records =
  let tbl : (int * string, frame_stat) Hashtbl.t = Hashtbl.create 64 in
  let stat key =
    match Hashtbl.find_opt tbl key with
    | Some s -> s
    | None ->
      let s = { total = 0.; self = 0.; count = 0 } in
      Hashtbl.replace tbl key s;
      s
  in
  List.iter
    (fun r ->
      let s = stat (r.domain, r.path) in
      s.total <- s.total +. r.duration;
      s.self <- s.self +. r.duration;
      s.count <- s.count + 1)
    records;
  List.iter
    (fun r ->
      match parent_path r.path with
      | None -> ()
      | Some p -> (
          match Hashtbl.find_opt tbl (r.domain, p) with
          | Some s -> s.self <- s.self -. r.duration
          | None -> ()))
    records;
  let out = Hashtbl.fold (fun key s acc -> (key, s) :: acc) tbl [] in
  List.sort
    (fun ((da, a), _) ((db, b), _) ->
      match Int.compare da db with 0 -> String.compare a b | c -> c)
    out

let flamegraph records =
  let stats = flamegraph_stats records in
  let buf = Buffer.create 1024 in
  let depth path =
    String.fold_left
      (fun acc c -> if Char.equal c '/' then acc + 1 else acc)
      0 path
  in
  let name_of path =
    match String.rindex_opt path '/' with
    | None -> path
    | Some i -> String.sub path (i + 1) (String.length path - i - 1)
  in
  let width =
    List.fold_left
      (fun acc ((_, path), _) ->
        Int.max acc ((2 * depth path) + String.length (name_of path)))
      0 stats
  in
  let domains =
    List.sort_uniq Int.compare (List.map (fun ((d, _), _) -> d) stats)
  in
  let multi = match domains with [] | [ _ ] -> false | _ -> true in
  Buffer.add_string buf
    (Printf.sprintf "%-*s %12s %12s %8s\n" width "span path" "total(us)"
       "self(us)" "count");
  List.iter
    (fun d ->
      if multi then Buffer.add_string buf (Printf.sprintf "domain %d\n" d);
      List.iter
        (fun ((d', path), s) ->
          if d' = d then
            Buffer.add_string buf
              (Printf.sprintf "%-*s %12.1f %12.1f %8d\n" width
                 (String.make (2 * depth path) ' ' ^ name_of path)
                 (s.total *. 1e6) (s.self *. 1e6) s.count))
        stats)
    domains;
  Buffer.contents buf
