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

let capacity t = t.capacity
let add t r =
  t.slots.(t.added mod t.capacity) <- Some r;
  t.added <- t.added + 1

let length t = Int.min t.added t.capacity
let dropped t = Int.max 0 (t.added - t.capacity)

let clear t =
  Array.fill t.slots 0 t.capacity None;
  t.added <- 0

(* Oldest first. *)
let to_list t =
  let n = length t in
  let first = if t.added > t.capacity then t.added mod t.capacity else 0 in
  List.init n (fun i ->
      match t.slots.((first + i) mod t.capacity) with
      | Some r -> r
      | None -> assert false)

(* {1 JSONL export} *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* The one object writer: [{"k":v,...}] with escaped keys, [value]
   printing each value. *)
let add_fields buf value pairs =
  Buffer.add_char buf '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_char buf '"';
      Buffer.add_string buf (json_escape k);
      Buffer.add_string buf "\":";
      value buf v)
    pairs;
  Buffer.add_char buf '}'

let add_object buf pairs =
  add_fields buf
    (fun buf v ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (json_escape v);
      Buffer.add_char buf '"')
    pairs

let add_entry buf r =
  Printf.bprintf buf
    "{\"kind\":\"%s\",\"name\":\"%s\",\"path\":\"%s\",\"depth\":%d,\"domain\":%d,\"tick\":%d,\"start\":%.6f,\"dur_us\":%.3f"
    (json_escape r.kind) (json_escape r.name) (json_escape r.path) r.depth
    r.domain r.tick r.start (r.duration *. 1e6);
  if not (List.is_empty r.deltas) then begin
    Buffer.add_string buf ",\"counters\":";
    add_fields buf (fun buf v -> Buffer.add_string buf (string_of_int v)) r.deltas
  end;
  if not (List.is_empty r.attrs) then begin
    Buffer.add_string buf ",\"attrs\":";
    add_object buf r.attrs
  end;
  Buffer.add_string buf "}\n"

let to_jsonl records =
  let buf = Buffer.create 4096 in
  List.iter (add_entry buf) records;
  Buffer.contents buf

(* {1 JSON validation}

   A minimal recursive-descent JSON parser, enough to assert that the
   exporter above (and nothing downstream of it) emits well-formed
   lines.  It validates syntax only; no value tree is built. *)

exception Bad of string

let validate_json_line line =
  let len = String.length line in
  let pos = ref 0 in
  let fail detail = raise (Bad (Printf.sprintf "at %d: %s" !pos detail)) in
  let peek () = if !pos >= len then '\000' else line.[!pos] in
  let advance () = pos := !pos + 1 in
  let skip_ws () =
    while
      !pos < len
      && (match line.[!pos] with ' ' | '\t' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    if Char.equal (peek ()) c then advance ()
    else fail (Printf.sprintf "expected %C" c)
  in
  let literal word =
    String.iter (fun c -> expect c) word
  in
  let is_digit c = Char.compare '0' c <= 0 && Char.compare c '9' <= 0 in
  let number () =
    if Char.equal (peek ()) '-' then advance ();
    if not (is_digit (peek ())) then fail "expected a digit";
    while is_digit (peek ()) do advance () done;
    if Char.equal (peek ()) '.' then begin
      advance ();
      if not (is_digit (peek ())) then fail "expected a fraction digit";
      while is_digit (peek ()) do advance () done
    end;
    if Char.equal (peek ()) 'e' || Char.equal (peek ()) 'E' then begin
      advance ();
      if Char.equal (peek ()) '+' || Char.equal (peek ()) '-' then advance ();
      if not (is_digit (peek ())) then fail "expected an exponent digit";
      while is_digit (peek ()) do advance () done
    end
  in
  let string_lit () =
    expect '"';
    let closed = ref false in
    while not !closed do
      if !pos >= len then fail "unterminated string";
      let c = line.[!pos] in
      advance ();
      if Char.equal c '"' then closed := true
      else if Char.equal c '\\' then begin
        if !pos >= len then fail "unterminated escape";
        let e = line.[!pos] in
        advance ();
        match e with
        | '"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't' -> ()
        | 'u' ->
          for _ = 1 to 4 do
            let h = peek () in
            if
              not
                (is_digit h
                || (Char.compare 'a' h <= 0 && Char.compare h 'f' <= 0)
                || (Char.compare 'A' h <= 0 && Char.compare h 'F' <= 0))
            then fail "bad \\u escape";
            advance ()
          done
        | _ -> fail "bad escape character"
      end
      else if Char.code c < 0x20 then fail "raw control character in string"
    done
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | '{' -> obj ()
    | '[' -> arr ()
    | '"' -> string_lit ()
    | 't' -> literal "true"
    | 'f' -> literal "false"
    | 'n' -> literal "null"
    | _ -> number ()
  and obj () =
    expect '{';
    skip_ws ();
    if Char.equal (peek ()) '}' then advance ()
    else begin
      let more = ref true in
      while !more do
        skip_ws ();
        string_lit ();
        skip_ws ();
        expect ':';
        value ();
        skip_ws ();
        if Char.equal (peek ()) ',' then advance () else more := false
      done;
      expect '}'
    end
  and arr () =
    expect '[';
    skip_ws ();
    if Char.equal (peek ()) ']' then advance ()
    else begin
      let more = ref true in
      while !more do
        value ();
        skip_ws ();
        if Char.equal (peek ()) ',' then advance () else more := false
      done;
      expect ']'
    end
  in
  match
    skip_ws ();
    if len = 0 || !pos >= len then fail "empty line";
    if not (Char.equal (peek ()) '{') then fail "expected an object";
    value ();
    skip_ws ();
    if !pos < len then fail "trailing garbage"
  with
  | () -> Ok ()
  | exception Bad detail -> Error detail

let validate_jsonl data =
  let lines =
    List.filter
      (fun l -> not (String.equal (String.trim l) ""))
      (String.split_on_char '\n' data)
  in
  let rec go i = function
    | [] -> Ok i
    | line :: rest -> (
        match validate_json_line line with
        | Ok () -> go (i + 1) rest
        | Error detail ->
          Error (Printf.sprintf "line %d: %s" (i + 1) detail))
  in
  go 0 lines

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
