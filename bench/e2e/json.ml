(* A minimal JSON reader and writer: enough for BENCHMARK.json and the
   bench's own result lines.  No JSON library ships with the toolchain. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Error of string

let fail pos fmt =
  Printf.ksprintf (fun s -> raise (Error (Printf.sprintf "at %d: %s" pos s))) fmt

let add_utf8 buf cp =
  let add i = Buffer.add_char buf (Char.chr i) in
  if cp < 0x80 then add cp
  else if cp < 0x800 then begin
    add (0xC0 lor (cp lsr 6));
    add (0x80 lor (cp land 0x3F))
  end
  else begin
    add (0xE0 lor (cp lsr 12));
    add (0x80 lor ((cp lsr 6) land 0x3F));
    add (0x80 lor (cp land 0x3F))
  end

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let rec skip_ws () =
    match peek () with
    | ' ' | '\t' | '\n' | '\r' ->
      incr pos;
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    if peek () <> c then fail !pos "expected '%c'" c;
    incr pos
  in
  let literal word v =
    if !pos + String.length word <= n
       && String.equal (String.sub s !pos (String.length word)) word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail !pos "bad literal"
  in
  let string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail !pos "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> Buffer.contents buf
      | '\\' ->
        if !pos >= n then fail !pos "unterminated escape";
        let e = s.[!pos] in
        incr pos;
        (match e with
         | '"' | '\\' | '/' -> Buffer.add_char buf e
         | 'b' -> Buffer.add_char buf '\b'
         | 'f' -> Buffer.add_char buf '\012'
         | 'n' -> Buffer.add_char buf '\n'
         | 'r' -> Buffer.add_char buf '\r'
         | 't' -> Buffer.add_char buf '\t'
         | 'u' ->
           if !pos + 4 > n then fail !pos "short \\u escape";
           (match int_of_string_opt ("0x" ^ String.sub s !pos 4) with
            | Some cp -> add_utf8 buf cp
            | None -> fail !pos "bad \\u escape");
           pos := !pos + 4
         | _ -> fail !pos "bad escape");
        go ()
      | c ->
        Buffer.add_char buf c;
        go ()
    in
    go ()
  in
  let number () =
    let start = !pos in
    while
      !pos < n
      && (match s.[!pos] with
          | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
          | _ -> false)
    do
      incr pos
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Num f
    | None -> fail start "bad number"
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | '{' ->
      incr pos;
      skip_ws ();
      if peek () = '}' then begin
        incr pos;
        Obj []
      end
      else
        let rec members acc =
          skip_ws ();
          let k = string () in
          skip_ws ();
          expect ':';
          let v = value () in
          skip_ws ();
          match peek () with
          | ',' ->
            incr pos;
            members ((k, v) :: acc)
          | '}' ->
            incr pos;
            Obj (List.rev ((k, v) :: acc))
          | _ -> fail !pos "expected ',' or '}'"
        in
        members []
    | '[' ->
      incr pos;
      skip_ws ();
      if peek () = ']' then begin
        incr pos;
        Arr []
      end
      else
        let rec elements acc =
          let v = value () in
          skip_ws ();
          match peek () with
          | ',' ->
            incr pos;
            elements (v :: acc)
          | ']' ->
            incr pos;
            Arr (List.rev (v :: acc))
          | _ -> fail !pos "expected ',' or ']'"
        in
        elements []
    | '"' -> Str (string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> number ()
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail !pos "trailing data";
  v

let member k = function Obj kv -> List.assoc_opt k kv | _ -> None

let num = function Some (Num f) -> Some f | _ -> None
let str = function Some (Str s) -> Some s | _ -> None
let list = function Some (Arr l) -> l | _ -> []

(* Integral values print without a fraction; everything else keeps all
   17 significant digits, so a measured time is never rounded flat.
   JSON has no NaN or infinity: those print as 0 (the bench marks such a
   run incorrect). *)
let number_to_string f =
  if not (Float.is_finite f) then "0"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let rec to_string = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Num f -> number_to_string f
  | Str s -> "\"" ^ Ltree_obs.Trace.json_escape s ^ "\""
  | Arr l -> "[" ^ String.concat ", " (List.map to_string l) ^ "]"
  | Obj kv ->
    "{"
    ^ String.concat ", "
        (List.map (fun (k, v) -> to_string (Str k) ^ ": " ^ to_string v) kv)
    ^ "}"
