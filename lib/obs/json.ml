type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* {1 Printer} *)

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (function
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

(* Integral values print without a fraction; everything else keeps all
   17 significant digits, so a measured time is never rounded flat.
   JSON has no NaN or infinity: those print as 0. *)
let number_to_string f =
  if not (Float.is_finite f) then "0"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let to_buffer ?(break_depth = 0) buf v =
  let str s = Buffer.add_string buf ("\"" ^ escape s ^ "\"") in
  let rec value depth = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (string_of_bool b)
    | Num f -> Buffer.add_string buf (number_to_string f)
    | Str s -> str s
    | Arr l -> seq depth '[' ']' (List.map (fun v () -> value (depth + 1) v) l)
    | Obj kv ->
      seq depth '{' '}'
        (List.map
           (fun (k, v) () ->
             str k;
             Buffer.add_string buf ": ";
             value (depth + 1) v)
           kv)
  and seq depth op cl elts =
    let broken = depth < break_depth && not (List.is_empty elts) in
    let newline d = Buffer.add_string buf ("\n" ^ String.make (2 * d) ' ') in
    Buffer.add_char buf op;
    List.iteri
      (fun i elt ->
        if i > 0 then Buffer.add_char buf ',';
        if broken then newline (depth + 1)
        else if i > 0 then Buffer.add_char buf ' ';
        elt ())
      elts;
    if broken then newline depth;
    Buffer.add_char buf cl
  in
  value 0 v

let to_string ?break_depth v =
  let buf = Buffer.create 256 in
  to_buffer ?break_depth buf v;
  Buffer.contents buf

(* {1 Parser}

   Recursive descent over JSON's grammar.  Numbers are checked against
   that grammar before [float_of_string] sees them, since OCaml's float
   syntax is wider ([0x1p3], [1_000], [inf]). *)

exception Bad of int * string

let add_utf8 buf cp =
  let byte i = Buffer.add_char buf (Char.chr i) in
  let cont shift = byte (0x80 lor ((cp lsr shift) land 0x3F)) in
  if cp < 0x80 then byte cp
  else if cp < 0x800 then (byte (0xC0 lor (cp lsr 6)); cont 0)
  else if cp < 0x10000 then (byte (0xE0 lor (cp lsr 12)); cont 6; cont 0)
  else (byte (0xF0 lor (cp lsr 18)); cont 12; cont 6; cont 0)

let parse s =
  let n = String.length s and pos = ref 0 in
  let fail detail = raise (Bad (!pos, detail)) in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let eat c = Char.equal (peek ()) c && (incr pos; true) in
  let expect c = if not (eat c) then fail (Printf.sprintf "expected %C" c) in
  let rec skip_ws () =
    match peek () with
    | ' ' | '\t' | '\n' | '\r' -> incr pos; skip_ws ()
    | _ -> ()
  in
  let digits what =
    let start = !pos in
    while match peek () with '0' .. '9' -> true | _ -> false do incr pos done;
    if !pos = start then fail ("expected " ^ what)
  in
  let hex4 () =
    let h = if !pos + 4 <= n then String.sub s !pos 4 else "" in
    let hex = function
      | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true
      | _ -> false
    in
    if String.length h < 4 || not (String.for_all hex h) then
      fail "bad \\u escape";
    pos := !pos + 4;
    int_of_string ("0x" ^ h)
  in
  let escaped buf =
    match peek () with
    | ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') as c ->
      incr pos;
      Buffer.add_char buf
        (match c with
         | 'b' -> '\b' | 'f' -> '\012' | 'n' -> '\n' | 'r' -> '\r' | 't' -> '\t'
         | c -> c)
    | 'u' ->
      incr pos;
      let cp = hex4 () in
      (* A high surrogate followed by an escaped low one is one code point. *)
      if cp >= 0xD800 && cp <= 0xDBFF && !pos + 1 < n
         && Char.equal s.[!pos] '\\' && Char.equal s.[!pos + 1] 'u'
      then begin
        pos := !pos + 2;
        let lo = hex4 () in
        if lo < 0xDC00 || lo > 0xDFFF then fail "unpaired surrogate";
        add_utf8 buf (0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00))
      end
      else add_utf8 buf cp
    | _ -> fail "bad escape character"
  in
  let string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> Buffer.contents buf
      | '\\' -> escaped buf; go ()
      | c when Char.code c < 0x20 -> fail "raw control character in string"
      | c -> Buffer.add_char buf c; go ()
    in
    go ()
  in
  let number () =
    let start = !pos in
    ignore (eat '-');
    digits "a digit";
    if eat '.' then digits "a fraction digit";
    if eat 'e' || eat 'E' then begin
      ignore (eat '+' || eat '-');
      digits "an exponent digit"
    end;
    Num (float_of_string (String.sub s start (!pos - start)))
  in
  let literal word v = String.iter expect word; v in
  (* [items close item] reads [item, item, ...] up to [close]. *)
  let items close item =
    skip_ws ();
    if eat close then []
    else
      let rec go acc =
        let acc = item () :: acc in
        skip_ws ();
        if eat ',' then go acc else (expect close; List.rev acc)
      in
      go []
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | '{' ->
      incr pos;
      Obj
        (items '}' (fun () ->
             skip_ws ();
             let k = string () in
             skip_ws ();
             expect ':';
             (k, value ())))
    | '[' -> incr pos; Arr (items ']' value)
    | '"' -> Str (string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> number ()
  in
  match
    let v = value () in
    skip_ws ();
    if !pos < n then fail "trailing data";
    v
  with
  | v -> Ok v
  | exception Bad (at, detail) -> Error (Printf.sprintf "at %d: %s" at detail)

let member k = function Obj kv -> List.assoc_opt k kv | _ -> None
