exception Error of string * Token.position

type state = {
  src : string;
  mutable pos : int;
  mutable line : int;
  mutable bol : int; (* offset of the beginning of the current line *)
}

let position st : Token.position =
  { line = st.line; col = st.pos - st.bol + 1; offset = st.pos }

let error st msg = raise (Error (msg, position st))

let eof st = st.pos >= String.length st.src

let peek st = if eof st then '\000' else st.src.[st.pos]

let advance st =
  if not (eof st) then begin
    if st.src.[st.pos] = '\n' then begin
      st.line <- st.line + 1;
      st.bol <- st.pos + 1
    end;
    st.pos <- st.pos + 1
  end

let expect st c =
  if peek st <> c then
    error st (Printf.sprintf "expected %C, found %C" c (peek st));
  advance st

let expect_string st s =
  String.iter (fun c -> expect st c) s

let is_space = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false

let is_name_start = function
  | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true
  | c -> Char.code c >= 0x80

let is_name_char c =
  is_name_start c
  || match c with '0' .. '9' | '-' | '.' -> true | _ -> false

let skip_spaces st =
  while (not (eof st)) && is_space (peek st) do
    advance st
  done

let read_name st =
  if not (is_name_start (peek st)) then error st "expected a name";
  let start = st.pos in
  while (not (eof st)) && is_name_char (peek st) do
    advance st
  done;
  String.sub st.src start (st.pos - start)

(* Scan until the literal [stop], returning the text before it and
   consuming the terminator. *)
let read_until st stop what =
  let start = st.pos in
  let n = String.length st.src and k = String.length stop in
  let rec find i =
    if i + k > n then error st ("unterminated " ^ what)
    else if String.sub st.src i k = stop then i
    else find (i + 1)
  in
  let hit = find start in
  let text = String.sub st.src start (hit - start) in
  while st.pos < hit + k do
    advance st
  done;
  text

let decode_entities_from st s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let rec go i =
    if i >= n then Buffer.contents buf
    else if s.[i] <> '&' then begin
      Buffer.add_char buf s.[i];
      go (i + 1)
    end
    else
      match String.index_from_opt s i ';' with
      | None -> error st "unterminated entity reference"
      | Some semi ->
        let name = String.sub s (i + 1) (semi - i - 1) in
        (match name with
         | "lt" -> Buffer.add_char buf '<'
         | "gt" -> Buffer.add_char buf '>'
         | "amp" -> Buffer.add_char buf '&'
         | "apos" -> Buffer.add_char buf '\''
         | "quot" -> Buffer.add_char buf '"'
         | _ when String.length name >= 2 && name.[0] = '#' ->
           let code =
             try
               if name.[1] = 'x' || name.[1] = 'X' then
                 int_of_string ("0x" ^ String.sub name 2 (String.length name - 2))
               else int_of_string (String.sub name 1 (String.length name - 1))
             with Failure _ -> error st ("bad character reference &" ^ name ^ ";")
           in
           if code < 0 || code > 0x10FFFF then
             error st "character reference out of range";
           (* Encode as UTF-8. *)
           if code < 0x80 then Buffer.add_char buf (Char.chr code)
           else if code < 0x800 then begin
             Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
             Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
           end
           else if code < 0x10000 then begin
             Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
             Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
             Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
           end
           else begin
             Buffer.add_char buf (Char.chr (0xF0 lor (code lsr 18)));
             Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
             Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
             Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
           end
         | _ -> error st ("unknown entity &" ^ name ^ ";"));
        go (semi + 1)
  in
  go 0

let decode_entities s =
  decode_entities_from { src = s; pos = 0; line = 1; bol = 0 } s

let read_attr_value st =
  let quote = peek st in
  if quote <> '"' && quote <> '\'' then
    error st "attribute value must be quoted";
  advance st;
  let start = st.pos in
  while (not (eof st)) && peek st <> quote do
    if peek st = '<' then error st "'<' in attribute value";
    advance st
  done;
  if eof st then error st "unterminated attribute value";
  let raw = String.sub st.src start (st.pos - start) in
  advance st;
  decode_entities_from st raw

let read_attrs st =
  let rec go acc =
    skip_spaces st;
    if is_name_start (peek st) then begin
      let name = read_name st in
      skip_spaces st;
      expect st '=';
      skip_spaces st;
      let value = read_attr_value st in
      if List.mem_assoc name acc then
        error st ("duplicate attribute " ^ name);
      go ((name, value) :: acc)
    end
    else List.rev acc
  in
  go []

let read_markup st : Token.t =
  (* [st] is positioned on '<'. *)
  advance st;
  match peek st with
  | '/' ->
    advance st;
    let name = read_name st in
    skip_spaces st;
    expect st '>';
    End_tag name
  | '!' ->
    advance st;
    if peek st = '-' then begin
      expect_string st "--";
      let body = read_until st "-->" "comment" in
      Comment body
    end
    else if peek st = '[' then begin
      expect_string st "[CDATA[";
      let body = read_until st "]]>" "CDATA section" in
      Cdata body
    end
    else begin
      expect_string st "DOCTYPE";
      (* Keep the body verbatim; balance '<' ... '>' for internal subsets. *)
      let start = st.pos in
      let depth = ref 1 in
      while !depth > 0 do
        if eof st then error st "unterminated DOCTYPE";
        (match peek st with
         | '<' -> incr depth
         | '>' -> decr depth
         | _ -> ());
        if !depth > 0 then advance st
      done;
      let body = String.trim (String.sub st.src start (st.pos - start)) in
      advance st;
      Doctype body
    end
  | '?' ->
    advance st;
    let target = read_name st in
    if String.lowercase_ascii target = "xml" then begin
      let attrs = read_attrs st in
      skip_spaces st;
      expect_string st "?>";
      Xml_decl attrs
    end
    else begin
      skip_spaces st;
      let data = read_until st "?>" "processing instruction" in
      Pi { target; data = String.trim data }
    end
  | _ ->
    let name = read_name st in
    let attrs = read_attrs st in
    skip_spaces st;
    if peek st = '/' then begin
      advance st;
      expect st '>';
      Start_tag { name; attrs; self_closing = true }
    end
    else begin
      expect st '>';
      Start_tag { name; attrs; self_closing = false }
    end

let read_text st =
  let start = st.pos in
  while (not (eof st)) && peek st <> '<' do
    advance st
  done;
  let raw = String.sub st.src start (st.pos - start) in
  decode_entities_from st raw

let tokenize src =
  let st = { src; pos = 0; line = 1; bol = 0 } in
  let acc = ref [] in
  while not (eof st) do
    let pos = position st in
    let token =
      if peek st = '<' then read_markup st
      else Token.Text (read_text st)
    in
    (match token with
     | Token.Text "" -> ()
     | token -> acc := ({ token; pos } : Token.spanned) :: !acc)
  done;
  List.rev !acc
