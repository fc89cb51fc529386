exception Error of string * int

let chr = Char.equal

type state = { src : string; mutable pos : int }

let err st msg = raise (Error (msg, st.pos))
let eof st = st.pos >= String.length st.src
let peek st = if eof st then '\000' else st.src.[st.pos]

let peek2 st =
  if st.pos + 1 >= String.length st.src then '\000' else st.src.[st.pos + 1]

let advance st = st.pos <- st.pos + 1

let skip_spaces st =
  while (not (eof st)) && chr (peek st) ' ' do
    advance st
  done

let is_name_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' | '.' | ':' -> true
  | _ -> false

let is_digit = function '0' .. '9' -> true | _ -> false

(* Names may contain ':' (namespace prefixes) but never the '::' axis
   separator. *)
let read_name st =
  let start = st.pos in
  while
    (not (eof st))
    && is_name_char (peek st)
    && not (chr (peek st) ':' && chr (peek2 st) ':')
  do
    advance st
  done;
  if st.pos = start then err st "expected a name";
  String.sub st.src start (st.pos - start)

let read_number st =
  let start = st.pos in
  while (not (eof st)) && is_digit (peek st) do
    advance st
  done;
  int_of_string (String.sub st.src start (st.pos - start))

let read_string_literal st =
  let quote = peek st in
  if not (chr quote '\'') && not (chr quote '"') then
    err st "expected a string literal";
  advance st;
  let start = st.pos in
  while (not (eof st)) && not (chr (peek st) quote) do
    advance st
  done;
  if eof st then err st "unterminated string literal";
  let s = String.sub st.src start (st.pos - start) in
  advance st;
  s

(* [word st w] consumes the keyword [w] when it appears at the cursor and
   is not a prefix of a longer name. *)
let word st w =
  let n = String.length w in
  if
    st.pos + n <= String.length st.src
    && String.equal (String.sub st.src st.pos n) w
    && (st.pos + n >= String.length st.src
        || not (is_name_char st.src.[st.pos + n]))
  then begin
    st.pos <- st.pos + n;
    true
  end
  else false

let axis_of_name st = function
  | "child" -> Ast.Child
  | "descendant" -> Ast.Descendant
  | "self" -> Ast.Self
  | "parent" -> Ast.Parent
  | "ancestor" -> Ast.Ancestor
  | "ancestor-or-self" -> Ast.Ancestor_or_self
  | "following" -> Ast.Following
  | "preceding" -> Ast.Preceding
  | "following-sibling" -> Ast.Following_sibling
  | "preceding-sibling" -> Ast.Preceding_sibling
  | name -> err st (Printf.sprintf "unknown axis '%s'" name)

let read_test st : Ast.test =
  if chr (peek st) '*' then begin
    advance st;
    Wildcard
  end
  else begin
    let name = read_name st in
    if String.equal name "text" && chr (peek st) '(' then begin
      advance st;
      if not (chr (peek st) ')') then err st "expected ')'";
      advance st;
      Text_node
    end
    else Name name
  end

(* Predicate expressions: or < and < not/parens/atoms.  Atoms are
   attribute tests, positions, last(), or a relative location path used
   as an existence test. *)
let rec read_pred_or st : Ast.pred =
  let acc = ref (read_pred_and st) in
  skip_spaces st;
  while word st "or" do
    skip_spaces st;
    acc := Ast.Or (!acc, read_pred_and st);
    skip_spaces st
  done;
  !acc

and read_pred_and st : Ast.pred =
  skip_spaces st;
  let acc = ref (read_pred_unary st) in
  skip_spaces st;
  while word st "and" do
    skip_spaces st;
    acc := Ast.And (!acc, read_pred_unary st);
    skip_spaces st
  done;
  !acc

and read_pred_unary st : Ast.pred =
  skip_spaces st;
  if chr (peek st) '(' then begin
    advance st;
    let e = read_pred_or st in
    skip_spaces st;
    if not (chr (peek st) ')') then err st "expected ')'";
    advance st;
    e
  end
  else begin
    let save = st.pos in
    if word st "not" && chr (peek st) '(' then begin
      advance st;
      let e = read_pred_or st in
      skip_spaces st;
      if not (chr (peek st) ')') then err st "expected ')'";
      advance st;
      Ast.Not e
    end
    else begin
      st.pos <- save;
      read_pred_atom st
    end
  end

and read_pred_atom st : Ast.pred =
  match peek st with
  | '@' ->
    advance st;
    let attr = read_name st in
    if chr (peek st) '=' then begin
      advance st;
      Ast.Attr_eq (attr, read_string_literal st)
    end
    else if chr (peek st) '!' && chr (peek2 st) '=' then begin
      advance st;
      advance st;
      Ast.Attr_neq (attr, read_string_literal st)
    end
    else Ast.Has_attr attr
  | '0' .. '9' ->
    let k = read_number st in
    if k < 1 then err st "positions are 1-based";
    Ast.Position k
  | _ ->
    let save = st.pos in
    if word st "last" && chr (peek st) '(' then begin
      advance st;
      if not (chr (peek st) ')') then err st "expected ')'";
      advance st;
      Ast.Last
    end
    else begin
      st.pos <- save;
      Ast.Exists (read_rel_steps st)
    end

and read_preds st =
  let preds = ref [] in
  while chr (peek st) '[' do
    advance st;
    let e = read_pred_or st in
    skip_spaces st;
    if not (chr (peek st) ']') then err st "expected ']'";
    advance st;
    preds := e :: !preds
  done;
  List.rev !preds

(* One location step.  [after_slashes] is [`Double] right after '//'
   (axis fixed to descendant), [`Single] otherwise. *)
and read_step st after_slashes : Ast.step =
  let double = match after_slashes with `Double -> true | `Single -> false in
  if chr (peek st) '.' then begin
    (* The '.' and '..' abbreviations for the self and parent axes with a
       wildcard test. *)
    if double then err st "'.' and '..' are not allowed after '//'";
    advance st;
    let axis : Ast.axis =
      if chr (peek st) '.' then begin
        advance st;
        Parent
      end
      else Self
    in
    { axis; test = Wildcard; preds = read_preds st }
  end
  else begin
    let save = st.pos in
    let axis, test =
      if chr (peek st) '*' then (None, read_test st)
      else begin
        let name = read_name st in
        if chr (peek st) ':' && chr (peek2 st) ':' then begin
          advance st;
          advance st;
          (Some (axis_of_name st name), read_test st)
        end
        else begin
          st.pos <- save;
          (None, read_test st)
        end
      end
    in
    let axis : Ast.axis =
      match (axis, double) with
      | Some _, true -> err st "an explicit axis is not allowed after '//'"
      | Some a, false -> a
      | None, true -> Descendant
      | None, false -> Child
    in
    { axis; test; preds = read_preds st }
  end

(* A relative location path (inside a predicate). *)
and read_rel_steps st =
  let steps = ref [ read_step st `Single ] in
  while chr (peek st) '/' do
    advance st;
    if chr (peek st) '/' then begin
      advance st;
      steps := read_step st `Double :: !steps
    end
    else steps := read_step st `Single :: !steps
  done;
  List.rev !steps

let parse src =
  let st = { src; pos = 0 } in
  if eof st then err st "empty path";
  let absolute = chr (peek st) '/' in
  let read_sep ~first =
    if eof st then None
    else if chr (peek st) '/' then begin
      advance st;
      if chr (peek st) '/' then begin
        advance st;
        Some `Double
      end
      else Some `Single
    end
    else if first then Some `Single
    else err st "expected '/' or '//'"
  in
  let steps = ref [] in
  let rec go first =
    match read_sep ~first with
    | None -> ()
    | Some sep ->
      steps := read_step st sep :: !steps;
      go false
  in
  go true;
  (match !steps with [] -> err st "path has no steps" | _ :: _ -> ());
  { Ast.absolute; steps = List.rev !steps }
