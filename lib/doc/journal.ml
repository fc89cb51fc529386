open Ltree_xml

exception Corrupt = Varint.Corrupt
exception Replay_error of { what : string; anchor : int }

type entry =
  | Insert of { anchor : int; index : int; xml : string }
  | Delete of { anchor : int }
  | Set_text of { anchor : int; text : string }

(* One-line-safe text: XML entities plus numeric escapes for the line
   breaks.  Only {!entry_to_line} prints it; nothing parses it back. *)
let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '&' -> Buffer.add_string buf "&amp;"
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '\n' -> Buffer.add_string buf "&#10;"
      | '\r' -> Buffer.add_string buf "&#13;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let entry_to_line entry =
  match entry with
  | Insert { anchor; index; xml } ->
    Printf.sprintf "I %d %d %s" anchor index (escape xml)
  | Delete { anchor } -> Printf.sprintf "D %d" anchor
  | Set_text { anchor; text } ->
    Printf.sprintf "T %d %s" anchor (escape text)

(* The binary entry: a kind byte, the anchor varint, then an insert's
   index varint and fragment or a set_text's text, as length-prefixed
   raw bytes. *)
let encode_entry entry =
  let b = Buffer.create 64 in
  (match entry with
   | Insert { anchor; index; xml } ->
     Buffer.add_char b 'I';
     Varint.add b anchor;
     Varint.add b index;
     Varint.add b (String.length xml);
     Buffer.add_string b xml
   | Delete { anchor } ->
     Buffer.add_char b 'D';
     Varint.add b anchor
   | Set_text { anchor; text } ->
     Buffer.add_char b 'T';
     Varint.add b anchor;
     Varint.add b (String.length text);
     Buffer.add_string b text);
  Buffer.contents b

let decode_entry s =
  let c = Varint.cursor s in
  let kind = Varint.byte c in
  let anchor = Varint.uint c in
  let entry =
    match kind with
    | 'I' ->
      let index = Varint.uint c in
      Insert { anchor; index; xml = Varint.string c "fragment" }
    | 'D' -> Delete { anchor }
    | 'T' -> Set_text { anchor; text = Varint.string c "text" }
    | k -> raise (Corrupt (Printf.sprintf "unknown entry kind %C" k))
  in
  if Varint.remaining c > 0 then raise (Corrupt "bytes after the entry");
  entry

let resolve ldoc anchor what =
  match Labeled_doc.node_by_start_label ldoc anchor with
  | Some node -> node
  | None -> raise (Replay_error { what; anchor })

let apply_entry ldoc entry =
  match entry with
  | Insert { anchor; index; xml } ->
    let parent = resolve ldoc anchor "insert" in
    let sub =
      try Parser.parse_fragment xml with
      | Parser.Error (msg, _) ->
        raise (Corrupt ("entry fragment does not parse: " ^ msg))
      | Lexer.Error (msg, _) ->
        raise (Corrupt ("entry fragment does not lex: " ^ msg))
    in
    Labeled_doc.insert_subtree ldoc ~parent ~index sub
  | Delete { anchor } ->
    Labeled_doc.delete_subtree ldoc (resolve ldoc anchor "delete")
  | Set_text { anchor; text } ->
    Dom.set_text (resolve ldoc anchor "set_text") text
