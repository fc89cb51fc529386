open Ltree_xml

exception Corrupt of string
exception Replay_error of { what : string; anchor : int }

type entry =
  | Insert of { anchor : int; index : int; xml : string }
  | Delete of { anchor : int }
  | Set_text of { anchor : int; text : string }

type t = { mutable entries : entry list (* newest first *) }

let create () = { entries = [] }
let length t = List.length t.entries
let clear t = t.entries <- []

(* One-line-safe encoding: XML entities plus numeric escapes for the
   line breaks; decoded with the lexer's entity decoder. *)
let encode s =
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

let decode s =
  try Lexer.decode_entities s
  with Lexer.Error (msg, _) -> raise (Corrupt ("bad escape: " ^ msg))

let start_label_of ldoc node =
  (Labeled_doc.label ldoc node).Labeled_doc.start_pos

(* A fragment is journal-safe when serializing and reparsing it yields
   the same tag list (no adjacent/empty text nodes). *)
let serialize_fragment sub =
  let xml = Serializer.node_to_string sub in
  (match Parser.parse_fragment xml with
   | reparsed ->
     if not (Dom.equal_structure sub reparsed) then
       invalid_arg
         "Journal: fragment does not survive serialization (adjacent or \
          empty text nodes?)"
   | exception Parser.Error (msg, _) ->
     invalid_arg ("Journal: fragment not serializable: " ^ msg));
  xml

let insert_subtree t ldoc ~parent ~index sub =
  let xml = serialize_fragment sub in
  let anchor = start_label_of ldoc parent in
  Labeled_doc.insert_subtree ldoc ~parent ~index sub;
  t.entries <- Insert { anchor; index; xml } :: t.entries

let delete_subtree t ldoc node =
  let anchor = start_label_of ldoc node in
  Labeled_doc.delete_subtree ldoc node;
  t.entries <- Delete { anchor } :: t.entries

let set_text t ldoc node s =
  if not (Labeled_doc.mem ldoc node) then
    invalid_arg "Journal.set_text: node is not labeled";
  let anchor = start_label_of ldoc node in
  Dom.set_text node s;
  t.entries <- Set_text { anchor; text = s } :: t.entries

let entry_to_line entry =
  match entry with
  | Insert { anchor; index; xml } ->
    Printf.sprintf "I %d %d %s" anchor index (encode xml)
  | Delete { anchor } -> Printf.sprintf "D %d" anchor
  | Set_text { anchor; text } ->
    Printf.sprintf "T %d %s" anchor (encode text)

let entry_of_line line =
  match String.split_on_char ' ' line with
  | "I" :: anchor :: index :: xml_parts -> (
      match (int_of_string_opt anchor, int_of_string_opt index) with
      | Some anchor, Some index ->
        Insert { anchor; index; xml = decode (String.concat " " xml_parts) }
      | _ -> raise (Corrupt ("bad insert entry: " ^ line)))
  | [ "D"; anchor ] -> (
      match int_of_string_opt anchor with
      | Some anchor -> Delete { anchor }
      | None -> raise (Corrupt ("bad delete entry: " ^ line)))
  | "T" :: anchor :: text_parts -> (
      match int_of_string_opt anchor with
      | Some anchor ->
        Set_text { anchor; text = decode (String.concat " " text_parts) }
      | None -> raise (Corrupt ("bad set_text entry: " ^ line)))
  | _ -> raise (Corrupt ("bad journal entry: " ^ line))

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

let replay t ldoc = List.iter (apply_entry ldoc) (List.rev t.entries)
