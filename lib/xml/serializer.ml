(* [flush buf s run i entity] appends the unescaped run [s.[run..i-1]]
   and the entity replacing [s.[i]], and returns where the next run
   starts. *)
let flush buf s run i entity =
  Buffer.add_substring buf s run (i - run);
  Buffer.add_string buf entity;
  i + 1

(* Append [s] escaped: the runs between escapable characters go in
   with one [add_substring] each, so no per-string buffer is built. *)
let add_escaped buf s ~quote =
  let run = ref 0 in
  for i = 0 to String.length s - 1 do
    match String.unsafe_get s i with
    | '&' -> run := flush buf s !run i "&amp;"
    | '<' -> run := flush buf s !run i "&lt;"
    | '>' -> run := flush buf s !run i "&gt;"
    | '"' when quote -> run := flush buf s !run i "&quot;"
    | _ -> ()
  done;
  Buffer.add_substring buf s !run (String.length s - !run)

let rec add_attrs buf = function
  | [] -> ()
  | (k, v) :: rest ->
    Buffer.add_char buf ' ';
    Buffer.add_string buf k;
    Buffer.add_string buf "=\"";
    add_escaped buf v ~quote:true;
    Buffer.add_char buf '"';
    add_attrs buf rest

(* With [indent], each node starts on its own line at [depth] levels. *)
let pad buf ~indent ~depth =
  match indent with
  | Some k ->
    if Buffer.length buf > 0 then Buffer.add_char buf '\n';
    Buffer.add_string buf (String.make (depth * k) ' ')
  | None -> ()

(* Plain recursion rather than closures passed to [List.iter], so the
   unindented writer a checkpoint runs allocates nothing per node. *)
let rec add_node buf ~indent ~depth n =
  match Dom.kind n with
  | Dom.Element name ->
    pad buf ~indent ~depth;
    Buffer.add_char buf '<';
    Buffer.add_string buf name;
    add_attrs buf (Dom.attrs n);
    let children = Dom.children n in
    if children = [] then Buffer.add_string buf "/>"
    else begin
      Buffer.add_char buf '>';
      (match (indent, children) with
       | None, _ -> add_children buf ~indent:None ~depth:(depth + 1) children
       | Some _, [ only ] when Dom.is_text only ->
         add_node buf ~indent:None ~depth:(depth + 1) only
       | Some _, _ ->
         add_children buf ~indent ~depth:(depth + 1) children;
         pad buf ~indent ~depth);
      Buffer.add_string buf "</";
      Buffer.add_string buf name;
      Buffer.add_char buf '>'
    end
  | Dom.Text s ->
    pad buf ~indent ~depth;
    add_escaped buf s ~quote:false
  | Dom.Comment s ->
    pad buf ~indent ~depth;
    Buffer.add_string buf "<!--";
    Buffer.add_string buf s;
    Buffer.add_string buf "-->"
  | Dom.Pi (target, data) ->
    pad buf ~indent ~depth;
    Buffer.add_string buf "<?";
    Buffer.add_string buf target;
    if data <> "" then begin
      Buffer.add_char buf ' ';
      Buffer.add_string buf data
    end;
    Buffer.add_string buf "?>"

and add_children buf ~indent ~depth = function
  | [] -> ()
  | c :: rest ->
    add_node buf ~indent ~depth c;
    add_children buf ~indent ~depth rest

let node_to_string ?indent n =
  let buf = Buffer.create 256 in
  add_node buf ~indent ~depth:0 n;
  Buffer.contents buf

let add_doc buf ~indent (doc : Dom.document) =
  (match doc.xml_decl with
   | Some attrs ->
     Buffer.add_string buf "<?xml";
     add_attrs buf attrs;
     Buffer.add_string buf "?>\n"
   | None -> ());
  (match doc.doctype with
   | Some body ->
     Buffer.add_string buf "<!DOCTYPE ";
     Buffer.add_string buf body;
     Buffer.add_string buf ">\n"
   | None -> ());
  List.iter
    (fun n ->
      add_node buf ~indent:None ~depth:0 n;
      Buffer.add_char buf '\n')
    doc.prolog_misc;
  (match doc.root with
   | Some root -> add_node buf ~indent ~depth:0 root
   | None -> ())

let add_document buf doc = add_doc buf ~indent:None doc

let to_string ?indent doc =
  let buf = Buffer.create 512 in
  add_doc buf ~indent doc;
  Buffer.contents buf
