(* The flight recorder keeps no storage of its own: notes go to the
   one process-wide event ring that [Span] owns, next to span closes,
   and a bundle dumps that whole ring. *)

let note = Span.note
let set_tick = Span.set_tick

(* {1 Bundle dump}

   A self-describing JSONL document: a header line naming the dump
   reason (and, for matrix failures, the exact cell to replay with
   [--only]), one entry line per ring entry (the same line [ltree
   trace] prints), one line holding the full metrics snapshot, and a
   footer repeating the entry count so a truncated file is detectable. *)

let magic = "ltree-flight"

let dump ?(reason = "manual") ?(attrs = []) () =
  let entries = Span.entries () in
  let n = List.length entries in
  let buf = Buffer.create 8192 in
  Printf.bprintf buf
    "{\"bundle\":\"%s\",\"version\":2,\"reason\":\"%s\",\"at\":%.6f,\"events\":%d,\"dropped\":%d,\"attrs\":"
    magic (Trace.json_escape reason) (Unix.gettimeofday ()) n (Span.dropped ());
  Trace.add_object buf attrs;
  Buffer.add_string buf "}\n";
  Buffer.add_string buf (Trace.to_jsonl entries);
  Buffer.add_string buf "{\"metrics\":";
  Buffer.add_string buf (Registry.expose_json ());
  Buffer.add_string buf "}\n";
  Printf.bprintf buf "{\"end\":true,\"events\":%d}\n" n;
  Buffer.contents buf

(* {1 Validation} *)

(* [find_after line pat] is the index just past the first [pat] in
   [line].  Header and footer are our own emitter's output, so a plain
   scan for a quoted key is enough. *)
let find_after line pat =
  let hn = String.length line and pn = String.length pat in
  let rec find i =
    if i + pn > hn then None
    else if String.equal (String.sub line i pn) pat then Some (i + pn)
    else find (i + 1)
  in
  find 0

let int_field line key =
  match find_after line (Printf.sprintf "\"%s\":" key) with
  | None -> None
  | Some start ->
    let digit i =
      i < String.length line
      && Char.compare '0' line.[i] <= 0
      && Char.compare line.[i] '9' <= 0
    in
    let stop = ref start in
    while digit !stop do incr stop done;
    int_of_string_opt (String.sub line start (!stop - start))

let nonblank_lines data =
  List.filter
    (fun l -> not (String.equal (String.trim l) ""))
    (String.split_on_char '\n' data)

(* Header, entries, metrics, footer; the header's and the footer's
   ["events"] must both equal the number of entry lines. *)
let validate data =
  match Trace.validate_jsonl data with
  | Error e -> Error e
  | Ok n -> (
      match nonblank_lines data with
      | [] -> Error "empty bundle"
      | header :: rest -> (
        let has line pat = Option.is_some (find_after line pat) in
        match List.rev rest with
        | _ when not (has header (Printf.sprintf "\"bundle\":\"%s\"" magic)) ->
          Error "first line is not a bundle header"
        | footer :: _ when not (has footer "\"end\":true") ->
          Error "last line is not a bundle footer"
        | footer :: metrics :: rev_entries when has metrics "{\"metrics\":" -> (
          let lines = List.length rev_entries in
          match (int_field header "events", int_field footer "events") with
          | Some h, Some f when h = lines && f = lines -> Ok n
          | Some h, Some f ->
            Error
              (Printf.sprintf
                 "entry count mismatch: header says %d, footer %d, %d entry \
                  lines present"
                 h f lines)
          | _ -> Error "header or footer carries no event count")
        | _ -> Error "bundle too short (header, metrics, footer)"))

(* [attr_of_bundle data key] pulls a string attribute out of the header
   line, e.g. the failing cell name for [--only] replay; escaped quotes
   inside the value are unescaped. *)
let attr_of_bundle data key =
  match nonblank_lines data with
  | [] -> None
  | header :: _ -> (
      let hn = String.length header in
      match find_after header (Printf.sprintf "\"%s\":\"" key) with
      | None -> None
      | Some start ->
        let buf = Buffer.create 32 in
        let rec scan i =
          if i >= hn then None
          else
            match header.[i] with
            | '"' -> Some (Buffer.contents buf)
            | '\\' when i + 1 < hn ->
              (match header.[i + 1] with
               | 'n' -> Buffer.add_char buf '\n'
               | 't' -> Buffer.add_char buf '\t'
               | 'r' -> Buffer.add_char buf '\r'
               | c -> Buffer.add_char buf c);
              scan (i + 2)
            | c ->
              Buffer.add_char buf c;
              scan (i + 1)
        in
        scan start)
