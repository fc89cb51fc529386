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
  let n = Json.Num (float_of_int (List.length entries)) in
  let line v = Json.to_string v ^ "\n" in
  String.concat ""
    [ line
        (Json.Obj
           [ ("bundle", Json.Str magic); ("version", Json.Num 2.);
             ("reason", Json.Str reason);
             ("at", Json.Num (Unix.gettimeofday ())); ("events", n);
             ("dropped", Json.Num (float_of_int (Span.dropped ())));
             ( "attrs",
               Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) attrs) ) ]);
      Trace.to_jsonl entries;
      line (Json.Obj [ ("metrics", Registry.expose_json ()) ]);
      line (Json.Obj [ ("end", Json.Bool true); ("events", n) ]) ]

(* {1 Validation} *)

let is_str key want v =
  match Json.member key v with
  | Some (Json.Str s) -> String.equal s want
  | _ -> false

let is_end v =
  match Json.member "end" v with Some (Json.Bool b) -> b | _ -> false

let events v =
  match Json.member "events" v with
  | Some (Json.Num f) when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

(* Header, entries, metrics, footer; the header's and the footer's
   ["events"] must both equal the number of entry lines. *)
let validate data =
  match Trace.validate_jsonl data with
  | Error e -> Error e
  | Ok [] -> Error "empty bundle"
  | Ok (header :: rest as lines) -> (
      match List.rev rest with
      | _ when not (is_str "bundle" magic header) ->
        Error "first line is not a bundle header"
      | footer :: _ when not (is_end footer) ->
        Error "last line is not a bundle footer"
      | footer :: metrics :: rev_entries
        when Option.is_some (Json.member "metrics" metrics) -> (
          let count = List.length rev_entries in
          match (events header, events footer) with
          | Some h, Some f when h = count && f = count -> Ok (List.length lines)
          | Some h, Some f ->
            Error
              (Printf.sprintf
                 "entry count mismatch: header says %d, footer %d, %d entry \
                  lines present"
                 h f count)
          | _ -> Error "header or footer carries no event count")
      | _ -> Error "bundle too short (header, metrics, footer)")

(* [attr_of_bundle data key] is string attribute [key] of the header
   line, e.g. the failing cell name for [--only] replay. *)
let attr_of_bundle data key =
  let ( let* ) = Option.bind in
  let header = List.hd (String.split_on_char '\n' data) in
  let* header = Result.to_option (Json.parse header) in
  let* attrs = Json.member "attrs" header in
  match Json.member key attrs with Some (Json.Str v) -> Some v | _ -> None
