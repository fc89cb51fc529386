module Checksum = Ltree_recovery.Checksum

type t =
  | Data of { epoch : int; hwm : int; seq : int; trace : int; payload : string }
  | Snapshot of { epoch : int; base_seq : int; chain : int; data : string }
  | Handshake of { epoch : int; seq : int; chain : int }
  | Ack of { epoch : int; seq : int }
  | Hello of { epoch : int; seq : int }

type error = Bad_crc of { want : int; got : int } | Malformed of string

let pp_error ppf = function
  | Bad_crc { want; got } ->
    Format.fprintf ppf "frame crc mismatch (want %s, got %s)"
      (Checksum.to_hex want) (Checksum.to_hex got)
  | Malformed detail -> Format.fprintf ppf "malformed frame: %s" detail

(* Snapshot payloads are whole files — newlines included — while the
   wire protocol is one frame per line, so the payload is escaped:
   backslash and newline only, everything else verbatim. *)
let escape s =
  if not (String.exists (fun c -> Char.equal c '\n' || Char.equal c '\\') s)
  then s
  else begin
    let b = Buffer.create (String.length s + 16) in
    String.iter
      (fun c ->
        match c with
        | '\n' -> Buffer.add_string b "\\n"
        | '\\' -> Buffer.add_string b "\\\\"
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b
  end

let unescape s =
  let n = String.length s in
  let b = Buffer.create n in
  let rec go i =
    if i >= n then Ok (Buffer.contents b)
    else if Char.equal s.[i] '\\' then
      if i + 1 >= n then Error (Malformed "dangling escape")
      else (
        match s.[i + 1] with
        | 'n' ->
          Buffer.add_char b '\n';
          go (i + 2)
        | '\\' ->
          Buffer.add_char b '\\';
          go (i + 2)
        | c -> Error (Malformed (Printf.sprintf "bad escape \\%c" c)))
    else begin
      Buffer.add_char b s.[i];
      go (i + 1)
    end
  in
  go 0

let body = function
  | Data { epoch; hwm; seq; trace; payload } ->
    (* The trace id rides inside the CRC-covered body: damage to it
       surfaces as Bad_crc, never as a wrong causal parent. *)
    Printf.sprintf "D %d %d %d %s %s" epoch hwm seq (Checksum.to_hex trace)
      payload
  | Snapshot { epoch; base_seq; chain; data } ->
    Printf.sprintf "S %d %d %s %s" epoch base_seq (Checksum.to_hex chain)
      (escape data)
  | Handshake { epoch; seq; chain } ->
    Printf.sprintf "H %d %d %s" epoch seq (Checksum.to_hex chain)
  | Ack { epoch; seq } -> Printf.sprintf "A %d %d" epoch seq
  | Hello { epoch; seq } -> Printf.sprintf "R %d %d" epoch seq

let encode f =
  let body = body f in
  Printf.sprintf "F %s %s\n" (Checksum.to_hex (Checksum.crc32 body)) body

(* Cursor over the space-separated fields of a body; the final field of
   Data/Snapshot is "the rest of the line", so splitting eagerly would
   mangle payloads holding runs of spaces. *)
let next_field s pos =
  match String.index_from_opt s pos ' ' with
  | None -> (String.sub s pos (String.length s - pos), String.length s)
  | Some sp -> (String.sub s pos (sp - pos), sp + 1)

let rest s pos = String.sub s pos (String.length s - pos)

let int_field name s pos =
  let field, pos' = next_field s pos in
  match int_of_string_opt field with
  | Some v -> Ok (v, pos')
  | None -> Error (Malformed (Printf.sprintf "bad %s field %S" name field))

let crc_field name s pos =
  let field, pos' = next_field s pos in
  match Checksum.of_hex field with
  | Some v -> Ok (v, pos')
  | None -> Error (Malformed (Printf.sprintf "bad %s field %S" name field))

let ( let* ) = Result.bind

let decode_body b =
  if String.length b < 2 then Error (Malformed "truncated body")
  else
    let kind = b.[0] in
    if not (Char.equal b.[1] ' ') then Error (Malformed "bad kind separator")
    else
      let pos = 2 in
      match kind with
      | 'D' ->
        let* epoch, pos = int_field "epoch" b pos in
        let* hwm, pos = int_field "hwm" b pos in
        let* seq, pos = int_field "seq" b pos in
        let* trace, pos = crc_field "trace" b pos in
        Ok (Data { epoch; hwm; seq; trace; payload = rest b pos })
      | 'S' ->
        let* epoch, pos = int_field "epoch" b pos in
        let* base_seq, pos = int_field "base_seq" b pos in
        let* chain, pos = crc_field "chain" b pos in
        let* data = unescape (rest b pos) in
        Ok (Snapshot { epoch; base_seq; chain; data })
      | 'H' ->
        let* epoch, pos = int_field "epoch" b pos in
        let* seq, pos = int_field "seq" b pos in
        let* chain, (_ : int) = crc_field "chain" b pos in
        Ok (Handshake { epoch; seq; chain })
      | 'A' ->
        let* epoch, pos = int_field "epoch" b pos in
        let* seq, (_ : int) = int_field "seq" b pos in
        Ok (Ack { epoch; seq })
      | 'R' ->
        let* epoch, pos = int_field "epoch" b pos in
        let* seq, (_ : int) = int_field "seq" b pos in
        Ok (Hello { epoch; seq })
      | c -> Error (Malformed (Printf.sprintf "unknown frame kind %C" c))

module Assembler = struct
  type asm = Buffer.t

  let create () = Buffer.create 256

  (* A torn chunk leaves a partial line that merges with the next
     arrival; the merged line fails its frame CRC downstream and is
     dropped — retransmission heals it. *)
  let feed t chunks =
    List.iter (Buffer.add_string t) chunks;
    let data = Buffer.contents t in
    Buffer.clear t;
    let lines = ref [] in
    let start = ref 0 in
    String.iteri
      (fun i c ->
        if Char.equal c '\n' then begin
          lines := String.sub data !start (i - !start) :: !lines;
          start := i + 1
        end)
      data;
    Buffer.add_string t (String.sub data !start (String.length data - !start));
    List.rev !lines
end

let decode line =
  (* "F <crc8> <body>" — fixed positions, so payload bytes are exact. *)
  if String.length line < 11 then Error (Malformed "line too short")
  else if not (Char.equal line.[0] 'F' && Char.equal line.[1] ' ') then
    Error (Malformed "bad magic")
  else if not (Char.equal line.[10] ' ') then
    Error (Malformed "bad crc separator")
  else
    match Checksum.of_hex (String.sub line 2 8) with
    | None -> Error (Malformed "bad crc field")
    | Some want ->
      let body = rest line 11 in
      let got = Checksum.crc32 body in
      if want <> got then Error (Bad_crc { want; got })
      else decode_body body
