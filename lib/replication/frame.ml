module Record = Ltree_recovery.Record
module Varint = Ltree_doc.Varint

type t =
  | Data of { epoch : int; hwm : int; seq : int; payload : string }
  | Snapshot of { epoch : int; base_seq : int; chain : int; data : string }
  | Handshake of { epoch : int; seq : int; chain : int }
  | Ack of { epoch : int; seq : int }
  | Hello of { epoch : int; seq : int }

type error = Record.error

let pp_error ppf = function
  | Record.Truncated -> Format.fprintf ppf "truncated frame"
  | Record.Checksum_mismatch { want; got } ->
    Format.fprintf ppf "frame crc mismatch (want %08x, got %08x)" want got
  | Record.Malformed detail -> Format.fprintf ppf "malformed frame: %s" detail

(* One record whose body is a kind byte, the varint fields, then for
   [D] and [S] the payload bytes to the end, with backslash and newline
   escaped so the line holds any byte.  [Hello]'s [seq] is [-1] before
   the replica holds anything, so it travels as [seq + 1]. *)
let encode f =
  let record = Buffer.create 64 in
  Record.add record (fun b ->
      let fields kind ints =
        Buffer.add_char b kind;
        List.iter (Varint.add b) ints
      in
      match f with
      | Data { epoch; hwm; seq; payload } ->
        fields 'D' [ epoch; hwm; seq ];
        Buffer.add_string b payload
      | Snapshot { epoch; base_seq; chain; data } ->
        fields 'S' [ epoch; base_seq; chain ];
        Buffer.add_string b data
      | Handshake { epoch; seq; chain } -> fields 'H' [ epoch; seq; chain ]
      | Ack { epoch; seq } -> fields 'A' [ epoch; seq ]
      | Hello { epoch; seq } -> fields 'R' [ epoch; seq + 1 ]);
  let line = Buffer.create (Buffer.length record + 8) in
  String.iter
    (function
      | '\n' -> Buffer.add_string line "\\n"
      | '\\' -> Buffer.add_string line "\\\\"
      | c -> Buffer.add_char line c)
    (Buffer.contents record);
  Buffer.add_char line '\n';
  Buffer.contents line

(* The inverse of the escape, and only of it: a raw newline or any other
   escape is malformed, so a decoded line re-encodes to itself. *)
let unescape s =
  let n = String.length s in
  let b = Buffer.create n in
  let rec go i =
    if i >= n then Ok (Buffer.contents b)
    else
      match (s.[i], if i + 1 < n then s.[i + 1] else ' ') with
      | '\\', 'n' -> Buffer.add_char b '\n'; go (i + 2)
      | '\\', '\\' -> Buffer.add_char b '\\'; go (i + 2)
      | ('\\' | '\n'), _ -> Error (Record.Malformed "bad escape")
      | c, _ -> Buffer.add_char b c; go (i + 1)
  in
  go 0

let decode_body body =
  let c = Varint.cursor body in
  let u () = Varint.uint c in
  let frame =
    match Varint.byte c with
    | 'D' ->
      let epoch = u () in
      let hwm = u () in
      let seq = u () in
      Data { epoch; hwm; seq; payload = Varint.rest c }
    | 'S' ->
      let epoch = u () in
      let base_seq = u () in
      let chain = u () in
      Snapshot { epoch; base_seq; chain; data = Varint.rest c }
    | 'H' ->
      let epoch = u () in
      let seq = u () in
      Handshake { epoch; seq; chain = u () }
    | 'A' ->
      let epoch = u () in
      Ack { epoch; seq = u () }
    | 'R' ->
      let epoch = u () in
      Hello { epoch; seq = u () - 1 }
    | k -> raise (Varint.Corrupt (Printf.sprintf "unknown frame kind %C" k))
  in
  if Varint.remaining c > 0 then raise (Varint.Corrupt "bytes after the frame");
  frame

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
  let ( let* ) = Result.bind in
  let* record = unescape line in
  let* body, next = Record.read record ~pos:0 in
  if next <> String.length record then
    Error (Record.Malformed "bytes after the record")
  else
    try Ok (decode_body body)
    with Varint.Corrupt detail -> Error (Record.Malformed detail)
