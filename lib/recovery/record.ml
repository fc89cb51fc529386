module Varint = Ltree_doc.Varint

type error =
  | Truncated
  | Checksum_mismatch of { want : int; got : int }
  | Malformed of string

let add buf write =
  let body = Buffer.create 64 in
  write body;
  let start = Buffer.length buf in
  Varint.add buf (Buffer.length body);
  Buffer.add_buffer buf body;
  let crc = Checksum.crc32 (Buffer.sub buf start (Buffer.length buf - start)) in
  Buffer.add_int32_le buf (Int32.of_int crc)

(* Where the body of the record at [pos] starts and how long it is, if
   [data] holds the whole record.  [len] may be near [max_int], so it is
   compared with what is left instead of added to. *)
let extent data ~pos =
  let c = Varint.cursor ~pos data in
  match Varint.uint c with
  | exception Varint.Corrupt detail ->
    Error (if Varint.remaining c = 0 then Truncated else Malformed detail)
  | len when len > Varint.remaining c - 4 -> Error Truncated
  | len -> Ok (Varint.pos c, len)

let read data ~pos =
  Result.bind (extent data ~pos) (fun (at, len) ->
      let want = Varint.uint32_le (Varint.cursor ~pos:(at + len) data) in
      let got = Checksum.update_sub 0 data ~pos ~len:(at + len - pos) in
      if want <> got then Error (Checksum_mismatch { want; got })
      else Ok (String.sub data at len, at + len + 4))

let count_chunks data ~pos =
  let rec go pos n =
    if pos >= String.length data then n
    else
      match extent data ~pos with
      | Ok (at, len) -> go (at + len + 4) (n + 1)
      | Error _ -> n + 1
  in
  go pos 0
