exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun m -> raise (Corrupt m)) fmt

let rec add buf n =
  if n < 0 then invalid_arg "Varint.add: negative value"
  else if n < 0x80 then Buffer.add_char buf (Char.unsafe_chr n)
  else begin
    Buffer.add_char buf (Char.unsafe_chr (n land 0x7F lor 0x80));
    add buf (n lsr 7)
  end

type cursor = { data : string; mutable pos : int }

let cursor data = { data; pos = 0 }
let pos c = c.pos
let remaining c = String.length c.data - c.pos

(* A non-negative OCaml int has at most 62 significant bits: nine
   groups of seven, the ninth (at shift 56) holding only bits 56-61. *)
let uint c =
  let data = c.data in
  let len = String.length data in
  let acc = ref 0 and shift = ref 0 and more = ref true in
  while !more do
    if c.pos >= len then corrupt "truncated varint at byte %d" c.pos;
    let b = Char.code (String.unsafe_get data c.pos) in
    c.pos <- c.pos + 1;
    if !shift = 56 && b >= 0x40 then
      corrupt "overlong varint ending at byte %d" c.pos;
    acc := !acc lor ((b land 0x7F) lsl !shift);
    if b < 0x80 then begin
      (* A zero final group after the first is a padded encoding: every
         value has exactly one. *)
      if b = 0 && !shift > 0 then
        corrupt "non-minimal varint ending at byte %d" c.pos;
      more := false
    end
    else shift := !shift + 7
  done;
  !acc

let count c what =
  let n = uint c in
  if n > remaining c then
    corrupt "%s count %d exceeds the %d bytes left" what n (remaining c);
  n

let expect c lit =
  let n = String.length lit in
  if
    remaining c < n
    || not (String.equal (String.sub c.data c.pos n) lit)
  then corrupt "expected %S at byte %d" lit c.pos;
  c.pos <- c.pos + n

let uint32_le c =
  if remaining c < 4 then corrupt "truncated 32-bit field at byte %d" c.pos;
  let v = Int32.to_int (String.get_int32_le c.data c.pos) land 0xFFFFFFFF in
  c.pos <- c.pos + 4;
  v

let rest c =
  let s = String.sub c.data c.pos (remaining c) in
  c.pos <- String.length c.data;
  s
