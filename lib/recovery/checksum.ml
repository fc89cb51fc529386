(* CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320), table-driven,
   eight bytes per step.
   Native ints are at least 63 bits on every platform we build for, so
   the 32-bit arithmetic is plain [land]/[lxor]/[lsr] with a final
   mask. *)

let mask = 0xFFFFFFFF

(* Slicing-by-8: table [k] (entries [256k .. 256k+255] of the one flat
   array) advances a CRC by a byte followed by [k] zero bytes, so eight
   table lookups consume eight input bytes at once.  Table 0 is the
   classic byte-at-a-time table. *)
let tables =
  lazy
    (let t = Array.make (8 * 256) 0 in
     for n = 0 to 255 do
       let c = ref n in
       for _ = 0 to 7 do
         if !c land 1 = 1 then c := 0xEDB88320 lxor (!c lsr 1)
         else c := !c lsr 1
       done;
       t.(n) <- !c
     done;
     for k = 1 to 7 do
       for n = 0 to 255 do
         let prev = t.((256 * (k - 1)) + n) in
         t.((256 * k) + n) <- (prev lsr 8) lxor t.(prev land 0xFF)
       done
     done;
     t)

let[@inline] word s i = Int32.to_int (String.get_int32_le s i) land mask

let update_sub crc s ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Checksum.update_sub";
  let t = Lazy.force tables in
  let c = ref (crc lxor mask land mask) in
  let i = ref pos in
  let stop = pos + len in
  while !i + 8 <= stop do
    let lo = word s !i lxor !c and hi = word s (!i + 4) in
    c :=
      Array.unsafe_get t (1792 + (lo land 0xFF))
      lxor Array.unsafe_get t (1536 + ((lo lsr 8) land 0xFF))
      lxor Array.unsafe_get t (1280 + ((lo lsr 16) land 0xFF))
      lxor Array.unsafe_get t (1024 + (lo lsr 24))
      lxor Array.unsafe_get t (768 + (hi land 0xFF))
      lxor Array.unsafe_get t (512 + ((hi lsr 8) land 0xFF))
      lxor Array.unsafe_get t (256 + ((hi lsr 16) land 0xFF))
      lxor Array.unsafe_get t (hi lsr 24);
    i := !i + 8
  done;
  while !i < stop do
    let byte = Char.code (String.unsafe_get s !i) in
    c := Array.unsafe_get t ((!c lxor byte) land 0xFF) lxor (!c lsr 8);
    incr i
  done;
  !c lxor mask land mask

let crc32 s = update_sub 0 s ~pos:0 ~len:(String.length s)

let to_hex c = Printf.sprintf "%08x" (c land mask)

let of_hex s =
  if String.length s <> 8 then None
  else
    match int_of_string_opt ("0x" ^ s) with
    | Some v when v >= 0 && v <= mask -> Some v
    | Some _ | None -> None
