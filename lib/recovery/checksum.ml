(* CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320), table-driven.
   Native ints are at least 63 bits on every platform we build for, so
   the 32-bit arithmetic is plain [land]/[lxor]/[lsr] with a final
   mask. *)

let mask = 0xFFFFFFFF

let table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           if !c land 1 = 1 then c := 0xEDB88320 lxor (!c lsr 1)
           else c := !c lsr 1
         done;
         !c land mask))

let update crc s =
  let table = Lazy.force table in
  let c = ref (crc lxor mask) in
  for i = 0 to String.length s - 1 do
    let byte = Char.code (String.unsafe_get s i) in
    c := Array.unsafe_get table ((!c lxor byte) land 0xFF) lxor (!c lsr 8)
  done;
  !c lxor mask land mask

let crc32 s = update 0 s

let to_hex c = Printf.sprintf "%08x" (c land mask)

let of_hex s =
  if String.length s <> 8 then None
  else
    match int_of_string_opt ("0x" ^ s) with
    | Some v when v >= 0 && v <= mask -> Some v
    | Some _ | None -> None
