(** CRC-32 (IEEE 802.3) over strings — the per-record integrity check of
    the durability layer.

    Why CRC-32 rather than a cryptographic hash: the adversary here is
    the storage stack, not an attacker.  A crash tears a record at a
    byte boundary or flips bits in a sector; CRC-32 detects {e every}
    burst error up to 32 bits and all 1–3 bit errors, costs one table
    lookup per byte (taken eight bytes per step, slicing-by-8).
    (Adler-32 would be marginally faster and meaningfully weaker on
    short records — journal entries are often under 100 bytes, where
    Adler's sums stay far from saturating.) *)

(** [crc32 s] is the CRC-32 of [s], in [0, 0xFFFFFFFF]. *)
val crc32 : string -> int

(** [update_sub crc s ~pos ~len] continues [crc] over the [len] bytes of
    [s] from [pos], without a copy: [update_sub (crc32 a) b ~pos:0
    ~len:(String.length b) = crc32 (a ^ b)].  Raises [Invalid_argument]
    on a range outside [s]. *)
val update_sub : int -> string -> pos:int -> len:int -> int

(** [to_hex c] is the fixed-width (8 lowercase hex digits) form. *)
val to_hex : int -> string
