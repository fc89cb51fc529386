(* Labels are dyadic fractions in (0, 1), kept as canonical bit strings
   (no trailing zeros, never empty).  The midpoint of two distinct
   dyadics is again dyadic, so a fresh label always exists between any
   two neighbours — and nothing else ever moves. *)

type label = string (* over '0'/'1'; b1 is the 2^-1 bit *)

type cell = {
  lab : label;
  mutable next : cell option;
}

type handle = cell

type t = {
  mutable first : cell option;
  mutable last : cell option;
  mutable n : int;
}

let create () = { first = None; last = None; n = 0 }

(* Compare as fractions: lexicographic with implicit 0-padding; canonical
   form (no trailing zeros) makes prefix-equal imply shorter < longer. *)
let compare_labels a b =
  let la = String.length a and lb = String.length b in
  let rec go i =
    if i >= la && i >= lb then 0
    else
      let ca = if i < la then a.[i] else '0' in
      let cb = if i < lb then b.[i] else '0' in
      if ca = cb then go (i + 1) else Stdlib.compare ca cb
  in
  go 0

let canonical s =
  let n = ref (String.length s) in
  while !n > 0 && s.[!n - 1] = '0' do
    decr n
  done;
  String.sub s 0 !n

(* (a + b) / 2 in exact binary arithmetic: pad to a common width, add
   with carry, and interpret the (width+1)-bit sum one place further
   right. *)
let midpoint a b =
  let w = Int.max (String.length a) (String.length b) in
  let bit s i = if i < String.length s then Char.code s.[i] - 48 else 0 in
  let out = Bytes.make (w + 1) '0' in
  let carry = ref 0 in
  for i = w - 1 downto 0 do
    let sum = bit a i + bit b i + !carry in
    Bytes.set out (i + 1) (Char.chr (48 + (sum land 1)));
    carry := sum lsr 1
  done;
  Bytes.set out 0 (Char.chr (48 + !carry));
  canonical (Bytes.to_string out)

(* The virtual upper bound 1 is handled without an explicit "1" (whose
   value as a label would be 1/2): (a + 1) / 2 is "1" followed by [a]
   shifted one position right. *)
let midpoint_with_one a = canonical ("1" ^ a)

let link t ~prev ~next lab =
  let cell = { lab; next } in
  (match prev with Some p -> p.next <- Some cell | None -> t.first <- Some cell);
  if Option.is_none next then t.last <- Some cell;
  t.n <- t.n + 1;
  cell

let insert_after t h =
  let lab =
    match h.next with
    | None -> midpoint_with_one h.lab
    | Some b -> midpoint h.lab b.lab
  in
  link t ~prev:(Some h) ~next:h.next lab

let bulk_load n =
  let t = create () in
  if n = 0 then (t, [||])
  else begin
    (* Spread evenly: i-th label = (i + 1) / 2^k with 2^k > n. *)
    let k = ref 1 in
    while 1 lsl !k <= n do
      incr k
    done;
    let to_bits v =
      let buf = Bytes.make !k '0' in
      for j = 0 to !k - 1 do
        if v land (1 lsl (!k - 1 - j)) <> 0 then Bytes.set buf j '1'
      done;
      canonical (Bytes.to_string buf)
    in
    let handles =
      Array.init n (fun i ->
          let lab = to_bits (i + 1) in
          let prev = t.last in
          link t ~prev ~next:None lab)
    in
    (t, handles)
  end

let max_bits t =
  let rec go acc = function
    | None -> acc
    | Some c -> go (Int.max acc (String.length c.lab)) c.next
  in
  go 0 t.first

let check t =
  let count = ref 0 in
  let rec go prev = function
    | None -> ()
    | Some c ->
      incr count;
      (match prev with
       | Some p ->
         if compare_labels p.lab c.lab >= 0 then
           failwith "Bitstring_label: labels out of order"
       | None -> ());
      if c.lab = "" then failwith "Bitstring_label: empty label";
      go (Some c) c.next
  in
  go None t.first;
  if !count <> t.n then failwith "Bitstring_label: length out of sync"
