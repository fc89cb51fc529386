type t = {
  mutable marks : Bytes.t; (* bit [id] is set iff [id] is in [ids] *)
  ids : Column.t;
}

let create () = { marks = Bytes.empty; ids = Column.create ~capacity:1 () }

let reserve t id =
  let need = (id lsr 3) + 1 and n = Bytes.length t.marks in
  if need > n then begin
    let bigger = Bytes.make (Int.max need (2 * n)) '\000' in
    Bytes.blit t.marks 0 bigger 0 n;
    t.marks <- bigger
  end

let[@ltree.hot] add t id =
  let byte = id lsr 3 and bit = 1 lsl (id land 7) in
  let bits = Char.code (Bytes.get t.marks byte) in
  if bits land bit = 0 then begin
    Bytes.set t.marks byte (Char.unsafe_chr (bits lor bit));
    Column.push t.ids id
  end

let length t = Column.length t.ids

let drain t f =
  for i = 0 to Column.length t.ids - 1 do
    let id = Column.get t.ids i in
    (* the whole byte is exact: its other set bits are later in [ids] *)
    Bytes.set t.marks (id lsr 3) '\000';
    f id
  done;
  Column.clear t.ids
