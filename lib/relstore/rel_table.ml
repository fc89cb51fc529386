type 'a t = {
  pager : Pager.t;
  table_id : int;
  rows_per_page : int;
  page_shift : int;  (* log2 rows_per_page when a power of two, else -1 *)
  mutable rows : 'a array;
  mutable n : int;
}

(* log2 of [v] when it is a power of two, -1 otherwise: lets [page_of]
   replace the integer division — surprisingly expensive next to the
   rest of the hot row-fetch path — with a shift. *)
let shift_of v =
  let rec go s p = if p = v then s else if p > v then -1 else go (s + 1) (p * 2) in
  go 0 1

let create pager ~rows_per_page =
  if rows_per_page < 1 then
    invalid_arg "Rel_table.create: rows_per_page must be >= 1";
  { pager; table_id = Pager.fresh_table_id pager; rows_per_page;
    page_shift = shift_of rows_per_page; rows = [||]; n = 0 }

let length t = t.n

let append t row =
  if t.n = Array.length t.rows then begin
    let cap = Int.max 16 (2 * t.n) in
    let bigger = Array.make cap row in
    Array.blit t.rows 0 bigger 0 t.n;
    t.rows <- bigger
  end;
  t.rows.(t.n) <- row;
  t.n <- t.n + 1;
  t.n - 1

let[@inline] page_of t id =
  if t.page_shift >= 0 then id lsr t.page_shift else id / t.rows_per_page

let[@ltree.hot] get t id =
  if id < 0 || id >= t.n then invalid_arg "Rel_table.get: bad row id";
  Pager.touch_read t.pager ~table:t.table_id ~page:(page_of t id);
  t.rows.(id)

let set t id row =
  if id < 0 || id >= t.n then invalid_arg "Rel_table.set: bad row id";
  Pager.touch ~write:true t.pager ~table:t.table_id ~page:(page_of t id);
  t.rows.(id) <- row

let iter t f =
  for id = 0 to t.n - 1 do
    if id mod t.rows_per_page = 0 then
      Pager.touch t.pager ~table:t.table_id ~page:(page_of t id);
    f id t.rows.(id)
  done

let pages t = if t.n = 0 then 0 else page_of t (t.n - 1) + 1
