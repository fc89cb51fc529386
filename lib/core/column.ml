module Counters = Ltree_metrics.Counters
module A = Bigarray.Array1

type buf = (int, Bigarray.int_elt, Bigarray.c_layout) A.t

type t = { mutable buf : buf; mutable len : int }

let make_buf cap : buf = A.create Bigarray.int Bigarray.c_layout cap

let create ?(capacity = 16) () =
  { buf = make_buf (Int.max 1 capacity); len = 0 }

let length t = t.len
let clear t = t.len <- 0

let set_len t n =
  if n < 0 || n > A.dim t.buf then invalid_arg "Column.set_len";
  t.len <- n

let[@inline] get t i = A.unsafe_get t.buf i
let[@inline] set t i v = A.unsafe_set t.buf i v

let get_checked t i =
  if i < 0 || i >= t.len then invalid_arg "Column.get_checked";
  A.unsafe_get t.buf i

(* Doubling growth.  The only allocation a column ever performs: once
   grown, the buffer is reused across clears, repairs and queries, so
   steady-state hot paths never arrive here. *)
let[@ltree.cold] reserve t need =
  let cap = A.dim t.buf in
  if need > cap then begin
    let target = ref cap in
    while !target < need do
      target := !target * 2
    done;
    let nbuf = make_buf !target in
    for i = 0 to t.len - 1 do
      A.unsafe_set nbuf i (A.unsafe_get t.buf i)
    done;
    t.buf <- nbuf
  end

let[@inline] [@ltree.hot] push t v =
  if t.len = A.dim t.buf then (reserve t (t.len + 1) [@ltree.cold]);
  A.unsafe_set t.buf t.len v;
  t.len <- t.len + 1

let unsafe_buf t = t.buf

let[@ltree.hot] gather src ~idx dst =
  let n = idx.len in
  if A.dim dst.buf < n then (reserve dst n [@ltree.cold]);
  for i = 0 to n - 1 do
    A.unsafe_set dst.buf i (A.unsafe_get src.buf (A.unsafe_get idx.buf i))
  done;
  dst.len <- n

let swap a b =
  let buf = a.buf and len = a.len in
  a.buf <- b.buf;
  a.len <- b.len;
  b.buf <- buf;
  b.len <- len

let copy_sub t pos len =
  if pos < 0 || len < 0 || pos + len > t.len then invalid_arg "Column.copy_sub";
  let out = create ~capacity:(Int.max 1 len) () in
  if len > 0 then A.blit (A.sub t.buf pos len) (A.sub out.buf 0 len);
  out.len <- len;
  out

let to_list t =
  let out = ref [] in
  for i = t.len - 1 downto 0 do
    out := A.unsafe_get t.buf i :: !out
  done;
  !out

(* Binary search, written as a tail recursion so the hot callers stay
   register-only: no refs, no closures. *)
let[@ltree.hot] rec ub_rec counters (buf : buf) key lo hi =
  if lo >= hi then lo
  else begin
    Counters.add_comparison counters 1;
    let mid = (lo + hi) / 2 in
    if A.unsafe_get buf mid <= key then ub_rec counters buf key (mid + 1) hi
    else ub_rec counters buf key lo mid
  end

let[@ltree.hot] upper_bound_sub counters t ~hi key =
  ub_rec counters t.buf key 0 hi

(* {1 sort_dedup: in-place, allocation-free}

   The values are scattered into a bitset over [min, max] and collected
   back in order, deduplicated, in one sweep: O(n + (max - min) / 32).
   All loop state rides in tail-call arguments; every helper is
   top-level so nothing captures an environment. *)

let rec col_min (buf : buf) n i acc =
  if i >= n then acc
  else
    let v = A.unsafe_get buf i in
    col_min buf n (i + 1) (if v < acc then v else acc)

let rec col_max (buf : buf) n i acc =
  if i >= n then acc
  else
    let v = A.unsafe_get buf i in
    col_max buf n (i + 1) (if v > acc then v else acc)

let rec zero_words (buf : buf) i n =
  if i < n then begin
    A.unsafe_set buf i 0;
    zero_words buf (i + 1) n
  end

let rec scatter (buf : buf) n i (mark : buf) base =
  if i < n then begin
    let d = A.unsafe_get buf i - base in
    let w = d lsr 5 in
    A.unsafe_set mark w (A.unsafe_get mark w lor (1 lsl (d land 31)));
    scatter buf n (i + 1) mark base
  end

(* Peel a word's set bits from the bottom, appending the decoded values
   (ascending) at [w_out]. *)
let rec collect_word w value (out : buf) w_out =
  if w = 0 then w_out
  else if w land 1 = 1 then begin
    A.unsafe_set out w_out value;
    collect_word (w lsr 1) (value + 1) out (w_out + 1)
  end
  else collect_word (w lsr 1) (value + 1) out w_out

let rec collect_words (mark : buf) words wi base (out : buf) w_out =
  if wi >= words then w_out
  else begin
    let w = A.unsafe_get mark wi in
    let w_out =
      if w = 0 then w_out
      else collect_word w (base + (wi lsl 5)) out w_out
    in
    collect_words mark words (wi + 1) base out w_out
  end

let[@ltree.hot] sort_dedup t ~mark =
  let n = t.len in
  if n > 1 then begin
    let first = A.unsafe_get t.buf 0 in
    let mn = col_min t.buf n 1 first in
    let words = ((col_max t.buf n 1 first - mn) lsr 5) + 1 in
    (reserve mark words [@ltree.cold]);
    zero_words mark.buf 0 words;
    scatter t.buf n 0 mark.buf mn;
    t.len <- collect_words mark.buf words 0 mn t.buf 0
  end

(* {1 sort3: co-sort three parallel columns by the first} *)

(* Insertion step: shift triples right until [sv]'s slot opens.  One
   comparison charged per probed key, like the comparator the permuting
   sort used to pay. *)
let rec ins_shift counters (sb : buf) (eb : buf) (rb : buf) j sv ev rv =
  if
    j > 0
    && (Counters.add_comparison counters 1;
        A.unsafe_get sb (j - 1) > sv)
  then begin
    A.unsafe_set sb j (A.unsafe_get sb (j - 1));
    A.unsafe_set eb j (A.unsafe_get eb (j - 1));
    A.unsafe_set rb j (A.unsafe_get rb (j - 1));
    ins_shift counters sb eb rb (j - 1) sv ev rv
  end
  else begin
    A.unsafe_set sb j sv;
    A.unsafe_set eb j ev;
    A.unsafe_set rb j rv
  end

let insertion_sort3 counters (sb : buf) (eb : buf) (rb : buf) n =
  for i = 1 to n - 1 do
    ins_shift counters sb eb rb i (A.unsafe_get sb i) (A.unsafe_get eb i)
      (A.unsafe_get rb i)
  done

let rec sorted_from counters (buf : buf) i n =
  i >= n
  || (Counters.add_comparison counters 1;
      A.unsafe_get buf (i - 1) <= A.unsafe_get buf i)
     && sorted_from counters buf (i + 1) n

let rec sift3 counters (sb : buf) (eb : buf) (rb : buf) n i sv ev rv =
  let l = (2 * i) + 1 in
  if l >= n then begin
    A.unsafe_set sb i sv;
    A.unsafe_set eb i ev;
    A.unsafe_set rb i rv
  end
  else begin
    let r = l + 1 in
    let c =
      if
        r < n
        && (Counters.add_comparison counters 1;
            A.unsafe_get sb r > A.unsafe_get sb l)
      then r
      else l
    in
    Counters.add_comparison counters 1;
    if A.unsafe_get sb c > sv then begin
      A.unsafe_set sb i (A.unsafe_get sb c);
      A.unsafe_set eb i (A.unsafe_get eb c);
      A.unsafe_set rb i (A.unsafe_get rb c);
      sift3 counters sb eb rb n c sv ev rv
    end
    else begin
      A.unsafe_set sb i sv;
      A.unsafe_set eb i ev;
      A.unsafe_set rb i rv
    end
  end

let heapsort3 counters (sb : buf) (eb : buf) (rb : buf) n =
  for i = (n / 2) - 1 downto 0 do
    sift3 counters sb eb rb n i (A.unsafe_get sb i) (A.unsafe_get eb i)
      (A.unsafe_get rb i)
  done;
  for k = n - 1 downto 1 do
    let sv = A.unsafe_get sb k
    and ev = A.unsafe_get eb k
    and rv = A.unsafe_get rb k in
    A.unsafe_set sb k (A.unsafe_get sb 0);
    A.unsafe_set eb k (A.unsafe_get eb 0);
    A.unsafe_set rb k (A.unsafe_get rb 0);
    sift3 counters sb eb rb k 0 sv ev rv
  done

let sort3 counters s e r n =
  if n < 0 || n > A.dim s.buf || n > A.dim e.buf || n > A.dim r.buf then
    invalid_arg "Column.sort3";
  if n > 1 then begin
    if n <= 48 then insertion_sort3 counters s.buf e.buf r.buf n
    else if sorted_from counters s.buf 1 n then ()
    else heapsort3 counters s.buf e.buf r.buf n
  end
