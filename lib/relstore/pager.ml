module Counters = Ltree_metrics.Counters
module Column = Ltree_core.Column

(* Residency and dirty bits live in dense per-table columns indexed by
   page number: [clocks.(table)] maps a page to its last-use clock (-1
   when not resident), [dirties.(table)] to its dirty flag.  A hit is
   then two array loads and a store — no tuple key, no hashing, no
   generic comparison, no list or heap maintenance — which is what lets
   the row fetches on the query emit path stay on the R9-audited
   allocation-free spine.

   Each resident page also owns a slot [< capacity], its [(table,
   page)] kept in [slot_table]/[slot_page].  [heap] is a binary min-heap
   over the resident slots of packed [key lsl slot_bits lor slot] ints,
   where [key] is a clock no later than the page's live clock: a hit
   bumps only the live clock and leaves the heap stale.  Eviction
   re-keys stale tops lazily (see [evict_lru]), so the victim search
   costs O(log capacity) amortized instead of a scan of every page. *)
type t = {
  capacity : int;
  counters : Counters.t;
  mutable clocks : Column.t array;
  mutable dirties : Column.t array;
  slot_bits : int;
  slot_table : Column.t;
  slot_page : Column.t;
  heap : Column.t;
  mutable dirty_count : int;
  mutable clock : int;
  mutable next_table : int;
}

(* Packed heap entries keep [62 - slot_bits] bits for the clock; capping
   the pool at 2^24 pages leaves 2^38 touches of headroom. *)
let max_capacity = 1 lsl 24

let create ?(capacity = 64) counters =
  if capacity < 1 || capacity > max_capacity then
    invalid_arg "Pager.create: capacity must be in [1, 2^24]";
  let bits = ref 0 in
  while 1 lsl !bits < capacity do
    incr bits
  done;
  { capacity; counters; clocks = [||]; dirties = [||]; slot_bits = !bits;
    slot_table = Column.create (); slot_page = Column.create ();
    heap = Column.create (); dirty_count = 0; clock = 0; next_table = 0 }

let counters t = t.counters

(* Make [clocks.(table)]/[dirties.(table)] exist and cover [page].
   Growth only — the columns keep their buffers for the pager's
   lifetime, so steady-state touches never come here. *)
let[@ltree.cold] grow t ~table ~page =
  let n = Array.length t.clocks in
  if table >= n then begin
    let nn = Int.max (table + 1) (Int.max 4 (2 * n)) in
    t.clocks <-
      Array.init nn (fun i ->
          if i < n then t.clocks.(i) else Column.create ~capacity:16 ());
    t.dirties <-
      Array.init nn (fun i ->
          if i < n then t.dirties.(i) else Column.create ~capacity:16 ())
  end;
  let c = t.clocks.(table) and d = t.dirties.(table) in
  while Column.length c <= page do
    Column.push c (-1);
    Column.push d 0
  done

(* Dirty pages are always resident (a write touches its page first, and
   eviction writes back before it frees a slot), so every caller passes
   a resident page. *)
let write_back t ~table ~page =
  let d = t.dirties.(table) in
  if Column.get d page = 1 then begin
    Counters.add_page_write t.counters 1;
    Column.set d page 0;
    t.dirty_count <- t.dirty_count - 1
  end

(* Move [v] down from the root of the [n]-entry heap [h] to its place. *)
let rec sift_down h n i v =
  let l = (2 * i) + 1 in
  if l >= n then Column.set h i v
  else begin
    let r = l + 1 in
    let c = if r < n && Column.get h r < Column.get h l then r else l in
    let cv = Column.get h c in
    if cv < v then begin
      Column.set h i cv;
      sift_down h n c v
    end
    else Column.set h i v
  end

(* Exact LRU.  Every entry [x] has [live x >= key x >= key top], and
   clocks are unique, so a top whose key is its live clock is the least
   recently used page: write it back and hand its slot to
   [(table, page)], keyed at the current clock.  A stale top is re-keyed
   to its live clock and sifted down; each re-key consumes at least one
   hit since the entry was last keyed. *)
let rec evict_lru t ~table ~page =
  let h = t.heap and bits = t.slot_bits in
  let top = Column.get h 0 in
  let s = top land ((1 lsl bits) - 1) in
  let vt = Column.get t.slot_table s and vp = Column.get t.slot_page s in
  let live = Column.get t.clocks.(vt) vp in
  if live > top lsr bits then begin
    sift_down h (Column.length h) 0 ((live lsl bits) lor s);
    evict_lru t ~table ~page
  end
  else begin
    write_back t ~table:vt ~page:vp;
    Column.set t.clocks.(vt) vp (-1);
    Column.set t.slot_table s table;
    Column.set t.slot_page s page;
    sift_down h (Column.length h) 0 ((t.clock lsl bits) lor s)
  end

(* Residency miss: count the read, then evict at capacity or take the
   next free slot.  A fresh entry carries the current clock, the largest
   key in the heap, so appending it keeps the heap ordered. *)
let touch_miss t ~table ~page =
  Counters.add_page_read t.counters 1;
  let n = Column.length t.heap in
  if n >= t.capacity then (evict_lru t ~table ~page [@ltree.cold])
  else begin
    Column.push t.slot_table table;
    Column.push t.slot_page page;
    Column.push t.heap ((t.clock lsl t.slot_bits) lor n)
  end;
  Column.set t.clocks.(table) page t.clock

(* Read-only touch, no optional argument: the optional default would
   compile to an inner closure, which the R9 audit of hot callers (row
   fetches on the query emit path) rightly rejects. *)
let[@ltree.hot] touch_read t ~table ~page =
  t.clock <- t.clock + 1;
  if
    table >= Array.length t.clocks
    || page >= Column.length (Array.unsafe_get t.clocks table)
  then (grow t ~table ~page [@ltree.cold]);
  let c = Array.unsafe_get t.clocks table in
  if Column.get c page >= 0 then Column.set c page t.clock
  else touch_miss t ~table ~page

let touch ?(write = false) t ~table ~page =
  touch_read t ~table ~page;
  if write then begin
    let d = t.dirties.(table) in
    if Column.get d page = 0 then begin
      Column.set d page 1;
      t.dirty_count <- t.dirty_count + 1
    end
  end

let resident t = Column.length t.heap

(* Every write-back — eviction or flush — goes through [write_back], so
   a page's dirty bit is consumed exactly once and the page_write count
   is the same whether the page left the pool by eviction or by flush. *)
let flush_dirty t =
  Ltree_obs.Span.with_ ~name:"pager.flush" ~counters:t.counters (fun () ->
      let before = t.dirty_count in
      for s = 0 to resident t - 1 do
        write_back t ~table:(Column.get t.slot_table s)
          ~page:(Column.get t.slot_page s)
      done;
      before - t.dirty_count)

let flush t =
  ignore (flush_dirty t);
  for s = 0 to resident t - 1 do
    Column.set t.clocks.(Column.get t.slot_table s) (Column.get t.slot_page s)
      (-1)
  done;
  Column.clear t.slot_table;
  Column.clear t.slot_page;
  Column.clear t.heap

let fresh_table_id t =
  let id = t.next_table in
  t.next_table <- id + 1;
  id
