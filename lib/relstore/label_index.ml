module Int_tbl = Ltree_metrics.Int_tbl
module Span = Ltree_obs.Span
module Column = Ltree_core.Column
module BA = Bigarray.Array1

type entry = {
  starts : Column.t;
  ends : Column.t;
  rids : Column.t;
  levels : Column.t;
  ids : Column.t;
  mutable len : int;
  mutable stamp : int;
}

type row = {
  mutable r_start : int;
  mutable r_end : int;
  mutable r_level : int;
  mutable r_id : int;
  mutable r_dead : bool;
}

type jstate = {
  mutable js_ai : int;
  mutable js_di : int;
  mutable js_sp : int;
  mutable js_n : int;
  mutable js_cmp : int;
  mutable js_done : bool;
}

type workspace = {
  w_stack : Column.t;
  w_spos : Column.t;
  w_dpos : Column.t;
  w_apos : Column.t;
  w_out : Column.t;
  w_mark : Column.t;
  w_js : jstate;
  w_steps : entry array;
}

let create_entry ?(capacity = 16) () =
  { starts = Column.create ~capacity ();
    ends = Column.create ~capacity ();
    rids = Column.create ~capacity ();
    levels = Column.create ~capacity ();
    ids = Column.create ~capacity ();
    len = 0;
    stamp = -1 }

let copy e =
  let n = e.len in
  { starts = Column.copy_sub e.starts 0 n;
    ends = Column.copy_sub e.ends 0 n;
    rids = Column.copy_sub e.rids 0 n;
    levels = Column.copy_sub e.levels 0 n;
    ids = Column.copy_sub e.ids 0 n;
    len = n;
    stamp = e.stamp }

let create_row () =
  { r_start = 0; r_end = 0; r_level = 0; r_id = 0; r_dead = false }

let create_workspace () =
  { w_stack = Column.create ~capacity:64 ();
    w_spos = Column.create ~capacity:64 ();
    w_dpos = Column.create ~capacity:256 ();
    w_apos = Column.create ~capacity:256 ();
    w_out = Column.create ~capacity:256 ();
    w_mark = Column.create ~capacity:256 ();
    w_js =
      { js_ai = 0; js_di = 0; js_sp = 0; js_n = 0; js_cmp = 0;
        js_done = false };
    w_steps = [| create_entry (); create_entry () |] }

type stats = { repairs : int; full_rebuilds : int; merged_rows : int }

type t = {
  tags : (string, entry) Hashtbl.t;
  pending : (string, unit Int_tbl.t) Hashtbl.t;
  reread : (string, unit) Hashtbl.t; (* pending tags to re-read whole *)
  mutable generation : int;
  mutable repairs : int;
  mutable full_rebuilds : int;
  mutable merged_rows : int;
  (* Reused scratch, grown once and never dropped, so repairs allocate
     nothing in steady state: the row every fetch fills, the changed
     batch of one tag, and the position and gather columns that carry
     a sort's permutation to the columns [sort3] does not move. *)
  row : row;
  batch : entry;
  perm : Column.t;
  tmp : Column.t;
  (* Touched-rid bitset for the survivor pass (one bit test per row
     instead of one hash probe); all zero between repairs. *)
  rmark : Column.t;
  ws : workspace;
}

let create () =
  { tags = Hashtbl.create 64;
    pending = Hashtbl.create 16;
    reread = Hashtbl.create 16;
    generation = 0;
    repairs = 0;
    full_rebuilds = 0;
    merged_rows = 0;
    row = create_row ();
    batch = create_entry ~capacity:64 ();
    perm = Column.create ~capacity:64 ();
    tmp = Column.create ~capacity:64 ();
    rmark = Column.create ~capacity:64 ();
    ws = create_workspace () }

let generation t = t.generation
let workspace t = t.ws

let stats t =
  { repairs = t.repairs;
    full_rebuilds = t.full_rebuilds;
    merged_rows = t.merged_rows }

let note_change t ~tag ~rid =
  t.generation <- t.generation + 1;
  (* Tags never materialized need no repair log: their first access does
     a full build from the row ids anyway. *)
  if Hashtbl.mem t.tags tag then
    match Hashtbl.find t.pending tag with
    | set -> Int_tbl.replace set rid ()
    | exception Not_found ->
      (let set = Int_tbl.create 8 in
       Int_tbl.replace set rid ();
       Hashtbl.replace t.pending tag set)
      [@ltree.cold]

let note_relabeled t =
  t.generation <- t.generation + 1;
  Hashtbl.iter
    (fun tag _ ->
      Hashtbl.replace t.reread tag ();
      if not (Hashtbl.mem t.pending tag) then
        Hashtbl.replace t.pending tag (Int_tbl.create 1))
    t.tags

let rows t = Hashtbl.fold (fun _ e n -> n + e.len) t.tags 0

exception Dirty

(* The allocation-free lookup the zero-alloc query spine rides: a clean
   materialized entry or the [Dirty] escape to the repairing path.
   [Hashtbl.find] (not [find_opt]) so the hit path builds no option. *)
let[@ltree.hot] clean t tag =
  match Hashtbl.find t.tags tag with
  | exception Not_found -> raise Dirty
  | e -> if Hashtbl.mem t.pending tag then raise Dirty else e

let push_row e rid (r : row) =
  Column.push e.starts r.r_start;
  Column.push e.ends r.r_end;
  Column.push e.rids rid;
  Column.push e.levels r.r_level;
  Column.push e.ids r.r_id

(* [e]'s logical length, on the entry and all five columns. *)
let set_lens e n =
  Column.set_len e.starts n;
  Column.set_len e.ends n;
  Column.set_len e.rids n;
  Column.set_len e.levels n;
  Column.set_len e.ids n;
  e.len <- n

let rec is_identity (p : Column.buf) i n =
  i >= n || (BA.unsafe_get p i = i && is_identity p (i + 1) n)

(* Permute [c] by the sorted positions in [t.perm]. *)
let follow t c =
  Column.gather c ~idx:t.perm t.tmp;
  Column.swap c t.tmp

(* Co-sort the first [n] rows of [e] by start.  [sort3] moves the
   starts, the rids and each row's original position, so it makes
   exactly the comparisons the three-column sort always made; the other
   columns then follow the positions, through the [tmp] scratch. *)
let sort_rows t counters e n =
  let p = t.perm in
  Column.reserve p n;
  let pb = Column.unsafe_buf p in
  for i = 0 to n - 1 do
    BA.unsafe_set pb i i
  done;
  Column.set_len p n;
  Column.sort3 counters e.starts e.rids p n;
  if not (is_identity (Column.unsafe_buf p) 0 n) then begin
    follow t e.ends;
    follow t e.levels;
    follow t e.ids
  end

(* Build a tag's entry from scratch: fetch every row id, drop the dead,
   sort by start.  Row ids arrive in insertion order, which is document
   preorder for a bulk shred, so the already-sorted check in
   {!Column.sort3} keeps bulk builds linear. *)
let rebuild t counters ~rids_of_tag ~fetch src tag =
  if Span.enabled () then
    Span.event ~attrs:[ ("tag", tag) ] "relstore.index_rebuild";
  let ids = rids_of_tag src tag in
  let cap = Int.max 16 (List.length ids) in
  let entry = create_entry ~capacity:cap () in
  entry.stamp <- t.generation;
  List.iter
    (fun rid ->
      fetch src rid t.row;
      if not t.row.r_dead then push_row entry rid t.row)
    ids;
  let live = Column.length entry.starts in
  sort_rows t counters entry live;
  entry.len <- live;
  Hashtbl.replace t.tags tag entry;
  Hashtbl.remove t.pending tag;
  Hashtbl.remove t.reread tag;
  t.full_rebuilds <- t.full_rebuilds + 1;
  entry

let[@inline] touched_bit (mark : Column.buf) maxrid rid =
  rid <= maxrid
  && BA.unsafe_get mark (rid lsr 5) land (1 lsl (rid land 31)) <> 0

(* Repair one tag in place: drop every touched (or tombstoned) row from
   the sorted survivors in one compaction pass, re-fetch the touched
   rows into the reused batch scratch, sort that small batch, and merge
   backwards through the entry's own (reserved) columns — never
   re-sorting the untouched bulk and never allocating fresh arrays.
   The row loops index the columns' raw buffers, as the join kernels
   do: a column call per value costs more than the move it makes. *)
let repair t counters ~fetch src tag entry touched =
  let n = entry.len in
  (* A re-read tag's rows take their current labels in place (their
     order holds); its dead rows join the touched ones. *)
  if Hashtbl.mem t.reread tag then begin
    Hashtbl.remove t.reread tag;
    for i = 0 to n - 1 do
      let rid = Column.get entry.rids i in
      fetch src rid t.row;
      if t.row.r_dead then Int_tbl.replace touched rid ()
      else begin
        Column.set entry.starts i t.row.r_start;
        Column.set entry.ends i t.row.r_end;
        Column.set entry.levels i t.row.r_level;
        Column.set entry.ids i t.row.r_id
      end
    done
  end;
  (* Scatter the touched rids into the reused bitset; the survivor scan
     below then costs one bit test per row.  The re-fetch clears only
     the touched words, so a large rid costs nothing per repair. *)
  let maxrid = Int_tbl.fold (fun rid () m -> Int.max rid m) touched (-1) in
  let words = (maxrid + 32) lsr 5 in
  while Column.length t.rmark < words do
    Column.push t.rmark 0
  done;
  let mark = Column.unsafe_buf t.rmark in
  Int_tbl.iter
    (fun rid () ->
      let w = rid lsr 5 in
      BA.unsafe_set mark w (BA.unsafe_get mark w lor (1 lsl (rid land 31))))
    touched;
  (* Survivors keep their sorted order; dead rows can only be pending
     (tombstoning goes through the sync layer, which logs the rid), so
     this pass is also the lazy tombstone compaction. *)
  let s = Column.unsafe_buf entry.starts
  and e = Column.unsafe_buf entry.ends
  and r = Column.unsafe_buf entry.rids
  and l = Column.unsafe_buf entry.levels
  and d = Column.unsafe_buf entry.ids in
  let ns = ref 0 in
  for i = 0 to n - 1 do
    let rid = BA.unsafe_get r i in
    if not (touched_bit mark maxrid rid) then begin
      let o = !ns in
      BA.unsafe_set s o (BA.unsafe_get s i);
      BA.unsafe_set e o (BA.unsafe_get e i);
      BA.unsafe_set r o rid;
      BA.unsafe_set l o (BA.unsafe_get l i);
      BA.unsafe_set d o (BA.unsafe_get d i);
      ns := o + 1
    end
  done;
  let b = t.batch in
  set_lens b 0;
  Int_tbl.iter
    (fun rid () ->
      BA.unsafe_set mark (rid lsr 5) 0;
      fetch src rid t.row;
      if not t.row.r_dead then push_row b rid t.row)
    touched;
  let ni = Column.length b.starts in
  sort_rows t counters b ni;
  let total = !ns + ni in
  Column.reserve entry.starts total;
  Column.reserve entry.ends total;
  Column.reserve entry.rids total;
  Column.reserve entry.levels total;
  Column.reserve entry.ids total;
  (* Backward galloping merge, in place: binary-search each insertion's
     splice point from the top (charging log comparisons per probe) and
     shift the surviving run right in one descending sweep, largest
     keys first, so no survivor is read after being overwritten.  The
     reserves above may have moved the buffers: fetch them again. *)
  let s = Column.unsafe_buf entry.starts
  and e = Column.unsafe_buf entry.ends
  and r = Column.unsafe_buf entry.rids
  and l = Column.unsafe_buf entry.levels
  and d = Column.unsafe_buf entry.ids
  and bs = Column.unsafe_buf b.starts
  and be = Column.unsafe_buf b.ends
  and br = Column.unsafe_buf b.rids
  and bl = Column.unsafe_buf b.levels
  and bd = Column.unsafe_buf b.ids in
  let o = ref (total - 1) in
  let hi = ref !ns in
  for j = ni - 1 downto 0 do
    let key = BA.unsafe_get bs j in
    let split = Column.upper_bound_sub counters entry.starts ~hi:!hi key in
    let shift = !o + 1 - !hi in
    for k = !hi - 1 downto split do
      BA.unsafe_set s (k + shift) (BA.unsafe_get s k);
      BA.unsafe_set e (k + shift) (BA.unsafe_get e k);
      BA.unsafe_set r (k + shift) (BA.unsafe_get r k);
      BA.unsafe_set l (k + shift) (BA.unsafe_get l k);
      BA.unsafe_set d (k + shift) (BA.unsafe_get d k)
    done;
    let at = split + shift - 1 in
    BA.unsafe_set s at key;
    BA.unsafe_set e at (BA.unsafe_get be j);
    BA.unsafe_set r at (BA.unsafe_get br j);
    BA.unsafe_set l at (BA.unsafe_get bl j);
    BA.unsafe_set d at (BA.unsafe_get bd j);
    o := at - 1;
    hi := split
  done;
  set_lens entry total;
  entry.stamp <- t.generation;
  Hashtbl.remove t.pending tag;
  t.repairs <- t.repairs + 1;
  t.merged_rows <- t.merged_rows + ni;
  if Span.enabled () then
    Span.event ~attrs:[ ("tag", tag) ] "relstore.index_repair";
  entry

let entry t counters ~rids_of_tag ~fetch src tag =
  match Hashtbl.find_opt t.tags tag with
  | None -> rebuild t counters ~rids_of_tag ~fetch src tag
  | Some entry -> (
      match Hashtbl.find_opt t.pending tag with
      | None -> entry
      | Some touched
        when Int_tbl.length touched = 0 && not (Hashtbl.mem t.reread tag) ->
        Hashtbl.remove t.pending tag;
        entry
      | Some touched -> repair t counters ~fetch src tag entry touched)

(* First position in [e] with start > key (binary search; one comparison
   charged per probe). *)
let[@ltree.hot] upper_bound counters e key =
  Column.upper_bound_sub counters e.starts ~hi:e.len key

let check t ~fetch src =
  let row = create_row () in
  Hashtbl.iter
    (fun tag entry ->
      if not (Hashtbl.mem t.pending tag) then begin
        if
          List.exists
            (fun c -> not (Column.length c = entry.len))
            [ entry.starts; entry.ends; entry.rids; entry.levels; entry.ids ]
        then failwith "Label_index: column lengths disagree with entry";
        for i = 0 to entry.len - 1 do
          if
            i > 0
            && Column.get_checked entry.starts i
               <= Column.get_checked entry.starts (i - 1)
          then failwith "Label_index: starts not strictly increasing";
          fetch src (Column.get_checked entry.rids i) row;
          if row.r_dead then failwith "Label_index: clean entry holds a dead row";
          if
            not (row.r_start = Column.get_checked entry.starts i)
            || not (row.r_end = Column.get_checked entry.ends i)
            || not (row.r_level = Column.get_checked entry.levels i)
            || not (row.r_id = Column.get_checked entry.ids i)
          then failwith "Label_index: clean entry disagrees with its row"
        done
      end)
    t.tags
