module Int_tbl = Ltree_metrics.Int_tbl
module Span = Ltree_obs.Span
module Column = Ltree_core.Column

(* Incremental repairs are the index's whole point: this histogram shows
   how small the merged batches stay relative to full rebuilds. *)
let merged_rows_hist =
  Ltree_obs.Registry.histogram ~name:"relstore_index_merged_rows"
    ~help:"Rows merged into a per-tag label index per incremental repair"
    ~bounds:(Ltree_obs.Histogram.linear_bounds ~start:0. ~step:8. ~count:16)
    ()

type entry = {
  starts : Column.t;
  ends : Column.t;
  rids : Column.t;
  mutable len : int;
  mutable stamp : int;
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
    len = 0;
    stamp = -1 }

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
  mutable generation : int;
  mutable repairs : int;
  mutable full_rebuilds : int;
  mutable merged_rows : int;
  (* Reused repair scratch: the changed batch of one tag.  Grown once,
     never dropped — repairs allocate nothing in steady state. *)
  ins_s : Column.t;
  ins_e : Column.t;
  ins_r : Column.t;
  (* Touched-rid bitset for the survivor pass (one bit test per row
     instead of one hash probe). *)
  rmark : Column.t;
  ws : workspace;
}

let create () =
  { tags = Hashtbl.create 64;
    pending = Hashtbl.create 16;
    generation = 0;
    repairs = 0;
    full_rebuilds = 0;
    merged_rows = 0;
    ins_s = Column.create ~capacity:64 ();
    ins_e = Column.create ~capacity:64 ();
    ins_r = Column.create ~capacity:64 ();
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
  if Hashtbl.mem t.tags tag then begin
    let set =
      match Hashtbl.find_opt t.pending tag with
      | Some set -> set
      | None ->
        let set = Int_tbl.create 8 in
        Hashtbl.replace t.pending tag set;
        set
    in
    Int_tbl.replace set rid ()
  end

let invalidate_all t =
  t.generation <- t.generation + 1;
  Hashtbl.reset t.tags;
  Hashtbl.reset t.pending

exception Dirty

(* The allocation-free lookup the zero-alloc query spine rides: a clean
   materialized entry or the [Dirty] escape to the repairing path.
   [Hashtbl.find] (not [find_opt]) so the hit path builds no option. *)
let[@ltree.hot] clean t tag =
  match Hashtbl.find t.tags tag with
  | exception Not_found -> raise Dirty
  | e -> if Hashtbl.mem t.pending tag then raise Dirty else e

(* Build a tag's entry from scratch: fetch every row id, drop the dead,
   sort by start.  Row ids arrive in insertion order, which is document
   preorder for a bulk shred, so the already-sorted check in
   {!Column.sort3} keeps bulk builds linear. *)
let rebuild t counters ~rids_of_tag ~fetch tag =
  Span.event ~attrs:[ ("tag", tag) ] "relstore.index_rebuild";
  let ids = rids_of_tag tag in
  let cap = Int.max 16 (List.length ids) in
  let entry = create_entry ~capacity:cap () in
  entry.stamp <- t.generation;
  List.iter
    (fun rid ->
      let s, e, dead = fetch rid in
      if not dead then begin
        Column.push entry.starts s;
        Column.push entry.ends e;
        Column.push entry.rids rid
      end)
    ids;
  let live = Column.length entry.starts in
  Column.sort3 counters entry.starts entry.ends entry.rids live;
  entry.len <- live;
  Hashtbl.replace t.tags tag entry;
  Hashtbl.remove t.pending tag;
  t.full_rebuilds <- t.full_rebuilds + 1;
  entry

let[@inline] touched_bit mark maxrid rid =
  rid <= maxrid
  && Column.get mark (rid lsr 5) land (1 lsl (rid land 31)) <> 0

(* Repair one tag in place: drop every touched (or tombstoned) row from
   the sorted survivors in one compaction pass, re-fetch the touched
   rows into the reused batch scratch, sort that small batch, and merge
   backwards through the entry's own (reserved) columns — never
   re-sorting the untouched bulk and never allocating fresh arrays. *)
let repair t counters ~fetch tag entry touched =
  let n = entry.len in
  let s = entry.starts and e = entry.ends and r = entry.rids in
  (* Scatter the touched rids into the reused bitset; the survivor scan
     below then costs one bit test per row. *)
  let maxrid = Int_tbl.fold (fun rid () m -> Int.max rid m) touched (-1) in
  let words = (maxrid + 32) lsr 5 in
  Column.reserve t.rmark words;
  Column.set_len t.rmark 0;
  for i = 0 to words - 1 do
    Column.set t.rmark i 0
  done;
  Int_tbl.iter
    (fun rid () ->
      let w = rid lsr 5 in
      Column.set t.rmark w (Column.get t.rmark w lor (1 lsl (rid land 31))))
    touched;
  (* Survivors keep their sorted order; dead rows can only be pending
     (tombstoning goes through the sync layer, which logs the rid), so
     this pass is also the lazy tombstone compaction. *)
  let ns = ref 0 in
  for i = 0 to n - 1 do
    let rid = Column.get r i in
    if not (touched_bit t.rmark maxrid rid) then begin
      Column.set s !ns (Column.get s i);
      Column.set e !ns (Column.get e i);
      Column.set r !ns rid;
      incr ns
    end
  done;
  Column.clear t.ins_s;
  Column.clear t.ins_e;
  Column.clear t.ins_r;
  Int_tbl.iter
    (fun rid () ->
      let s', e', dead = fetch rid in
      if not dead then begin
        Column.push t.ins_s s';
        Column.push t.ins_e e';
        Column.push t.ins_r rid
      end)
    touched;
  let ni = Column.length t.ins_s in
  Column.sort3 counters t.ins_s t.ins_e t.ins_r ni;
  let total = !ns + ni in
  Column.reserve s total;
  Column.reserve e total;
  Column.reserve r total;
  (* Backward galloping merge, in place: binary-search each insertion's
     splice point from the top (charging log comparisons per probe) and
     shift the surviving run right in one descending sweep, largest
     keys first, so no survivor is read after being overwritten. *)
  let o = ref (total - 1) in
  let hi = ref !ns in
  for j = ni - 1 downto 0 do
    let key = Column.get t.ins_s j in
    let split = Column.upper_bound_sub counters s ~hi:!hi key in
    for k = !hi - 1 downto split do
      let dst = !o - (!hi - 1 - k) in
      Column.set s dst (Column.get s k);
      Column.set e dst (Column.get e k);
      Column.set r dst (Column.get r k)
    done;
    o := !o - (!hi - split);
    Column.set s !o key;
    Column.set e !o (Column.get t.ins_e j);
    Column.set r !o (Column.get t.ins_r j);
    decr o;
    hi := split
  done;
  entry.len <- total;
  Column.set_len s total;
  Column.set_len e total;
  Column.set_len r total;
  entry.stamp <- t.generation;
  Hashtbl.remove t.pending tag;
  t.repairs <- t.repairs + 1;
  t.merged_rows <- t.merged_rows + ni;
  Span.event ~attrs:[ ("tag", tag) ] "relstore.index_repair";
  Ltree_obs.Histogram.observe_int merged_rows_hist ni;
  entry

let entry t counters ~rids_of_tag ~fetch tag =
  match Hashtbl.find_opt t.tags tag with
  | None -> rebuild t counters ~rids_of_tag ~fetch tag
  | Some entry -> (
      match Hashtbl.find_opt t.pending tag with
      | None -> entry
      | Some touched when Int_tbl.length touched = 0 ->
        Hashtbl.remove t.pending tag;
        entry
      | Some touched -> repair t counters ~fetch tag entry touched)

(* First position in [e] with start > key (binary search; one comparison
   charged per probe). *)
let[@ltree.hot] upper_bound counters e key =
  Column.upper_bound_sub counters e.starts ~hi:e.len key

let check t ~fetch =
  Hashtbl.iter
    (fun tag entry ->
      if not (Hashtbl.mem t.pending tag) then begin
        if
          Stdlib.not (Column.length entry.starts = entry.len)
          || Stdlib.not (Column.length entry.ends = entry.len)
          || Stdlib.not (Column.length entry.rids = entry.len)
        then failwith "Label_index: column lengths disagree with entry";
        for i = 0 to entry.len - 1 do
          if
            i > 0
            && Column.get_checked entry.starts i
               <= Column.get_checked entry.starts (i - 1)
          then failwith "Label_index: starts not strictly increasing";
          let s, e, dead = fetch (Column.get_checked entry.rids i) in
          if dead then failwith "Label_index: clean entry holds a dead row";
          if
            not (s = Column.get_checked entry.starts i)
            || not (e = Column.get_checked entry.ends i)
          then failwith "Label_index: clean entry disagrees with its row"
        done
      end)
    t.tags
