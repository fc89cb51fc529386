module Counters = Ltree_metrics.Counters
module Span = Ltree_obs.Span
module Column = Ltree_core.Column
open Shredder

(* Comparisons per structural join, straight off the counter delta the
   join span accumulates -- the paper's query-cost metric. *)
let join_comparisons =
  Ltree_obs.Registry.histogram ~name:"query_join_comparisons"
    ~help:"Label comparisons per structural join query"
    ~bounds:(Ltree_obs.Histogram.log2_bounds ~start:1. ~count:24)
    ()

let observe_join r =
  Ltree_obs.Histogram.observe_int join_comparisons
    (Ltree_obs.Trace.delta r "comparisons")

let ids_of_tag tbl tag = Option.value ~default:[] (Hashtbl.find_opt tbl tag)

(* BFS from a set of node ids: each level is one parent-child self-join
   (probe the parent index, fetch every child row to learn its tag). *)
let edge_descendants_from (store : edge_store) seed desc =
  let result = ref [] in
  let frontier = ref seed in
  let running = ref (match seed with [] -> false | _ :: _ -> true) in
  while !running do
    let next = ref [] in
    List.iter
      (fun parent_id ->
        List.iter
          (fun rid ->
            let row = Rel_table.get store.edge_table rid in
            if String.equal row.e_tag desc then result := row.e_id :: !result;
            if not (String.equal row.e_tag "#text") then
              next := row.e_id :: !next)
          (ids_of_tag store.edge_by_parent parent_id))
      !frontier;
    frontier := !next;
    running := (match !next with [] -> false | _ :: _ -> true)
  done;
  List.sort_uniq Int.compare !result

(* Fetch the node ids of a tag's rows (one input-side scan). *)
let edge_seed (store : edge_store) tag =
  List.map
    (fun rid -> (Rel_table.get store.edge_table rid).e_id)
    (ids_of_tag store.edge_by_tag tag)

let edge_descendants (store : edge_store) ~anc ~desc =
  edge_descendants_from store (edge_seed store anc) desc

let edge_path (store : edge_store) = function
  | [] -> []
  | first :: rest ->
    List.fold_left
      (fun ids tag -> edge_descendants_from store ids tag)
      (List.sort_uniq Int.compare (edge_seed store first))
      rest

let edge_children (store : edge_store) ~parent ~child =
  let result = ref [] in
  List.iter
    (fun rid ->
      let row = Rel_table.get store.edge_table rid in
      List.iter
        (fun crid ->
          let crow = Rel_table.get store.edge_table crid in
          if String.equal crow.e_tag child then result := crow.e_id :: !result)
        (ids_of_tag store.edge_by_parent row.e_id))
    (ids_of_tag store.edge_by_tag parent);
  List.sort_uniq Int.compare !result

(* {1 The sort-on-fetch baseline}

   The pre-index query path, kept as the measured control (and as the
   boxed-list oracle the columnar differential tests drive against):
   every fetch re-sorts the tag's live rows (comparisons charged — that
   sort is exactly the work the incremental index amortizes away), and
   the stack join runs over linked lists. *)

let fetch_rows pager (store : label_store) tag =
  let counters = Pager.counters pager in
  List.map (Rel_table.get store.label_table) (ids_of_tag store.label_by_tag tag)
  |> List.filter (fun r -> not r.l_dead)
  |> List.sort (fun a b ->
         Counters.add_comparison counters 1;
         Int.compare a.l_start b.l_start)

(* The single label self-join: stack-based interval-containment merge.
   One comparison is charged per ancestor examined -- an empty ancestor
   list costs nothing (the paper's cost model counts comparisons made,
   not loop exits). *)
let structural_pairs pager ancs descs ~extra =
  let counters = Pager.counters pager in
  let out = ref [] in
  let stack = ref [] in
  let rec push_opens ancs d_start =
    match ancs with
    | [] -> []
    | (a : label_row) :: rest ->
      Counters.add_comparison counters 1;
      if a.l_start < d_start then begin
        stack := a :: List.filter (fun s -> s.l_end > a.l_start) !stack;
        push_opens rest d_start
      end
      else ancs
  in
  let rec go ancs descs =
    match descs with
    | [] -> ()
    | (d : label_row) :: drest ->
      let ancs = push_opens ancs d.l_start in
      stack := List.filter (fun s -> s.l_end > d.l_start) !stack;
      List.iter
        (fun a ->
          Counters.add_comparison counters 1;
          if d.l_end < a.l_end && extra a d then out := d :: !out)
        !stack;
      go ancs drest
  in
  go ancs descs;
  !out

let label_descendants_baseline pager store ~anc ~desc =
  let ancs = fetch_rows pager store anc in
  let descs = fetch_rows pager store desc in
  structural_pairs pager ancs descs ~extra:(fun _ _ -> true)
  |> List.map (fun (r : label_row) -> r.l_id)
  |> List.sort_uniq Int.compare

(* {1 The incremental-index fast path} *)

let tag_entry pager (store : label_store) tag =
  Label_index.entry store.label_index (Pager.counters pager)
    ~rids_of_tag:(ids_of_tag store.label_by_tag)
    ~fetch:(fun rid ->
      let row = Rel_table.get store.label_table rid in
      (row.l_start, row.l_end, row.l_dead))
    tag

(* [clean_entry] is the allocation-free entry lookup: the clean fast
   path builds nothing; only a dirty or unmaterialized tag falls back to
   the repairing [tag_entry] (whose fetch closures allocate). *)
let clean_entry pager (store : label_store) tag =
  match Label_index.clean store.label_index tag with
  | e -> e
  | exception Label_index.Dirty -> tag_entry pager store tag

(* The unified array-cursor structural join: both inputs are sorted
   (start, end, rid) columns; cursors are int indexes; the run-time
   stack of open ancestors is a pair of growable int arrays (interval
   end + input position).  When no ancestor is open and the next one
   starts far ahead, the descendant cursor leaps there by binary search
   instead of grinding through unmatched rows (the staircase skip).
   [emit] gets the input positions of each (ancestor, descendant)
   containment pair; descendant positions arrive in ascending order,
   duplicates adjacent. *)
let[@ltree.hot] array_join counters (a : Label_index.entry)
    (d : Label_index.entry) ~emit =
  (* [@ltree.cold]: per-call setup — two 16-slot scratch arrays and the
     stack helpers' closures are the join's only allocations, paid once
     per join, never per row.  The per-row path below is checked
     allocation-free by R9 (ltree-analyze). *)
  let[@ltree.cold] stack_end = ref (Array.make 16 0) in
  let[@ltree.cold] stack_pos = ref (Array.make 16 0) in
  let sp = ref 0 in
  let[@ltree.cold] push apos aend =
    (if !sp = Array.length !stack_end then
       begin
         (* amortized doubling: off the per-row fast path *)
         let bigger_end = Array.make (2 * !sp) 0
         and bigger_pos = Array.make (2 * !sp) 0 in
         Array.blit !stack_end 0 bigger_end 0 !sp;
         Array.blit !stack_pos 0 bigger_pos 0 !sp;
         stack_end := bigger_end;
         stack_pos := bigger_pos
       end [@ltree.cold]);
    !stack_end.(!sp) <- aend;
    !stack_pos.(!sp) <- apos;
    incr sp
  in
  (* Pop open ancestors whose interval closed before [bound].  Stack
     ends decrease upward (intervals nest), so stopping at the first
     survivor is enough. *)
  let[@ltree.cold] pop_closed bound =
    let closing = ref true in
    while !closing && !sp > 0 do
      Counters.add_comparison counters 1;
      if !stack_end.(!sp - 1) > bound then closing := false else decr sp
    done
  in
  let ai = ref 0 and di = ref 0 in
  let finished = ref false in
  while (not !finished) && !di < d.len do
    let ds = Column.get d.starts !di in
    (* Open every ancestor that starts before this descendant. *)
    let opening = ref true in
    while !opening && !ai < a.len do
      Counters.add_comparison counters 1;
      let astart = Column.get a.starts !ai in
      if astart < ds then begin
        pop_closed astart;
        push !ai (Column.get a.ends !ai);
        incr ai
      end
      else opening := false
    done;
    pop_closed ds;
    if !sp > 0 then begin
      (* Every stacked ancestor contains the descendant's start, and XML
         intervals nest or are disjoint, so start containment implies
         full containment — no per-pair end comparison needed (the
         baseline plan pays one; this is part of the fast path's win). *)
      for s = 0 to !sp - 1 do
        emit !stack_pos.(s) !di
      done;
      incr di
    end
    else if !ai >= a.len then
      (* No ancestor is open and none remain: nothing further matches. *)
      finished := true
    else
      (* Stack empty, next ancestor starts at or after ds: no descendant
         before that point has a match — leap over them. *)
      di :=
        Int.max (!di + 1)
          (Label_index.upper_bound counters d (Column.get a.starts !ai))
  done

(* {2 The zero-alloc descendants spine}

   The same join, specialized to the [a//b] result shape (the set of
   matched descendants) and to the index's preallocated workspace: the
   cursors live in the workspace's [jstate] record, the open-ancestor
   stack and the result are reused columns, and each matched descendant
   is emitted once (so the single emit-side row fetch per match is
   unchanged from [join_to_entry] + [ids_of_entry]).  No refs, no
   closures, no arrays: R9 checks every call from this spine
   allocation-free. *)

let[@ltree.hot] rec pop_closed_col counters stack bound =
  let sp = Column.length stack in
  if
    sp > 0
    && (Counters.add_comparison counters 1;
        Column.get stack (sp - 1) <= bound)
  then begin
    Column.set_len stack (sp - 1);
    pop_closed_col counters stack bound
  end

let[@ltree.hot] descendants_into counters table (a : Label_index.entry)
    (d : Label_index.entry) (ws : Label_index.workspace) =
  let js = ws.Label_index.w_js in
  let stack = ws.Label_index.w_stack in
  let out = ws.Label_index.w_out in
  Column.clear stack;
  Column.clear out;
  js.Label_index.js_ai <- 0;
  js.Label_index.js_di <- 0;
  js.Label_index.js_done <- false;
  while (not js.Label_index.js_done) && js.Label_index.js_di < d.len do
    let ds = Column.get d.starts js.Label_index.js_di in
    while
      js.Label_index.js_ai < a.len
      && (Counters.add_comparison counters 1;
          Column.get a.starts js.Label_index.js_ai < ds)
    do
      pop_closed_col counters stack (Column.get a.starts js.Label_index.js_ai);
      Column.push stack (Column.get a.ends js.Label_index.js_ai);
      js.Label_index.js_ai <- js.Label_index.js_ai + 1
    done;
    pop_closed_col counters stack ds;
    if Column.length stack > 0 then begin
      (* Start containment implies full containment (nesting), and the
         descendant matches no matter how many ancestors are open — one
         emit, one row fetch. *)
      Column.push out
        (Rel_table.get table (Column.get d.rids js.Label_index.js_di)).l_id;
      js.Label_index.js_di <- js.Label_index.js_di + 1
    end
    else if js.Label_index.js_ai >= a.len then js.Label_index.js_done <- true
    else
      js.Label_index.js_di <-
        Int.max
          (js.Label_index.js_di + 1)
          (Label_index.upper_bound counters d
             (Column.get a.starts js.Label_index.js_ai))
  done

(* The full hot plan: clean-entry lookup, zero-alloc join, in-place
   sort+dedup of the result column.  The returned column is the index
   workspace's — borrowed until the next query on the same store. *)
let label_descendants_hot pager (store : label_store) ~anc ~desc =
  let counters = Pager.counters pager in
  let a = clean_entry pager store anc in
  let d = clean_entry pager store desc in
  let ws = Label_index.workspace store.label_index in
  descendants_into counters store.label_table a d ws;
  Column.sort_dedup ws.Label_index.w_out ~mark:ws.Label_index.w_mark;
  ws.Label_index.w_out

(* Join two entries into an entry of the matched descendants — the
   pipelined form used between the steps of a path.  Adjacent-duplicate
   emissions collapse, and the output inherits ascending start order
   from the descendant cursor, so no re-sort is ever needed. *)
let join_into counters (a : Label_index.entry) (d : Label_index.entry)
    (out : Label_index.entry) =
  Column.clear out.starts;
  Column.clear out.ends;
  Column.clear out.rids;
  let last = ref (-1) in
  array_join counters a d ~emit:(fun _ dpos ->
      if dpos <> !last then begin
        last := dpos;
        Column.push out.starts (Column.get d.starts dpos);
        Column.push out.ends (Column.get d.ends dpos);
        Column.push out.rids (Column.get d.rids dpos)
      end);
  out.len <- Column.length out.starts

let join_to_entry counters (a : Label_index.entry) (d : Label_index.entry) =
  let cap = Int.max 16 d.len in
  let out =
    { Label_index.starts = Column.create ~capacity:cap ();
      ends = Column.create ~capacity:cap ();
      rids = Column.create ~capacity:cap ();
      len = 0;
      stamp = 0 }
  in
  join_into counters a d out;
  out

(* Map an entry's rows to sorted Dom ids, fetching each row once (the
   emit-side page reads, as in the index-nested-loop plan). *)
let ids_of_entry (store : label_store) (e : Label_index.entry) =
  let out = ref [] in
  for i = 0 to e.len - 1 do
    out := (Rel_table.get store.label_table (Column.get e.rids i)).l_id :: !out
  done;
  List.sort Int.compare !out

let label_descendants pager store ~anc ~desc =
  let counters = Pager.counters pager in
  Span.with_ ~name:"query.descendants" ~counters
    ~attrs:[ ("anc", anc); ("desc", desc) ]
    ~on_close:observe_join (fun () ->
      Column.to_list (label_descendants_hot pager store ~anc ~desc))

let label_children pager store ~parent ~child =
  let counters = Pager.counters pager in
  Span.with_ ~name:"query.children" ~counters
    ~attrs:[ ("parent", parent); ("child", child) ]
    ~on_close:observe_join (fun () ->
      let a = tag_entry pager store parent in
      let d = tag_entry pager store child in
      let out = ref [] in
      array_join counters a d ~emit:(fun apos dpos ->
          let arow = Rel_table.get store.label_table (Column.get a.rids apos) in
          let drow = Rel_table.get store.label_table (Column.get d.rids dpos) in
          if drow.l_level = arow.l_level + 1 then out := drow.l_id :: !out);
      List.sort_uniq Int.compare !out)

let label_path pager store = function
  | [] -> []
  | first :: rest ->
    let counters = Pager.counters pager in
    Span.with_ ~name:"query.path" ~counters
      ~attrs:[ ("steps", string_of_int (1 + List.length rest)) ]
      ~on_close:observe_join (fun () ->
        let final =
          List.fold_left
            (fun acc tag ->
              join_to_entry counters acc (tag_entry pager store tag))
            (tag_entry pager store first)
            rest
        in
        ids_of_entry store final)

(* The index-nested-loop plan over the same incremental index: for each
   ancestor, binary-search the descendant entry and scan its interval.
   Cheap when the anchors are few and selective (reads proportional to
   the matches); the merge join wins once they blanket the document —
   the E8d crossover. *)
let label_descendants_inl pager store ~anc ~desc =
  let counters = Pager.counters pager in
  Span.with_ ~name:"query.descendants_inl" ~counters
    ~attrs:[ ("anc", anc); ("desc", desc) ]
    ~on_close:observe_join (fun () ->
      let a = tag_entry pager store anc in
      let d = tag_entry pager store desc in
      let out = ref [] in
      for apos = 0 to a.len - 1 do
        let astart = Column.get a.starts apos
        and aend = Column.get a.ends apos in
        let i = ref (Label_index.upper_bound counters d astart) in
        let scanning = ref true in
        while !scanning && !i < d.len do
          Counters.add_comparison counters 1;
          if Column.get d.starts !i < aend then begin
            (* XML intervals nest, so start containment implies full
               containment. *)
            out :=
              (Rel_table.get store.label_table (Column.get d.rids !i)).l_id
              :: !out;
            incr i
          end
          else scanning := false
        done
      done;
      List.sort_uniq Int.compare !out)

let index_stats (store : label_store) = Label_index.stats store.label_index
