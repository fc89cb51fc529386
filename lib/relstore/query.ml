module Counters = Ltree_metrics.Counters
module Span = Ltree_obs.Span
module Column = Ltree_core.Column
open Shredder

let ids_of_tag tbl tag = Option.value ~default:[] (Hashtbl.find_opt tbl tag)

let children_of (store : edge_store) id =
  Option.value ~default:[]
    (Ltree_metrics.Int_tbl.find_opt store.edge_by_parent id)

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
          (children_of store parent_id))
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
        (children_of store row.e_id))
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

(* The index's row fetch: one table read, the live row's Dom id
   through the store's translation. *)
let fetch_row (store : label_store) rid (r : Label_index.row) =
  let row = Rel_table.get store.label_table rid in
  r.r_start <- row.l_start;
  r.r_end <- row.l_end;
  r.r_level <- row.l_level;
  r.r_dead <- row.l_dead;
  if not row.l_dead then r.r_id <- store.label_ids row.l_id

let tag_rids (store : label_store) tag = ids_of_tag store.label_by_tag tag

let tag_entry pager (store : label_store) tag =
  Label_index.entry store.label_index (Pager.counters pager)
    ~rids_of_tag:tag_rids ~fetch:fetch_row store tag

(* The store's entry lookup, in the driver's shape: the clean fast
   path builds nothing; only a dirty or unmaterialized tag falls back
   to the repairing [Label_index.entry]. *)
let store_entry counters (store : label_store) tag =
  match Label_index.clean store.label_index tag with
  | e -> e
  | exception Label_index.Dirty ->
    Label_index.entry store.label_index counters ~rids_of_tag:tag_rids
      ~fetch:fetch_row store tag

(* {1 The two join kernels}

   Every label plan in the tree runs one of these two loops: the store
   plans below, the snapshot driver in [lib/exec], the sharded tasks
   and the XPath evaluator's child and descendant steps.  Both read
   sorted [(start, end)] entry columns and write one [(w_dpos, w_apos)]
   pair per match into a borrowed workspace.  The loop state lives in
   the workspace's [jstate], comparisons are tallied there and charged
   once per call, and the columns are read and written through their
   raw buffers — a column call per row costs more than the row's
   comparisons wherever cross-module inlining is off — so neither
   kernel allocates once the workspace has grown (R9 checks both).
   XML intervals nest or are disjoint, so an ancestor whose interval
   contains a descendant's start contains the whole descendant:
   neither kernel compares end labels. *)

module BA = Bigarray.Array1

(* Pop the open ancestors whose interval closed before [bound].  Stack
   ends decrease upward (intervals nest), so the first survivor stops
   the scan. *)
let[@ltree.hot] rec pop_closed (js : Label_index.jstate) (ends : Column.buf)
    bound =
  if
    js.js_sp > 0
    && (js.js_cmp <- js.js_cmp + 1;
        BA.unsafe_get ends (js.js_sp - 1) <= bound)
  then begin
    js.js_sp <- js.js_sp - 1;
    pop_closed js ends bound
  end

(* The stack semi-join: each row of [d] that starts inside some row of
   [a] is matched once, in [d]'s order, paired with the innermost open
   ancestor (the stack top).  When no ancestor is open and the next one
   starts further on, the descendant cursor leaps there by binary search
   (the staircase skip).  A child plan filters the pairs on level: a
   node's parent, when it is in [a], is its innermost open ancestor.
   At most [a.len] ancestors are open at once and each descendant
   matches at most once, so the stack and match columns are reserved
   once and stay put for the whole loop. *)
let[@ltree.hot] semi_join counters (a : Label_index.entry)
    (d : Label_index.entry) (ws : Label_index.workspace) =
  (Column.reserve ws.w_stack a.len [@ltree.cold]);
  (Column.reserve ws.w_spos a.len [@ltree.cold]);
  (Column.reserve ws.w_dpos d.len [@ltree.cold]);
  (Column.reserve ws.w_apos d.len [@ltree.cold]);
  let astarts = Column.unsafe_buf a.starts
  and aends = Column.unsafe_buf a.ends
  and dstarts = Column.unsafe_buf d.starts
  and open_end = Column.unsafe_buf ws.w_stack
  and open_pos = Column.unsafe_buf ws.w_spos
  and out_d = Column.unsafe_buf ws.w_dpos
  and out_a = Column.unsafe_buf ws.w_apos in
  let js = ws.w_js in
  js.js_ai <- 0;
  js.js_di <- 0;
  js.js_sp <- 0;
  js.js_n <- 0;
  js.js_cmp <- 0;
  js.js_done <- false;
  while (not js.js_done) && js.js_di < d.len do
    let ds = BA.unsafe_get dstarts js.js_di in
    while
      js.js_ai < a.len
      && (js.js_cmp <- js.js_cmp + 1;
          BA.unsafe_get astarts js.js_ai < ds)
    do
      pop_closed js open_end (BA.unsafe_get astarts js.js_ai);
      BA.unsafe_set open_end js.js_sp (BA.unsafe_get aends js.js_ai);
      BA.unsafe_set open_pos js.js_sp js.js_ai;
      js.js_sp <- js.js_sp + 1;
      js.js_ai <- js.js_ai + 1
    done;
    pop_closed js open_end ds;
    if js.js_sp > 0 then begin
      BA.unsafe_set out_d js.js_n js.js_di;
      BA.unsafe_set out_a js.js_n (BA.unsafe_get open_pos (js.js_sp - 1));
      js.js_n <- js.js_n + 1;
      js.js_di <- js.js_di + 1
    end
    else if js.js_ai >= a.len then js.js_done <- true
    else
      js.js_di <-
        Int.max (js.js_di + 1)
          (Label_index.upper_bound counters d
             (BA.unsafe_get astarts js.js_ai))
  done;
  Counters.add_comparison counters js.js_cmp;
  Column.set_len ws.w_dpos js.js_n;
  Column.set_len ws.w_apos js.js_n

(* The index-nested-loop probe: for each row of [a] in order, binary
   search [d] and scan the rows starting inside the ancestor.  Matches
   come grouped by ancestor, each group in [d]'s order — a descendant
   under several ancestors is matched once per ancestor, so the match
   count has no cheap bound and matches are pushed.  Cheap when the
   anchors are few and selective; the merge wins once they blanket the
   document (the E8d crossover). *)
let[@ltree.hot] inl_probe counters (a : Label_index.entry)
    (d : Label_index.entry) (ws : Label_index.workspace) =
  let astarts = Column.unsafe_buf a.starts
  and aends = Column.unsafe_buf a.ends
  and dstarts = Column.unsafe_buf d.starts in
  let js = ws.w_js in
  Column.clear ws.w_dpos;
  Column.clear ws.w_apos;
  js.js_ai <- 0;
  js.js_cmp <- 0;
  while js.js_ai < a.len do
    let aend = BA.unsafe_get aends js.js_ai in
    js.js_di <-
      Label_index.upper_bound counters d (BA.unsafe_get astarts js.js_ai);
    js.js_done <- false;
    while (not js.js_done) && js.js_di < d.len do
      js.js_cmp <- js.js_cmp + 1;
      if BA.unsafe_get dstarts js.js_di < aend then begin
        Column.push ws.w_dpos js.js_di;
        Column.push ws.w_apos js.js_ai;
        js.js_di <- js.js_di + 1
      end
      else js.js_done <- true
    done;
    js.js_ai <- js.js_ai + 1
  done;
  Counters.add_comparison counters js.js_cmp

(* Overwrite [out] with the rows of [d] at the matched positions — one
   location step of a path, ready to be the next step's ancestors.
   Semi-join matches are distinct and ascending, so [out] stays sorted
   by start. *)
let[@ltree.hot] gather (d : Label_index.entry) (ws : Label_index.workspace)
    (out : Label_index.entry) =
  Column.gather d.starts ~idx:ws.w_dpos out.starts;
  Column.gather d.ends ~idx:ws.w_dpos out.ends;
  Column.gather d.rids ~idx:ws.w_dpos out.rids;
  Column.gather d.levels ~idx:ws.w_dpos out.levels;
  Column.gather d.ids ~idx:ws.w_dpos out.ids;
  out.len <- Column.length ws.w_dpos

(* {1 The plan driver}

   Every label plan is a chain of kernel steps: a semi-join or an INL
   probe, then (on the child axis) one shared level filter, with a
   gather between steps.  The driver leaves the last step's matches in
   the workspace as ascending positions — document order, each match
   once; each family then turns a match into an id its own way
   — the store fetches the row, a snapshot reads the covering [ids]
   column, the XPath evaluator gathers the rows and reads their Dom
   ids.  Entries come
   from [entry counters src tag], a function of the caller's source
   rather than a closure over it, so running a plan builds nothing. *)

type plan =
  | Descendants of string * string
  | Children of string * string
  | Descendants_inl of string * string
  | Path of string list

(* Keep the pairs whose descendant sits one level below its ancestor,
   compacting them in place (order kept): the child axis.  A node's
   parent, when it is in [a], is its innermost container. *)
let[@ltree.hot] keep_children (a : Label_index.entry) (d : Label_index.entry)
    (ws : Label_index.workspace) =
  let dpos = Column.unsafe_buf ws.w_dpos
  and apos = Column.unsafe_buf ws.w_apos
  and dlev = Column.unsafe_buf d.levels
  and alev = Column.unsafe_buf a.levels in
  let js = ws.w_js in
  js.js_n <- 0;
  for i = 0 to Column.length ws.w_dpos - 1 do
    let dp = BA.unsafe_get dpos i and ap = BA.unsafe_get apos i in
    if BA.unsafe_get dlev dp = BA.unsafe_get alev ap + 1 then begin
      BA.unsafe_set dpos js.js_n dp;
      BA.unsafe_set apos js.js_n ap;
      js.js_n <- js.js_n + 1
    end
  done;
  Column.set_len ws.w_dpos js.js_n;
  Column.set_len ws.w_apos js.js_n

let[@ltree.hot] step counters ~inl ~child a d ws =
  if inl then inl_probe counters a d ws else semi_join counters a d ws;
  if child then keep_children a d ws

(* [Path [t]] joins nothing: every row of [t] is a match. *)
let[@ltree.hot] all_rows (d : Label_index.entry) (ws : Label_index.workspace) =
  Column.clear ws.w_dpos;
  for i = 0 to d.len - 1 do
    Column.push ws.w_dpos i
  done

(* One semi-join per remaining step; every step but the last gathers
   its matches into one of the workspace's two step entries,
   alternating so a step never overwrites its own input. *)
let[@ltree.hot] rec path_steps counters entry src (ws : Label_index.workspace)
    i a tag rest =
  let d = entry counters src tag in
  semi_join counters a d ws;
  match rest with
  | [] -> d
  | next :: rest ->
    let out = ws.w_steps.(i land 1) in
    gather d ws out;
    path_steps counters entry src ws (i + 1) out next rest

let[@ltree.hot] pair counters entry src ws ~inl ~child anc desc =
  let a = entry counters src anc in
  let d = entry counters src desc in
  step counters ~inl ~child a d ws;
  d

let[@ltree.hot] run counters entry src (ws : Label_index.workspace) plan =
  match plan with
  | Descendants (anc, desc) ->
    pair counters entry src ws ~inl:false ~child:false anc desc
  | Children (parent, child) ->
    pair counters entry src ws ~inl:false ~child:true parent child
  | Descendants_inl (anc, desc) ->
    (* The probe matches a row once per containing anchor, grouped by
       anchor: back to document order, each row once. *)
    let d = pair counters entry src ws ~inl:true ~child:false anc desc in
    Column.sort_dedup ws.w_dpos ~mark:ws.w_mark;
    d
  | Path [] ->
    Column.clear ws.w_dpos;
    ws.w_steps.(0)
  | Path [ tag ] ->
    let d = entry counters src tag in
    all_rows d ws;
    d
  | Path (first :: next :: rest) ->
    path_steps counters entry src ws 0 (entry counters src first) next rest

(* A plan run outside a store span carries its comparisons on a
   traced-only "query.join" point, which [query_join_comparisons] folds
   next to the store plans' span deltas. *)
let record_comparisons ?counters n =
  (match counters with
   | Some c -> Counters.add_comparison c n
   | None -> ());
  if Span.enabled () then
    Span.event ~attrs:[ ("comparisons", string_of_int n) ] "query.join"

(* {1 Store plans}

   The store's instance of the driver: entries through the clean-entry
   lookup, one row fetch per match (the emit-side page reads), the Dom
   ids collected in the index workspace's [w_out] in match order. *)

(* Push the Dom id of [d]'s row at each matched position into [w_out],
   fetching the row. *)
let[@ltree.hot] fetch_matches table (d : Label_index.entry)
    (ws : Label_index.workspace) =
  Column.clear ws.w_out;
  for i = 0 to Column.length ws.w_dpos - 1 do
    Column.push ws.w_out
      (Rel_table.get table (Column.get d.rids (Column.get ws.w_dpos i))).l_id
  done

let[@ltree.hot] label_plan_hot pager (store : label_store) plan =
  let ws = Label_index.workspace store.label_index in
  let d = run (Pager.counters pager) store_entry store ws plan in
  fetch_matches store.label_table d ws;
  ws.w_out

let traced pager store plan name attrs =
  Span.with_ ~name ~counters:(Pager.counters pager) ~attrs (fun () ->
      Column.to_list (label_plan_hot pager store plan))

let label_plan pager store plan =
  match plan with
  | Descendants (anc, desc) ->
    traced pager store plan "query.descendants"
      [ ("anc", anc); ("desc", desc) ]
  | Children (parent, child) ->
    traced pager store plan "query.children"
      [ ("parent", parent); ("child", child) ]
  | Descendants_inl (anc, desc) ->
    traced pager store plan "query.descendants_inl"
      [ ("anc", anc); ("desc", desc) ]
  | Path [] -> []
  | Path tags ->
    traced pager store plan "query.path"
      [ ("steps", string_of_int (List.length tags)) ]

let label_descendants pager store ~anc ~desc =
  label_plan pager store (Descendants (anc, desc))

let label_children pager store ~parent ~child =
  label_plan pager store (Children (parent, child))

let label_path pager store tags = label_plan pager store (Path tags)

let index_stats (store : label_store) = Label_index.stats store.label_index
