module Int_tbl = Ltree_metrics.Int_tbl
module Dom = Ltree_xml.Dom
module Labeled_doc = Ltree_doc.Labeled_doc
module Journal = Ltree_doc.Journal
module Column = Ltree_core.Column
module Pager = Ltree_relstore.Pager
module Shredder = Ltree_relstore.Shredder
module Query = Ltree_relstore.Query
module Label_index = Ltree_relstore.Label_index
module Label_sync = Ltree_relstore.Label_sync
module Counters = Ltree_metrics.Counters
module Fault = Ltree_recovery.Fault
module Durable_doc = Ltree_recovery.Durable_doc
module Snapshot = Ltree_doc.Snapshot
module Pool = Ltree_exec.Pool
module Read_snapshot = Ltree_exec.Read_snapshot
module Span = Ltree_obs.Span

(* A document split into K subtree shards along its L-Tree label
   intervals.

   The paper's labels give every subtree a contiguous [(start, end)]
   interval, so a document partitions cleanly on top-level subtree
   boundaries: shard [p] owns a contiguous run of the root's children,
   and the union of the shards' intervals tiles the document.  Each
   shard is a full vertical slice of the stack — its own {!Labeled_doc}
   (hence its own L-Tree), its own rel-store and {!Label_index}, and
   its own {!Durable_doc} journal on its own fault-sim disk — so
   parallel plans over different shards share no mutable state at all,
   and a crash takes down exactly one shard's store.

   The {e router} is a twin of the whole document.  It is the
   authority for global coordinates: global label anchors (journal
   entries address nodes by router labels), global Dom ids (query
   results are reported in router ids), and the per-shard label
   intervals the routing tables are built from.  Shard documents are
   structural clones of router subtrees; the [g_of_l]/[l_of_g] maps
   translate node identity between the two worlds and are maintained
   in lockstep with every update.

   Why clones instead of label slices: an L-Tree labeling is only
   valid over a contiguous leaf sequence starting at position 0
   ({!Ltree_core.Ltree.of_labels} enforces it), so a shard cannot keep
   the router's label values for its slice.  Each shard labels its own
   document from scratch; the shard root (a clone of the router root
   element) stands in for the global root, which keeps levels equal to
   the router's and lets root-anchored plans (child steps off the
   root, the root tag as an ancestor) evaluate per shard without any
   cross-shard label coordination. *)

type shard = {
  sid : int;  (* stable shard id: names the store dir's sim, metrics *)
  sim : Fault.sim;
  durable : Durable_doc.t;  (* owns the shard's live Labeled_doc *)
  pager : Pager.t;
  store : Shredder.label_store;
  sync : Label_sync.t;
  mutable snap : Read_snapshot.t option;  (* frozen lazily per query *)
  g_of_l : int Int_tbl.t;  (* local Dom id -> router Dom id *)
  l_of_g : int Int_tbl.t;  (* router Dom id -> local Dom id *)
  buf : Label_index.workspace;
      (* the reused workspace of single plans and of a batch's first
         plan; a batch's other plans take workspaces of their own *)
}

type t = {
  group_commit : int;
  router : Labeled_doc.t;
  r_pager : Pager.t;
  r_store : Shredder.label_store;
  r_sync : Label_sync.t;
  mutable r_snap : Read_snapshot.t option;
  mutable shards : shard array;
  mutable cuts : int array;
      (* length [nshards + 1]: shard [p] owns the router root's
         children at positions [cuts.(p) .. cuts.(p+1)) *)
  top_owner : int Int_tbl.t;
      (* router top-level subtree root Dom id -> shard array position *)
  mutable layout_gen : int;  (* bumped on every split *)
  (* Routing tables over the non-empty shards, sorted by interval:
     position [i] covers router labels [route_lo.(i), route_hi.(i)].
     Rebuilt whenever the router version or the layout moves. *)
  mutable route_pos : int array;
  mutable route_lo : int array;
  mutable route_hi : int array;
  mutable route_version : int;
  mutable route_layout : int;
  sim_for : int -> Fault.sim;
  mutable on_local_entry : (int -> Journal.entry -> unit) option;
  mutable rebalances : int;
}

let shard_dir = "store"

(* {1 Cloning and identity maps} *)

let rec clone_node n =
  match Dom.kind n with
  | Dom.Element tag ->
    let e = Dom.element ~attrs:(Dom.attrs n) tag in
    List.iter (fun c -> Dom.append_child e (clone_node c)) (Dom.children n);
    e
  | Dom.Text s -> Dom.text s
  | Dom.Comment s -> Dom.comment s
  | Dom.Pi (target, data) -> Dom.pi ~target ~data

let link_pair sh g l =
  Int_tbl.replace sh.g_of_l (Dom.id l) (Dom.id g);
  Int_tbl.replace sh.l_of_g (Dom.id g) (Dom.id l)

(* Structurally identical subtrees enumerate the same shapes in
   preorder, so walking both in lockstep pairs every node. *)
let link_subtree sh g l =
  let gs = ref [] and ls = ref [] in
  Dom.iter_preorder g (fun n -> gs := n :: !gs);
  Dom.iter_preorder l (fun n -> ls := n :: !ls);
  List.iter2 (fun g l -> link_pair sh g l) (List.rev !gs) (List.rev !ls)

let unlink_subtree sh g =
  Dom.iter_preorder g (fun n ->
      let gid = Dom.id n in
      match Int_tbl.find_opt sh.l_of_g gid with
      | None -> ()
      | Some lid ->
        Int_tbl.remove sh.l_of_g gid;
        Int_tbl.remove sh.g_of_l lid)

let root_of ldoc =
  match (Labeled_doc.document ldoc).Dom.root with
  | Some r -> r
  | None -> invalid_arg "Sharded_doc: document has no root"

let sub_range l lo hi =
  List.filteri (fun i _ -> i >= lo && i < hi) l

(* {1 Shard construction} *)

(* A shard over a durable store: its own rel-store, label sync, empty
   identity maps and reused query buffers.  The store's index fetches
   translate through [g_of_l], so the shard's index, and every snapshot
   copied from it, holds router ids. *)
let wire_shard ~sid ~sim durable =
  let ldoc = Durable_doc.ldoc durable in
  let pager = Pager.create (Counters.create ()) in
  let store = Shredder.shred_label pager ldoc in
  let sync = Label_sync.create pager store ldoc in
  let g_of_l = Int_tbl.create 256 in
  store.Shredder.label_ids <- Int_tbl.find g_of_l;
  { sid; sim; durable; pager; store; sync; snap = None;
    g_of_l;
    l_of_g = Int_tbl.create 256;
    buf = Label_index.create_workspace () }

let make_shard ?params ~group_commit ~sim ~groot gsubs sid =
  let sroot = Dom.element ~attrs:(Dom.attrs groot) (Dom.name groot) in
  let clones = List.map clone_node gsubs in
  List.iter (fun c -> Dom.append_child sroot c) clones;
  let ldoc = Labeled_doc.of_document ?params (Dom.document sroot) in
  let durable =
    Durable_doc.initialize ~io:(Fault.sim_io sim) ~group_commit ~dir:shard_dir
      ldoc
  in
  let sh = wire_shard ~sid ~sim durable in
  link_pair sh groot sroot;
  List.iter2 (fun g l -> link_subtree sh g l) gsubs clones;
  sh

let rebuild_top_owner t =
  Int_tbl.reset t.top_owner;
  let subs = Array.of_list (Dom.children (root_of t.router)) in
  Array.iteri
    (fun p _ ->
      for i = t.cuts.(p) to t.cuts.(p + 1) - 1 do
        Int_tbl.replace t.top_owner (Dom.id subs.(i)) p
      done)
    t.shards

let create ?params ?(group_commit = 4)
    ?(sim_for = fun _ -> Fault.create_sim ()) ~shards:k doc =
  if k < 1 then invalid_arg "Sharded_doc.create: shards must be >= 1";
  let router = Labeled_doc.of_document ?params doc in
  let groot = root_of router in
  let subs = Dom.children groot in
  let n = List.length subs in
  let cuts = Array.init (k + 1) (fun i -> i * n / k) in
  let shards =
    Array.init k (fun p ->
        let gsubs = sub_range subs cuts.(p) cuts.(p + 1) in
        make_shard ?params ~group_commit ~sim:(sim_for p) ~groot gsubs p)
  in
  let r_pager = Pager.create (Counters.create ()) in
  let r_store = Shredder.shred_label r_pager router in
  let r_sync = Label_sync.create r_pager r_store router in
  let t =
    { group_commit; router; r_pager; r_store; r_sync; r_snap = None;
      shards; cuts;
      top_owner = Int_tbl.create 64;
      layout_gen = 0;
      route_pos = [||]; route_lo = [||]; route_hi = [||];
      route_version = -1; route_layout = -1;
      sim_for;
      on_local_entry = None;
      rebalances = 0 }
  in
  rebuild_top_owner t;
  t

(* {1 Accessors} *)

let nshards t = Array.length t.shards
let router t = t.router
let shard_sim t p = t.shards.(p).sim
let shard_durable t p = t.shards.(p).durable
let shard_ldoc t p = Durable_doc.ldoc t.shards.(p).durable
let set_local_entry_hook t hook = t.on_local_entry <- hook

(* {1 Routing}

   The routing tables cover the non-empty shards with their current
   router-label interval: shard [p]'s interval runs from the start
   label of its first owned top-level subtree to the end label of its
   last.  Intervals are disjoint and ascending by construction, so an
   interval query routes with two binary searches. *)

let refresh_routes t =
  let v = Labeled_doc.version t.router in
  if t.route_version <> v || t.route_layout <> t.layout_gen then begin
    let subs = Array.of_list (Dom.children (root_of t.router)) in
    let pos = ref [] and lo = ref [] and hi = ref [] in
    Array.iteri
      (fun p _ ->
        if t.cuts.(p + 1) > t.cuts.(p) then begin
          let first = subs.(t.cuts.(p)) and last = subs.(t.cuts.(p + 1) - 1) in
          pos := p :: !pos;
          lo := (Labeled_doc.label t.router first).Labeled_doc.start_pos :: !lo;
          hi := (Labeled_doc.label t.router last).Labeled_doc.end_pos :: !hi
        end)
      t.shards;
    t.route_pos <- Array.of_list (List.rev !pos);
    t.route_lo <- Array.of_list (List.rev !lo);
    t.route_hi <- Array.of_list (List.rev !hi);
    t.route_version <- v;
    t.route_layout <- t.layout_gen
  end

(* First routing index whose interval end reaches [target] — the
   leftmost shard a window starting at [target] can intersect.
   Tail-recursive over ints so the hot path allocates nothing (R9). *)
let[@ltree.hot] rec lower_from (ends : int array) target l r =
  if l >= r then l
  else begin
    let m = (l + r) / 2 in
    if Array.unsafe_get ends m < target then lower_from ends target (m + 1) r
    else lower_from ends target l m
  end

(* First routing index whose interval start exceeds [target]; one past
   the rightmost shard a window ending at [target] can intersect. *)
let[@ltree.hot] rec upper_to (starts : int array) target l r =
  if l >= r then l
  else begin
    let m = (l + r) / 2 in
    if Array.unsafe_get starts m <= target then upper_to starts target (m + 1) r
    else upper_to starts target l m
  end

(* [route_span t ~lo ~hi] is the routing-table index range [(first,
   last)] of shards whose interval intersects the window; empty when
   [first > last].  The binary searches are the hot interval lookup. *)
let route_span t ~lo ~hi =
  let n = Array.length t.route_pos in
  (lower_from t.route_hi lo 0 n, upper_to t.route_lo hi 0 n - 1)

let routed ?within t =
  refresh_routes t;
  let lo, hi =
    match within with None -> (Stdlib.min_int, Stdlib.max_int) | Some w -> w
  in
  let first, last = route_span t ~lo ~hi in
  if first <= last then
    List.init (last - first + 1) (fun i -> t.route_pos.(first + i))
  else begin
    (* The router root's own label lies left of every shard interval,
       but the root is cloned into every shard — when the window
       reaches it, one shard must still answer for it. *)
    let rl = Labeled_doc.label t.router (root_of t.router) in
    if lo <= rl.Labeled_doc.start_pos && rl.Labeled_doc.start_pos <= hi then
      [ 0 ]
    else []
  end

(* {1 Snapshots}

   A snapshot whose stamps still match needs no flush: every edit that
   dirties a row moves the document version, so a fresh snapshot means
   an empty dirty set.  Otherwise flush, then refresh (reusing the
   untouched tags' slices) or freeze for the first time. *)

let up_to_date sync snap ~freeze =
  match snap with
  | Some s when Read_snapshot.is_fresh s -> s
  | Some s ->
    ignore (Label_sync.flush sync : Label_sync.stats);
    Read_snapshot.refresh s
  | None ->
    ignore (Label_sync.flush sync : Label_sync.stats);
    freeze ()

let frozen sh =
  let s =
    up_to_date sh.sync sh.snap ~freeze:(fun () ->
        Read_snapshot.of_store sh.pager sh.store
          (Durable_doc.ldoc sh.durable))
  in
  sh.snap <- Some s;
  s

let router_snapshot t =
  let s =
    up_to_date t.r_sync t.r_snap ~freeze:(fun () ->
        Read_snapshot.of_store t.r_pager t.r_store t.router)
  in
  t.r_snap <- Some s;
  s

(* {1 Query plans}

   Every sharded plan is the union of the same plan run serially over
   each routed shard's frozen snapshot — results are byte-identical to
   the plan over the router's own (unsharded) store.  The union is
   exact because cuts fall on top-level subtree boundaries: every
   containment pair is intra-shard, and pairs through the global root
   are covered by each shard's stand-in root.  Each shard answers in
   its own document order and the routed shards are disjoint label
   intervals in route order, so the union is their concatenation.
   Shard snapshots already hold router ids, so no result is
   translated; only the shard roots map to one shared router node
   (the root), and the merge keeps the first shard's. *)

(* One task: a shard's frozen snapshot, the workspace it writes and
   the plan it runs.  Tasks reach their workspace only through this
   record, so concurrent tasks never share a mutable structure. *)
type task = {
  k_shard : shard;
  k_snap : Read_snapshot.t;
  k_ws : Label_index.workspace;
  k_plan : Query.plan;
}

(* The body every pool task runs: the serial snapshot driver over one
   shard, its router ids left unsorted in the task's workspace.  The
   task's comparisons go back to the caller, which records them after
   the barrier.  A traced run wraps the task in a "shard.query" span,
   which [shard_query_seconds] folds per shard. *)
let run_task k =
  let counters = Counters.create () in
  (if Span.enabled () then
     Span.with_ ~name:"shard.query"
       ~attrs:[ ("shard", string_of_int k.k_shard.sid) ]
       (fun () -> Read_snapshot.run counters k.k_snap k.k_ws k.k_plan)
   else Read_snapshot.run counters k.k_snap k.k_ws k.k_plan);
  Counters.comparisons counters

(* One query's answer: the tasks' result columns concatenated in route
   order.  A shard's stand-in root starts before all of its other
   rows, so it can only be a shard's first match; every shard after
   the first drops it. *)
let merge t (wss : Label_index.workspace array) =
  let root = Dom.id (root_of t.router) in
  let out = ref [] in
  for s = Array.length wss - 1 downto 0 do
    let col = wss.(s).Label_index.w_out in
    let n = Column.length col in
    let first = if s > 0 && n > 0 && Column.get col 0 = root then 1 else 0 in
    for i = n - 1 downto first do
      out := Column.get col i :: !out
    done
  done;
  !out

let filter_within t ~lo ~hi ids =
  List.filter
    (fun gid ->
      match Labeled_doc.node_by_id t.router gid with
      | None -> false
      | Some n ->
        let l = Labeled_doc.label t.router n in
        lo <= l.Labeled_doc.start_pos && l.Labeled_doc.start_pos <= hi)
    ids

let restrict ?within t ids =
  match within with
  | None -> ids
  | Some (lo, hi) -> filter_within t ~lo ~hi ids

let run ?counters ?within t pool plan =
  let tasks =
    Array.of_list
      (List.map
         (fun p ->
           let sh = t.shards.(p) in
           { k_shard = sh; k_snap = frozen sh; k_ws = sh.buf; k_plan = plan })
         (routed ?within t))
  in
  Query.record_comparisons ?counters
    (Array.fold_left ( + ) 0 (Pool.map pool run_task tasks));
  restrict ?within t (merge t (Array.map (fun k -> k.k_ws) tasks))

let descendants ?counters ?within t pool ~anc ~desc =
  run ?counters ?within t pool (Query.Descendants (anc, desc))

let children ?counters ?within t pool ~parent ~child =
  run ?counters ?within t pool (Query.Children (parent, child))

let path ?counters ?within t pool tags =
  run ?counters ?within t pool (Query.Path tags)

(* The batch fans {e shard x plan} tasks across the pool in one
   [Pool.map], so a hot query no longer serializes on one shard's
   index.  Several tasks share a shard here, so plan [i]'s task writes
   a workspace of its own: the shard's [buf] for plan 0, a fresh one
   for every other plan, dropped when the batch returns so a large
   batch leaves nothing behind; task [si * nq + qi] answers plan [qi]
   on routed shard [si]. *)
let batch ?within t pool plans =
  let snaps =
    Array.of_list
      (List.map
         (fun p ->
           let sh = t.shards.(p) in
           (sh, frozen sh))
         (routed ?within t))
  in
  let tasks =
    Array.concat
      (Array.to_list
         (Array.map
            (fun (sh, snap) ->
              Array.mapi
                (fun i plan ->
                  let k_ws =
                    if i = 0 then sh.buf else Label_index.create_workspace ()
                  in
                  { k_shard = sh; k_snap = snap; k_ws; k_plan = plan })
                plans)
            snaps))
  in
  let outcomes = Pool.map pool run_task tasks in
  let nq = Array.length plans in
  let ns = Array.length snaps in
  Array.init nq (fun qi ->
      let comparisons = ref 0 in
      for si = 0 to ns - 1 do
        comparisons := !comparisons + outcomes.((si * nq) + qi)
      done;
      Query.record_comparisons !comparisons;
      restrict ?within t
        (merge t (Array.init ns (fun si -> tasks.((si * nq) + qi).k_ws))))

(* {1 Unsharded reference plans}

   The same driver over the router's own store, as pooled tasks: the
   K-independent baseline the agreement invariant and the K=1
   byte-identity test compare against.  The three list wrappers sort
   their ids: the frozen [sharded_mix] bench compares them unsorted
   with its sorted copy of the sharded answer. *)

let unsharded_batch ?within t pool plans =
  Array.map (restrict ?within t)
    (Read_snapshot.run_batch pool (router_snapshot t) plans)

let unsharded_run ?counters ?within t pool plan =
  restrict ?within t
    (Read_snapshot.run_batch ?counters pool (router_snapshot t) [| plan |]).(0)

let unsharded_sorted ?counters ?within t pool plan =
  List.sort Int.compare (unsharded_run ?counters ?within t pool plan)

let unsharded_descendants ?counters ?within t pool ~anc ~desc =
  unsharded_sorted ?counters ?within t pool (Query.Descendants (anc, desc))

let unsharded_children ?counters ?within t pool ~parent ~child =
  unsharded_sorted ?counters ?within t pool (Query.Children (parent, child))

let unsharded_path ?counters ?within t pool tags =
  unsharded_sorted ?counters ?within t pool (Query.Path tags)

(* {1 Writes}

   Entries address nodes by {e router} label (the same global-anchor
   entries an unsharded {!Durable_doc} would take).  The write resolves
   the owning shard, translates the anchor to the shard's local label,
   and goes through the shard's group commit; the router twin then
   applies the global entry in memory, and fresh/dead subtrees are
   linked/unlinked in the identity maps.  The shard store is the
   crash-durable one — a {!Fault.Crash} out of the shard's journal
   leaves the router un-applied for that entry, so surviving shards
   and the router always sit at a well-defined global prefix. *)

let top_ancestor t n =
  let groot_id = Dom.id (root_of t.router) in
  let rec up n =
    match Dom.parent n with
    | None -> n
    | Some p -> if Dom.id p = groot_id then n else up p
  in
  up n

let owner_position t gnode =
  let groot_id = Dom.id (root_of t.router) in
  if Dom.id gnode = groot_id then
    invalid_arg "Sharded_doc: the root itself has no single owner"
  else Int_tbl.find t.top_owner (Dom.id (top_ancestor t gnode))

(* The shard a root-level insert at child position [i] lands in: the
   first shard whose owned range can absorb position [i] (an append to
   shard [p] beats a prepend to shard [p+1] on the shared boundary). *)
let root_insert_position t i =
  let k = Array.length t.shards in
  let rec go p = if p >= k - 1 || i <= t.cuts.(p + 1) then p else go (p + 1) in
  go 0

let local_node sh t gnode =
  let lid = Int_tbl.find sh.l_of_g (Dom.id gnode) in
  match Labeled_doc.node_by_id (Durable_doc.ldoc sh.durable) lid with
  | Some n -> n
  | None ->
    ignore t;
    invalid_arg "Sharded_doc: identity maps out of sync with shard"

let local_anchor sh t gnode =
  (Labeled_doc.label (Durable_doc.ldoc sh.durable) (local_node sh t gnode))
    .Labeled_doc.start_pos

let nth_child n i = List.nth (Dom.children n) i

let shard_apply t sh entry =
  (match t.on_local_entry with
   | None -> ()
   | Some hook -> hook sh.sid entry);
  (* A traced run times the commit in a "shard.commit" span and notes
     the records left pending after it in a "shard.pending" point:
     [shard_commit_seconds] and [shard_journal_pending] fold them per
     shard. *)
  if Span.enabled () then begin
    let shard = ("shard", string_of_int sh.sid) in
    Span.with_ ~name:"shard.commit" ~attrs:[ shard ] (fun () ->
        Durable_doc.apply sh.durable entry);
    Span.event
      ~attrs:
        [ shard; ("pending", string_of_int (Durable_doc.pending sh.durable)) ]
      "shard.pending"
  end
  else Durable_doc.apply sh.durable entry

let apply t entry =
  let groot = root_of t.router in
  let resolve anchor =
    match Labeled_doc.node_by_start_label t.router anchor with
    | Some n -> n
    | None ->
      raise
        (Journal.Replay_error { what = "sharded apply"; anchor })
  in
  (match entry with
   | Journal.Insert { anchor; index; xml } ->
     let gparent = resolve anchor in
     if Dom.id gparent = Dom.id groot then begin
       (* Root-level insert: route by child position over the cuts. *)
       let p = root_insert_position t index in
       let sh = t.shards.(p) in
       let local_index = index - t.cuts.(p) in
       shard_apply t sh
         (Journal.Insert
            { anchor = local_anchor sh t groot; index = local_index; xml });
       Journal.apply_entry t.router entry;
       let gfresh = nth_child groot index in
       let lfresh =
         nth_child (local_node sh t groot) local_index
       in
       link_subtree sh gfresh lfresh;
       for q = p + 1 to Array.length t.shards do
         t.cuts.(q) <- t.cuts.(q) + 1
       done;
       Int_tbl.replace t.top_owner (Dom.id gfresh) p
     end
     else begin
       let p = owner_position t gparent in
       let sh = t.shards.(p) in
       let lparent = local_node sh t gparent in
       shard_apply t sh
         (Journal.Insert { anchor = local_anchor sh t gparent; index; xml });
       Journal.apply_entry t.router entry;
       link_subtree sh (nth_child gparent index) (nth_child lparent index)
     end
   | Journal.Delete { anchor } ->
     let gnode = resolve anchor in
     let p = owner_position t gnode in
     let sh = t.shards.(p) in
     let top_level = Dom.id (top_ancestor t gnode) = Dom.id gnode in
     let child_pos = if top_level then Dom.index_in_parent gnode else -1 in
     shard_apply t sh
       (Journal.Delete { anchor = local_anchor sh t gnode });
     Journal.apply_entry t.router entry;
     unlink_subtree sh gnode;
     if top_level then begin
       Int_tbl.remove t.top_owner (Dom.id gnode);
       for q = 0 to Array.length t.shards do
         if t.cuts.(q) > child_pos then t.cuts.(q) <- t.cuts.(q) - 1
       done
     end
   | Journal.Set_text { anchor; text } ->
     let gnode = resolve anchor in
     let p = owner_position t gnode in
     let sh = t.shards.(p) in
     shard_apply t sh
       (Journal.Set_text { anchor = local_anchor sh t gnode; text });
     Journal.apply_entry t.router entry);
  ignore (Label_sync.flush t.r_sync : Label_sync.stats)

let sync t = Array.iter (fun sh -> Durable_doc.sync sh.durable) t.shards

let checkpoint t =
  Array.iter (fun sh -> Durable_doc.checkpoint sh.durable) t.shards

(* {1 Rebalance}

   Splitting a dense shard copies its store: the journal is flushed, a
   clone of the shard's document through the snapshot image (which
   carries the section 4.2 labels, so the copy's anchors equal the
   original's) seeds a fresh store on the new shard's disk, and then
   each side deletes -- through its own journal, so the trim is itself
   crash-durable -- the top-level subtrees the other side keeps.  Shard
   state (cuts, identity maps, routing tables) only changes at the
   final commit, so concurrent readers between phases still see the
   old layout. *)

let copy_store t sh =
  Durable_doc.sync sh.durable;
  let sim = t.sim_for (Array.length t.shards + t.rebalances) in
  let clone = Snapshot.load (Snapshot.save (Durable_doc.ldoc sh.durable)) in
  ( sim,
    Durable_doc.initialize ~io:(Fault.sim_io sim) ~group_commit:t.group_commit
      ~dir:shard_dir clone )

(* Split point balancing the two halves by node count. *)
let split_index subs lo hi =
  let sizes = Array.init (hi - lo) (fun i -> Dom.size subs.(lo + i)) in
  let total = Array.fold_left ( + ) 0 sizes in
  let best = ref 1 and best_gap = ref Stdlib.max_int in
  let acc = ref 0 in
  for m = 1 to hi - lo - 1 do
    acc := !acc + sizes.(m - 1);
    let gap = Stdlib.abs (total - (2 * !acc)) in
    if gap < !best_gap then begin
      best_gap := gap;
      best := m
    end
  done;
  !best

let start_anchors ldoc nodes =
  List.map
    (fun n -> (Labeled_doc.label ldoc n).Labeled_doc.start_pos)
    nodes

let split ?(on_phase = fun (_ : string) -> ()) t p =
  let sh = t.shards.(p) in
  let owned = t.cuts.(p + 1) - t.cuts.(p) in
  if owned < 2 then
    invalid_arg "Sharded_doc.split: shard owns fewer than two subtrees";
  let groot = root_of t.router in
  let subs = Array.of_list (Dom.children groot) in
  let m = split_index subs t.cuts.(p) t.cuts.(p + 1) in
  on_phase "copy";
  let nsim, ndurable = copy_store t sh in
  on_phase "trim";
  let old_ldoc = Durable_doc.ldoc sh.durable in
  let new_ldoc = Durable_doc.ldoc ndurable in
  (* Anchors of the subtrees each side gives up, taken before any trim:
     positions [m..owned) leave the old shard, [0..m) the new one. *)
  let old_children = Dom.children (root_of old_ldoc) in
  let moved_anchors = start_anchors old_ldoc (sub_range old_children m owned) in
  let new_children = Dom.children (root_of new_ldoc) in
  let kept_anchors = start_anchors new_ldoc (sub_range new_children 0 m) in
  List.iter (fun anchor -> Durable_doc.delete sh.durable ~anchor) moved_anchors;
  List.iter (fun anchor -> Durable_doc.delete ndurable ~anchor) kept_anchors;
  Durable_doc.checkpoint sh.durable;
  Durable_doc.checkpoint ndurable;
  (* Wire the trimmed copy up as a full shard. *)
  let nsh =
    wire_shard
      ~sid:(Array.length t.shards + t.rebalances)
      ~sim:nsim ndurable
  in
  link_pair nsh groot (root_of new_ldoc);
  let gmoved =
    Array.to_list (Array.sub subs (t.cuts.(p) + m) (owned - m))
  in
  List.iter2
    (fun g l -> link_subtree nsh g l)
    gmoved
    (Dom.children (root_of new_ldoc));
  List.iter (fun g -> unlink_subtree sh g) gmoved;
  ignore (Label_sync.flush sh.sync : Label_sync.stats);
  sh.snap <- None;
  let k = Array.length t.shards in
  t.shards <-
    Array.init (k + 1) (fun q ->
        if q <= p then t.shards.(q)
        else if q = p + 1 then nsh
        else t.shards.(q - 1));
  t.cuts <-
    Array.init (k + 2) (fun q ->
        if q <= p then t.cuts.(q)
        else if q = p + 1 then t.cuts.(p) + m
        else t.cuts.(q - 1));
  t.layout_gen <- t.layout_gen + 1;
  rebuild_top_owner t;
  t.rebalances <- t.rebalances + 1;
  on_phase "commit"

let maybe_rebalance ?(threshold = 2.0) ?on_phase t =
  let k = Array.length t.shards in
  let sizes =
    Array.map (fun sh -> Labeled_doc.size (Durable_doc.ldoc sh.durable)) t.shards
  in
  let total = Array.fold_left ( + ) 0 sizes in
  let mean = float_of_int total /. float_of_int (Int.max 1 k) in
  let rec find p =
    if p >= k then None
    else if
      Float.compare (float_of_int sizes.(p)) (threshold *. mean) > 0
      && t.cuts.(p + 1) - t.cuts.(p) >= 2
    then Some p
    else find (p + 1)
  in
  match find 0 with
  | None -> false
  | Some p ->
    split ?on_phase t p;
    true

(* {1 Invariants} *)

let check t =
  Array.iteri
    (fun p sh ->
      let snap = frozen sh in
      let fail tag i fmt =
        Printf.ksprintf
          (fun m ->
            failwith
              (Printf.sprintf "Sharded_doc: shard %d, %s row %d: %s" p tag i m))
          fmt
      in
      List.iter
        (fun tag ->
          let rows = Read_snapshot.entry snap tag in
          for i = 0 to rows.Label_index.len - 1 do
            let rid = Column.get_checked rows.Label_index.rids i in
            let id = Column.get_checked rows.Label_index.ids i in
            let level = Column.get_checked rows.Label_index.levels i in
            let lid =
              (Ltree_relstore.Rel_table.get sh.store.Shredder.label_table rid)
                .Shredder.l_id
            in
            (match Int_tbl.find_opt sh.g_of_l lid with
             | Some g when g = id -> ()
             | Some _ | None ->
               fail tag i "id %d is not the translation of local id %d" id lid);
            match Labeled_doc.node_by_id t.router id with
            | None -> fail tag i "id %d names no live router node" id
            | Some n ->
              let same_tag =
                match Shredder.tag_of n with
                | Some tg -> String.equal tg tag
                | None -> false
              in
              if
                (not same_tag)
                || (Labeled_doc.label t.router n).Labeled_doc.level <> level
              then fail tag i "router node %d has another tag or level" id
          done)
        (Read_snapshot.tags snap))
    t.shards
