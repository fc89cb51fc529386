module Counters = Ltree_metrics.Counters
module Span = Ltree_obs.Span
module Histogram = Ltree_obs.Histogram

(* Histograms are registered once at module init; the registry hands the
   same instance back to [ltree metrics] and the benches for exposition. *)
let insert_seconds =
  Ltree_obs.Registry.histogram ~name:"ltree_insert_seconds"
    ~help:"Latency of L-Tree insertions in seconds (single and batch)"
    ~bounds:(Histogram.log2_bounds ~start:1e-7 ~count:20)
    ()

let insert_relabels =
  Ltree_obs.Registry.histogram ~name:"ltree_insert_relabels"
    ~help:"Relabelings performed by one L-Tree insertion"
    ~bounds:(Histogram.linear_bounds ~start:0. ~step:8. ~count:20)
    ()

let observe_insert r =
  Histogram.observe insert_seconds r.Ltree_obs.Trace.duration;
  Histogram.observe_int insert_relabels (Ltree_obs.Trace.delta r "relabels")

type node = {
  id : int; (* unique; 0 for internals and the dummy *)
  mutable num : int;
  mutable parent : node option;
  height : int;
  mutable nleaves : int;
  mutable children : node array;
  mutable nchildren : int;
  mutable deleted : bool;
}

type leaf = node

type t = {
  params : Params.t;
  counters : Counters.t;
  mutable root : node;
  mutable nslots : int;
  mutable nlive : int;
  mutable relabel_hook : (node -> unit) option;
  mutable version : int;
  mutable next_leaf_id : int;
      (* per-tree so leaf ids are reproducible per tree and allocation
         never races across domains building distinct trees *)
}

let dummy =
  { id = 0; num = 0; parent = None; height = 0; nleaves = 0; children = [||];
    nchildren = 0; deleted = false }

let new_leaf t =
  t.next_leaf_id <- t.next_leaf_id + 1;
  { id = t.next_leaf_id; num = 0; parent = None; height = 0; nleaves = 1;
    children = [||]; nchildren = 0; deleted = false }

let new_internal (params : Params.t) ~height ~nleaves =
  { id = 0; num = 0; parent = None; height; nleaves;
    children = Array.make (params.f + 1) dummy; nchildren = 0;
    deleted = false }

let create ?(params = Params.fig2) ?(counters = Counters.create ()) () =
  { params; counters; root = new_internal params ~height:1 ~nleaves:0;
    nslots = 0; nlive = 0; relabel_hook = None; version = 0;
    next_leaf_id = 0 }

let leaf_id w = w.id
let last_leaf_id t = t.next_leaf_id
let on_relabel t f = t.relabel_hook <- Some f
let version t = t.version

let params t = t.params
let counters t = t.counters
let length t = t.nslots
let live_length t = t.nlive
let height t = t.root.height

(* {1 Small structural helpers} *)

let index_of parent child =
  let rec go i =
    if i >= parent.nchildren then
      failwith "Ltree: child not found under its parent"
    else if parent.children.(i) == child then i
    else go (i + 1)
  in
  go 0

let is_root t v = v == t.root

(* Replace children [at, at + remove) of [p] with [inserted]. *)
let children_splice p ~at ~remove inserted =
  let old_count = p.nchildren in
  let extra = Array.length inserted - remove in
  let needed = old_count + extra in
  if needed > Array.length p.children then begin
    let bigger = Array.make (needed + 4) dummy in
    Array.blit p.children 0 bigger 0 old_count;
    p.children <- bigger
  end;
  Array.blit p.children (at + remove) p.children
    (at + Array.length inserted)
    (old_count - at - remove);
  Array.blit inserted 0 p.children at (Array.length inserted);
  p.nchildren <- needed;
  (* Clear stale slots so dropped nodes can be collected. *)
  for i = needed to old_count - 1 do
    p.children.(i) <- dummy
  done;
  Array.iter (fun c -> c.parent <- Some p) inserted

let collect_leaves node =
  let out = Array.make node.nleaves dummy in
  let i = ref 0 in
  let rec dfs v =
    if v.height = 0 then begin
      out.(!i) <- v;
      incr i
    end
    else
      for j = 0 to v.nchildren - 1 do
        dfs v.children.(j)
      done
  in
  dfs node;
  assert (!i = node.nleaves);
  out

(* {1 Labeling} *)

let set_num ?(count = true) t v num =
  if v.num <> num then begin
    v.num <- num;
    if count then begin
      Counters.add_relabel t.counters 1;
      if v.height = 0 then
        match t.relabel_hook with Some f -> f v | None -> ()
    end
  end

(* Assign [num] to [v] and renumber its whole subtree (paper's Relabel). *)
let rec assign ?count t v num =
  set_num ?count t v num;
  if v.height > 0 then begin
    let step = Params.pow_radix t.params (v.height - 1) in
    for i = 0 to v.nchildren - 1 do
      assign ?count t v.children.(i) (num + (i * step))
    done
  end

(* Renumber the children of [p] from index [j] on (and their subtrees). *)
let relabel_children_from ?count t p j =
  if p.nchildren > 0 then begin
    let step = Params.pow_radix t.params (p.height - 1) in
    for i = j to p.nchildren - 1 do
      assign ?count t p.children.(i) (p.num + (i * step))
    done
  end

(* {1 Subtree construction}

   [build_sub] erects a fresh height-[height] subtree over
   [leaves.(lo, hi)], reusing the existing leaf nodes so external handles
   survive, and chunking interior nodes per {!Layout.chunk_sizes}.  Numbers
   are not assigned here; callers relabel afterwards. *)

let rec build_sub t leaves ~lo ~hi ~height =
  if height = 0 then begin
    assert (hi - lo = 1);
    leaves.(lo)
  end
  else begin
    let count = hi - lo in
    let v = new_internal t.params ~height ~nleaves:count in
    Counters.add_node_access t.counters 1;
    let off = ref lo in
    List.iter
      (fun chunk ->
        let child =
          build_sub t leaves ~lo:!off ~hi:(!off + chunk) ~height:(height - 1)
        in
        child.parent <- Some v;
        v.children.(v.nchildren) <- child;
        v.nchildren <- v.nchildren + 1;
        off := !off + chunk)
      (Layout.chunk_sizes t.params ~height ~count);
    assert (!off = hi);
    v
  end

(* {1 Bulk loading (§2.2)} *)

let bulk_load ?(params = Params.fig2) ?(counters = Counters.create ()) n =
  if n < 0 then invalid_arg "Ltree.bulk_load: negative size";
  let t = create ~params ~counters () in
  if n = 0 then (t, [||])
  else begin
    let height = Params.height_for params n in
    let leaves = Array.init n (fun _ -> new_leaf t) in
    let root = build_sub t leaves ~lo:0 ~hi:n ~height in
    root.parent <- None;
    t.root <- root;
    t.nslots <- n;
    t.nlive <- n;
    (* Initial numbering is construction, not relabeling. *)
    assign ~count:false t root 0;
    (t, leaves)
  end

(* {1 Reconstruction from labels (§4.2)} *)

let of_labels ?(params = Params.fig2) ?(counters = Counters.create ())
    ~height labels =
  let fail fmt = Ltree_analysis.Invariant.fail ~name:"ltree.of_labels" fmt in
  if height < 1 then fail "Ltree.of_labels: height must be >= 1";
  let n = Array.length labels in
  let top = Params.pow_radix params height in
  Array.iteri
    (fun i lab ->
      if lab < 0 || lab >= top then
        fail "Ltree.of_labels: label %d outside the root interval" lab;
      if i > 0 && labels.(i - 1) >= lab then
        fail "Ltree.of_labels: labels not strictly increasing")
    labels;
  let t = create ~params ~counters () in
  if n = 0 then begin
    t.root <- new_internal params ~height ~nleaves:0;
    (t, [||])
  end
  else begin
    let leaves = Array.init n (fun _ -> new_leaf t) in
    (* Build the subtree over labels.(lo, hi), all inside the interval of
       the height-[h] node numbered [base]. *)
    let rec build ~lo ~hi ~h ~base =
      if h = 0 then begin
        let leaf = leaves.(lo) in
        leaf.num <- labels.(lo);
        assert (labels.(lo) = base);
        leaf
      end
      else begin
        let v = new_internal params ~height:h ~nleaves:(hi - lo) in
        v.num <- base;
        let step = Params.pow_radix params (h - 1) in
        let child_index lab = (lab - base) / step in
        let i = ref lo in
        while !i < hi do
          let idx = child_index labels.(!i) in
          if idx <> v.nchildren then
            fail "Ltree.of_labels: child positions not contiguous under %d"
              base;
          if idx > params.radix - 1 then
            fail "Ltree.of_labels: fanout exceeds f-1 under %d" base;
          let stop = ref !i in
          while !stop < hi && child_index labels.(!stop) = idx do
            incr stop
          done;
          let child =
            build ~lo:!i ~hi:!stop ~h:(h - 1) ~base:(base + (idx * step))
          in
          child.parent <- Some v;
          v.children.(v.nchildren) <- child;
          v.nchildren <- v.nchildren + 1;
          i := !stop
        done;
        v
      end
    in
    let root = build ~lo:0 ~hi:n ~h:height ~base:0 in
    root.parent <- None;
    t.root <- root;
    t.nslots <- n;
    t.nlive <- n;
    (* Occupancy windows must hold or later maintenance would misbehave. *)
    let rec verify v =
      if v.height > 0 then begin
        if v.nleaves >= Params.lmax params ~height:v.height then
          fail "Ltree.of_labels: node %d holds %d leaves, at/above its limit"
            v.num v.nleaves;
        if v != t.root && v.nleaves < Params.pow_m params v.height then
          fail "Ltree.of_labels: node %d holds %d leaves, below m^h" v.num
            v.nleaves;
        if v != t.root && v.nchildren < params.m then
          fail "Ltree.of_labels: node %d has fanout %d, below m" v.num
            v.nchildren;
        for i = 0 to v.nchildren - 1 do
          verify v.children.(i)
        done
      end
    in
    verify root;
    (t, leaves)
  end

(* {1 Single insertion (Algorithm 1)} *)

(* Bump [nleaves] by [k] along the ancestor chain starting at [v]; return
   the highest node that reaches (or, with [k > 1], would reach) its leaf
   limit. *)
let bump_ancestors t v k =
  let rec go v acc =
    v.nleaves <- v.nleaves + k;
    Counters.add_node_access t.counters 1;
    let acc =
      if v.nleaves >= Params.lmax t.params ~height:v.height then Some v
      else acc
    in
    match v.parent with None -> acc | Some u -> go u acc
  in
  go v None

let grow_root t =
  Span.event "ltree.grow_root";
  let old = t.root in
  let h = old.height in
  if h + 1 > t.params.max_height then raise Params.Label_overflow;
  let all = collect_leaves old in
  let span = Params.pow_m t.params h in
  assert (Array.length all = t.params.s * span);
  let root =
    new_internal t.params ~height:(h + 1) ~nleaves:(Array.length all)
  in
  for r = 0 to t.params.s - 1 do
    let sub = build_sub t all ~lo:(r * span) ~hi:((r + 1) * span) ~height:h in
    sub.parent <- Some root;
    root.children.(r) <- sub;
    root.nchildren <- root.nchildren + 1
  done;
  t.root <- root;
  Counters.add_split t.counters 1;
  relabel_children_from t root 0

let split t x =
  Span.event ~attrs:[ ("height", string_of_int x.height) ] "ltree.split";
  let p = match x.parent with Some p -> p | None -> assert false in
  let j = index_of p x in
  let ls = collect_leaves x in
  let h = x.height in
  let span = Params.pow_m t.params h in
  assert (Array.length ls = t.params.s * span);
  let subs =
    Array.init t.params.s (fun r ->
        build_sub t ls ~lo:(r * span) ~hi:((r + 1) * span) ~height:h)
  in
  children_splice p ~at:j ~remove:1 subs;
  Counters.add_split t.counters 1;
  relabel_children_from t p j

let insert_at t p idx =
  Span.with_ ~name:"ltree.insert" ~counters:t.counters
    ~on_close:observe_insert (fun () ->
      let leaf = new_leaf t in
      children_splice p ~at:idx ~remove:0 [| leaf |];
      t.nslots <- t.nslots + 1;
      t.nlive <- t.nlive + 1;
      t.version <- t.version + 1;
      (match bump_ancestors t p 1 with
       | None -> relabel_children_from t p idx
       | Some x when is_root t x -> grow_root t
       | Some x -> split t x);
      leaf)

let parent_of w =
  match w.parent with
  | Some p -> p
  | None -> failwith "Ltree: leaf has no parent (detached handle?)"

let insert_after t w =
  let p = parent_of w in
  insert_at t p (index_of p w + 1)

let insert_before t w =
  let p = parent_of w in
  insert_at t p (index_of p w)

let rec leftmost v = if v.height = 0 then v else leftmost v.children.(0)

let rec rightmost v =
  if v.height = 0 then v else rightmost v.children.(v.nchildren - 1)

let first t = if t.nslots = 0 then None else Some (leftmost t.root)
let last t = if t.nslots = 0 then None else Some (rightmost t.root)

let insert_first t =
  match first t with
  | None -> insert_at t t.root 0
  | Some w -> insert_before t w

(* {1 Batch insertion (§4.1)} *)

(* Leaf-sequence position of the insertion point (p, idx) relative to the
   subtree rooted at [stop]. *)
let position_within ~stop p idx =
  let rec go v pos =
    if v == stop then pos
    else
      match v.parent with
      | None -> failwith "Ltree: stop is not an ancestor"
      | Some u ->
        let i = index_of u v in
        let before = ref 0 in
        for r = 0 to i - 1 do
          before := !before + u.children.(r).nleaves
        done;
        go u (pos + !before)
  in
  go p idx

(* Splice [fresh] into [base] at [pos]. *)
let splice_leaves base pos fresh =
  let n = Array.length base and k = Array.length fresh in
  let out = Array.make (n + k) dummy in
  Array.blit base 0 out 0 pos;
  Array.blit fresh 0 out pos k;
  Array.blit base pos out (pos + k) (n - pos);
  out

(* Highest ancestor (starting at [p]) that would reach its leaf limit if
   [k] more leaves landed below it.  Does not modify counts. *)
let highest_overflowing t p k =
  let rec go v acc =
    let acc =
      if v.nleaves + k >= Params.lmax t.params ~height:v.height then Some v
      else acc
    in
    match v.parent with None -> acc | Some u -> go u acc
  in
  go p None

(* Add [k] to the leaf counts of [v] and all its ancestors. *)
let add_to_counts t v k =
  let rec go v =
    v.nleaves <- v.nleaves + k;
    Counters.add_node_access t.counters 1;
    match v.parent with None -> () | Some u -> go u
  in
  go v

let rebuild_root t merged =
  let total = Array.length merged in
  let rec pick h =
    if h > t.params.max_height then raise Params.Label_overflow
    else if total < Params.lmax t.params ~height:h then h
    else pick (h + 1)
  in
  let height =
    pick (Int.max t.root.height (Params.height_for t.params total))
  in
  let root = build_sub t merged ~lo:0 ~hi:total ~height in
  root.parent <- None;
  t.root <- root;
  Counters.add_split t.counters 1;
  assign t root 0

let insert_batch_at_raw t p idx k =
  let fresh = Array.init k (fun _ -> new_leaf t) in
  (match highest_overflowing t p k with
   | None ->
     (* Room everywhere: the new leaves become ordinary children of [p]. *)
     children_splice p ~at:idx ~remove:0 fresh;
     add_to_counts t p k;
     relabel_children_from t p idx
   | Some x when is_root t x ->
     let merged =
       splice_leaves (collect_leaves t.root)
         (position_within ~stop:t.root p idx)
         fresh
     in
     rebuild_root t merged
   | Some x ->
     (* Rebuild the tail [j ..] of x's parent: x plus its right siblings,
        re-chunked around the k new leaves. *)
     let bigp = match x.parent with Some u -> u | None -> assert false in
     let j = index_of bigp x in
     let region = ref [] in
     for r = bigp.nchildren - 1 downto j do
       region := collect_leaves bigp.children.(r) :: !region
     done;
     let base = Array.concat !region in
     let pos =
       (* Leaves of x's left in-region siblings precede the insertion
          point; x is the region's first member, so the offset is just the
          position within x. *)
       position_within ~stop:x p idx
     in
     let merged = splice_leaves base pos fresh in
     let total = Array.length merged in
     let h = x.height in
     let subs =
       let off = ref 0 in
       Array.of_list
         (List.map
            (fun chunk ->
              let sub =
                build_sub t merged ~lo:!off ~hi:(!off + chunk) ~height:h
              in
              off := !off + chunk;
              sub)
            (Layout.chunk_sizes t.params ~height:(h + 1) ~count:total))
     in
     children_splice bigp ~at:j ~remove:(bigp.nchildren - j) subs;
     add_to_counts t bigp k;
     Counters.add_split t.counters 1;
     relabel_children_from t bigp j);
  t.nslots <- t.nslots + k;
  t.nlive <- t.nlive + k;
  t.version <- t.version + 1;
  fresh

let insert_batch_at t p idx k =
  Span.with_ ~name:"ltree.insert_batch" ~counters:t.counters
    ~attrs:[ ("k", string_of_int k) ]
    ~on_close:observe_insert (fun () -> insert_batch_at_raw t p idx k)

let insert_batch_after t w k =
  if k < 1 then invalid_arg "Ltree.insert_batch_after: k must be >= 1";
  let p = parent_of w in
  insert_batch_at t p (index_of p w + 1) k

let insert_batch_before t w k =
  if k < 1 then invalid_arg "Ltree.insert_batch_before: k must be >= 1";
  let p = parent_of w in
  insert_batch_at t p (index_of p w) k

let insert_batch_first t k =
  if k < 1 then invalid_arg "Ltree.insert_batch_first: k must be >= 1";
  match first t with
  | None -> insert_batch_at t t.root 0 k
  | Some w ->
    let p = parent_of w in
    insert_batch_at t p 0 k

(* {1 Deletion (§2.3) and compaction} *)

let delete t w =
  if not w.deleted then begin
    Span.event "ltree.delete";
    w.deleted <- true;
    t.nlive <- t.nlive - 1;
    t.version <- t.version + 1
  end

let is_deleted w = w.deleted

let iter_leaves t f =
  let rec dfs v =
    if v.height = 0 then f v
    else
      for j = 0 to v.nchildren - 1 do
        dfs v.children.(j)
      done
  in
  if t.nslots > 0 then dfs t.root

let leaves t =
  if t.nslots = 0 then [||] else collect_leaves t.root

let labels t =
  let out = Array.make t.nslots 0 in
  let i = ref 0 in
  iter_leaves t (fun l ->
      out.(!i) <- l.num;
      incr i);
  out

let compact_raw t =
  t.version <- t.version + 1;
  let live = ref [] in
  iter_leaves t (fun l -> if not l.deleted then live := l :: !live);
  let live = Array.of_list (List.rev !live) in
  let n = Array.length live in
  if n = 0 then begin
    t.root <- new_internal t.params ~height:1 ~nleaves:0;
    t.nslots <- 0;
    t.nlive <- 0
  end
  else begin
    let height = Params.height_for t.params n in
    let root = build_sub t live ~lo:0 ~hi:n ~height in
    root.parent <- None;
    t.root <- root;
    t.nslots <- n;
    t.nlive <- n;
    assign t root 0
  end

let compact t =
  Span.with_ ~name:"ltree.compact" ~counters:t.counters (fun () ->
      compact_raw t)

(* {1 Labels and navigation} *)

let label _ w = w.num
let compare _ a b = Stdlib.compare a.num b.num

let max_label t = match last t with None -> 0 | Some w -> w.num

let bits_per_label t =
  let v = max_label t in
  let rec go acc v = if v = 0 then acc else go (acc + 1) (v lsr 1) in
  Int.max 1 (go 0 v)

let find_by_label t lab =
  if t.nslots = 0 || lab < 0 then None
  else begin
    let rec descend v =
      if v.height = 0 then if v.num = lab then Some v else None
      else begin
        let step = Params.pow_radix t.params (v.height - 1) in
        let i = (lab - v.num) / step in
        if i < 0 || i >= v.nchildren then None
        else descend v.children.(i)
      end
    in
    descend t.root
  end

let next _ w =
  let rec up v =
    match v.parent with
    | None -> None
    | Some u ->
      let i = index_of u v in
      if i + 1 < u.nchildren then Some (leftmost u.children.(i + 1))
      else up u
  in
  up w

let prev _ w =
  let rec up v =
    match v.parent with
    | None -> None
    | Some u ->
      let i = index_of u v in
      if i > 0 then Some (rightmost u.children.(i - 1)) else up u
  in
  up w

(* {1 Validation} *)

let check t =
  let fail fmt = Printf.ksprintf failwith fmt in
  let p = t.params in
  let rec go v ~root =
    if v.height = 0 then begin
      if v.nleaves <> 1 then fail "leaf with nleaves=%d" v.nleaves;
      if v.nchildren <> 0 then fail "leaf with children"
    end
    else begin
      if (not root) || v.nchildren > 0 then begin
        if v.nchildren < 1 then fail "internal node without children";
        if v.nchildren > p.f - 1 then
          fail "fanout %d exceeds f-1=%d" v.nchildren (p.f - 1);
        if (not root) && v.nchildren < p.m then
          fail "fanout %d below m=%d" v.nchildren p.m
      end;
      let limit = Params.lmax p ~height:v.height in
      if v.nleaves >= limit then
        fail "nleaves %d at/above limit %d (height %d)" v.nleaves limit
          v.height;
      if (not root) && v.nleaves < Params.pow_m p v.height then
        fail "nleaves %d below m^h (height %d)" v.nleaves v.height;
      let sum = ref 0 in
      let step = Params.pow_radix p (v.height - 1) in
      for i = 0 to v.nchildren - 1 do
        let c = v.children.(i) in
        if c.height <> v.height - 1 then fail "child height mismatch";
        (match c.parent with
         | Some u when u == v -> ()
         | Some _ | None -> fail "child parent pointer broken");
        if c.num <> v.num + (i * step) then
          fail "num mismatch: child %d of %d has %d, expected %d" i v.num
            c.num
            (v.num + (i * step));
        sum := !sum + c.nleaves;
        go c ~root:false
      done;
      if !sum <> v.nleaves then
        fail "nleaves %d but children sum to %d" v.nleaves !sum
    end
  in
  if t.root.num <> 0 then fail "root num is %d, not 0" t.root.num;
  if t.root.height < 1 then fail "root height %d" t.root.height;
  (match t.root.parent with
   | Some _ -> fail "root has a parent"
   | None -> ());
  go t.root ~root:true;
  if t.root.nleaves <> t.nslots then
    fail "nslots %d but root counts %d" t.nslots t.root.nleaves;
  (* Leaf numbers must be strictly increasing. *)
  let prev = ref (-1) in
  iter_leaves t (fun l ->
      if l.num <= !prev then fail "leaf labels not increasing";
      prev := l.num)

(* Parent-to-root order. *)
let ancestor_numbers _ w =
  let rec go acc v =
    match v.parent with None -> List.rev acc | Some u -> go (u.num :: acc) u
  in
  go [] w

let internal_node_count t =
  let count = ref 0 in
  let rec go v =
    if v.height > 0 then begin
      incr count;
      for i = 0 to v.nchildren - 1 do
        go v.children.(i)
      done
    end
  in
  go t.root;
  !count

let pp ppf t =
  let open Format in
  fprintf ppf "@[<v>L-Tree %a: %d slots (%d live), height %d@,"
    Params.pp t.params t.nslots t.nlive t.root.height;
  let rec level_nodes acc depth nodes =
    if nodes = [] then List.rev acc
    else
      let next =
        List.concat_map
          (fun v ->
            if v.height = 0 then []
            else List.init v.nchildren (fun i -> v.children.(i)))
          nodes
      in
      level_nodes ((depth, nodes) :: acc) (depth + 1) next
  in
  List.iter
    (fun (depth, nodes) ->
      fprintf ppf "  level %d:" depth;
      List.iter
        (fun v ->
          if v.height = 0 && v.deleted then fprintf ppf " %d(x)" v.num
          else fprintf ppf " %d" v.num)
        nodes;
      fprintf ppf "@,")
    (level_nodes [] 0 [ t.root ]);
  fprintf ppf "@]"
