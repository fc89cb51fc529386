module Counters = Ltree_metrics.Counters
module Span = Ltree_obs.Span

type node = {
  id : int; (* unique; 0 for internals and the dummy *)
  mutable num : int;
  mutable parent : node; (* [dummy] for the root and detached nodes *)
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
  mutable version : int;
  mutable next_leaf_id : int;
      (* per-tree so leaf ids are reproducible per tree and allocation
         never races across domains building distinct trees *)
  mutable tracking : bool;
  log : Id_log.t; (* relabeled leaves; room for every id while tracking *)
  mutable scratch : node array;
      (* leaf buffer of the region rebuilds; only [dummy] outside one *)
}

let rec dummy =
  { id = 0; num = 0; parent = dummy; height = 0; nleaves = 0;
    children = [||]; nchildren = 0; deleted = false }

let new_leaf t =
  t.next_leaf_id <- t.next_leaf_id + 1;
  if t.tracking then Id_log.reserve t.log t.next_leaf_id;
  { id = t.next_leaf_id; num = 0; parent = dummy; height = 0; nleaves = 1;
    children = [||]; nchildren = 0; deleted = false }

let new_internal (params : Params.t) ~height ~nleaves =
  { id = 0; num = 0; parent = dummy; height; nleaves;
    children = Array.make (params.f + 1) dummy; nchildren = 0;
    deleted = false }

let create ?(params = Params.fig2) ?(counters = Counters.create ()) () =
  { params; counters; root = new_internal params ~height:1 ~nleaves:0;
    nslots = 0; nlive = 0; version = 0; next_leaf_id = 0; tracking = false;
    log = Id_log.create (); scratch = [||] }

let leaf_id w = w.id
let last_leaf_id t = t.next_leaf_id
let version t = t.version

let params t = t.params
let counters t = t.counters
let length t = t.nslots
let live_length t = t.nlive
let height t = t.root.height

(* {1 The relabel log}: while tracking, every leaf whose number changes
   is logged once, with no hashing and no allocation. *)

let drain_relabels t f = Id_log.drain t.log f
let relabels_logged t = Id_log.length t.log

let track_relabels t =
  drain_relabels t ignore;
  t.tracking <- true;
  Id_log.reserve t.log t.next_leaf_id

(* {1 Small structural helpers} *)

let index_of parent child =
  let i = ref 0 in
  while !i < parent.nchildren && parent.children.(!i) != child do
    incr i
  done;
  if !i >= parent.nchildren then
    failwith "Ltree: child not found under its parent";
  !i

let is_root t v = v == t.root

(* Replace children [at, at + remove) of [p] by [add] slots, shifting the
   rest; the caller fills the new slots with {!set_child}. *)
let make_room p ~at ~remove ~add =
  let old_count = p.nchildren in
  let needed = old_count + add - remove in
  if needed > Array.length p.children then begin
    let bigger = Array.make (needed + 4) dummy in
    Array.blit p.children 0 bigger 0 old_count;
    p.children <- bigger
  end;
  Array.blit p.children (at + remove) p.children (at + add)
    (old_count - at - remove);
  p.nchildren <- needed;
  (* Clear stale slots so dropped nodes can be collected. *)
  for i = needed to old_count - 1 do
    p.children.(i) <- dummy
  done

let set_child p i c =
  p.children.(i) <- c;
  c.parent <- p

(* Write the leaves of [v] into [buf] from [i]; the next free index. *)
let rec gather buf v i =
  if v.height = 0 then begin
    buf.(i) <- v;
    i + 1
  end
  else begin
    let i = ref i in
    for j = 0 to v.nchildren - 1 do
      i := gather buf v.children.(j) !i
    done;
    !i
  end

(* The tree's scratch leaf buffer, with room for [n] leaves.  A rebuild
   fills a prefix, builds from it and hands it back with {!release}. *)
let scratch t n =
  if Array.length t.scratch < n then
    t.scratch <- Array.make (Int.max n (2 * Array.length t.scratch)) dummy;
  t.scratch

let release t n = Array.fill t.scratch 0 n dummy

(* {1 Labeling} *)

let[@ltree.hot] set_num t ~count v num =
  if v.num <> num then begin
    v.num <- num;
    if count then begin
      Counters.add_relabel t.counters 1;
      if v.height = 0 && t.tracking then Id_log.add t.log v.id
    end
  end

(* Assign [num] to [v] and renumber its whole subtree (paper's Relabel). *)
let[@ltree.hot] rec assign t ~count v num =
  set_num t ~count v num;
  if v.height > 0 then begin
    let step = Params.pow_radix t.params (v.height - 1) in
    for i = 0 to v.nchildren - 1 do
      assign t ~count v.children.(i) (num + (i * step))
    done
  end

(* Renumber the children of [p] from index [j] on (and their subtrees). *)
let[@ltree.hot] relabel_children_from t p j =
  if p.nchildren > 0 then begin
    let step = Params.pow_radix t.params (p.height - 1) in
    for i = j to p.nchildren - 1 do
      assign t ~count:true p.children.(i) (p.num + (i * step))
    done
  end

(* {1 Subtree construction}

   [build_sub] erects a fresh height-[height] subtree over
   [leaves.(lo, hi)], reusing the existing leaf nodes so external handles
   survive, and chunking interior nodes per {!Layout.chunk_size}.  Numbers
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
    build_children t v leaves ~lo ~count ~height;
    v
  end

(* Append to [v] the children of a height-[height] node over
   [leaves.(lo, lo + count)], chunked per {!Layout}. *)
and build_children t v leaves ~lo ~count ~height =
  let off = ref lo in
  for i = 0 to Layout.chunk_count t.params ~height ~count - 1 do
    let chunk = Layout.chunk_size t.params ~height ~count i in
    let child =
      build_sub t leaves ~lo:!off ~hi:(!off + chunk) ~height:(height - 1)
    in
    set_child v v.nchildren child;
    v.nchildren <- v.nchildren + 1;
    off := !off + chunk
  done;
  assert (!off = lo + count)

(* {1 Bulk loading (§2.2)} *)

let bulk_load ?(params = Params.fig2) ?(counters = Counters.create ()) n =
  if n < 0 then invalid_arg "Ltree.bulk_load: negative size";
  let t = create ~params ~counters () in
  if n = 0 then (t, [||])
  else begin
    let height = Params.height_for params n in
    let leaves = Array.init n (fun _ -> new_leaf t) in
    t.root <- build_sub t leaves ~lo:0 ~hi:n ~height;
    t.nslots <- n;
    t.nlive <- n;
    (* Initial numbering is construction, not relabeling. *)
    assign t ~count:false t.root 0;
    (t, leaves)
  end

(* {1 Reconstruction from labels (§4.2)} *)

let of_labels ?(params = Params.fig2) ?(counters = Counters.create ())
    ~height labels =
  let fail fmt = Ltree_analysis.Invariant.fail ~name:"ltree.of_labels" fmt in
  if height < 1 then fail "Ltree.of_labels: height must be >= 1";
  if height > params.Params.max_height then
    fail "Ltree.of_labels: height %d exceeds the largest, %d" height
      params.Params.max_height;
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
          set_child v v.nchildren child;
          v.nchildren <- v.nchildren + 1;
          i := !stop
        done;
        v
      end
    in
    let root = build ~lo:0 ~hi:n ~h:height ~base:0 in
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
   limit, or [dummy]. *)
let bump_ancestors t v k =
  let v = ref v and top = ref dummy in
  while !v != dummy do
    let u = !v in
    u.nleaves <- u.nleaves + k;
    Counters.add_node_access t.counters 1;
    if u.nleaves >= Params.lmax t.params ~height:u.height then top := u;
    v := u.parent
  done;
  !top

(* Replace child [j] of [p] by the [s] complete subtrees over
   [leaves.(0, s * m^h)], h the child height. *)
let build_split t p ~at:j leaves ~height:h =
  let span = Params.pow_m t.params h in
  for r = 0 to t.params.s - 1 do
    set_child p (j + r)
      (build_sub t leaves ~lo:(r * span) ~hi:((r + 1) * span) ~height:h)
  done

let grow_root t =
  Span.event "ltree.grow_root";
  let old = t.root in
  let h = old.height in
  if h + 1 > t.params.max_height then raise Params.Label_overflow;
  let n = old.nleaves in
  assert (n = t.params.s * Params.pow_m t.params h);
  let buf = scratch t n in
  ignore (gather buf old 0 : int);
  let root = new_internal t.params ~height:(h + 1) ~nleaves:n in
  make_room root ~at:0 ~remove:0 ~add:t.params.s;
  build_split t root ~at:0 buf ~height:h;
  release t n;
  t.root <- root;
  Counters.add_split t.counters 1;
  relabel_children_from t root 0

let split t x =
  if Span.enabled () then
    Span.event ~attrs:[ ("height", string_of_int x.height) ] "ltree.split";
  let p = x.parent in
  let j = index_of p x in
  let n = x.nleaves in
  assert (n = t.params.s * Params.pow_m t.params x.height);
  let buf = scratch t n in
  ignore (gather buf x 0 : int);
  make_room p ~at:j ~remove:1 ~add:t.params.s;
  build_split t p ~at:j buf ~height:x.height;
  release t n;
  Counters.add_split t.counters 1;
  relabel_children_from t p j

let insert_at_raw t p idx =
  let leaf = new_leaf t in
  make_room p ~at:idx ~remove:0 ~add:1;
  set_child p idx leaf;
  t.nslots <- t.nslots + 1;
  t.nlive <- t.nlive + 1;
  t.version <- t.version + 1;
  let x = bump_ancestors t p 1 in
  if x == dummy then relabel_children_from t p idx
  else if is_root t x then grow_root t
  else split t x;
  leaf

let insert_at t p idx =
  if Span.enabled () then
    Span.with_ ~name:"ltree.insert" ~counters:t.counters (fun () ->
        insert_at_raw t p idx)
  else insert_at_raw t p idx

let parent_of w =
  if w.parent == dummy then
    failwith "Ltree: leaf has no parent (detached handle?)";
  w.parent

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
  let v = ref p and pos = ref idx in
  while !v != stop do
    let u = !v.parent in
    if u == dummy then failwith "Ltree: stop is not an ancestor";
    for r = 0 to index_of u !v - 1 do
      pos := !pos + u.children.(r).nleaves
    done;
    v := u
  done;
  !pos

(* Open a gap of [Array.length fresh] at [pos] in [buf.(0, n)] and fill
   it with [fresh]. *)
let splice_in buf ~n ~pos fresh =
  let k = Array.length fresh in
  Array.blit buf pos buf (pos + k) (n - pos);
  Array.blit fresh 0 buf pos k

(* Highest ancestor (starting at [p]) that would reach its leaf limit if
   [k] more leaves landed below it, or [dummy].  Does not modify
   counts. *)
let highest_overflowing t p k =
  let v = ref p and top = ref dummy in
  while !v != dummy do
    let u = !v in
    if u.nleaves + k >= Params.lmax t.params ~height:u.height then top := u;
    v := u.parent
  done;
  !top

(* Add [k] to the leaf counts of [v] and all its ancestors. *)
let add_to_counts t v k =
  let v = ref v in
  while !v != dummy do
    !v.nleaves <- !v.nleaves + k;
    Counters.add_node_access t.counters 1;
    v := !v.parent
  done

let rebuild_root t merged ~total =
  let rec pick h =
    if h > t.params.max_height then raise Params.Label_overflow
    else if total < Params.lmax t.params ~height:h then h
    else pick (h + 1)
  in
  let height =
    pick (Int.max t.root.height (Params.height_for t.params total))
  in
  t.root <- build_sub t merged ~lo:0 ~hi:total ~height;
  Counters.add_split t.counters 1;
  assign t ~count:true t.root 0

let insert_batch_at_raw t p idx k =
  let fresh = Array.make k dummy in
  for i = 0 to k - 1 do
    fresh.(i) <- new_leaf t
  done;
  let x = highest_overflowing t p k in
  if x == dummy then begin
    (* Room everywhere: the new leaves become ordinary children of [p]. *)
    make_room p ~at:idx ~remove:0 ~add:k;
    for i = 0 to k - 1 do
      set_child p (idx + i) fresh.(i)
    done;
    add_to_counts t p k;
    relabel_children_from t p idx
  end
  else if is_root t x then begin
    let n = t.root.nleaves in
    let buf = scratch t (n + k) in
    ignore (gather buf t.root 0 : int);
    splice_in buf ~n ~pos:(position_within ~stop:t.root p idx) fresh;
    rebuild_root t buf ~total:(n + k);
    release t (n + k)
  end
  else begin
    (* Rebuild the tail [j ..] of x's parent: x plus its right siblings,
       re-chunked around the k new leaves. *)
    let bigp = x.parent in
    let j = index_of bigp x in
    let n = ref 0 in
    for r = j to bigp.nchildren - 1 do
      n := !n + bigp.children.(r).nleaves
    done;
    let n = !n in
    let buf = scratch t (n + k) in
    let filled = ref 0 in
    for r = j to bigp.nchildren - 1 do
      filled := gather buf bigp.children.(r) !filled
    done;
    (* Leaves of x's left in-region siblings precede the insertion point;
       x is the region's first member, so the offset is just the position
       within x. *)
    splice_in buf ~n ~pos:(position_within ~stop:x p idx) fresh;
    make_room bigp ~at:j ~remove:(bigp.nchildren - j) ~add:0;
    build_children t bigp buf ~lo:0 ~count:(n + k) ~height:(x.height + 1);
    release t (n + k);
    add_to_counts t bigp k;
    Counters.add_split t.counters 1;
    relabel_children_from t bigp j
  end;
  t.nslots <- t.nslots + k;
  t.nlive <- t.nlive + k;
  t.version <- t.version + 1;
  fresh

let insert_batch_at t p idx k =
  if Span.enabled () then
    Span.with_ ~name:"ltree.insert_batch" ~counters:t.counters
      ~attrs:[ ("k", string_of_int k) ]
      (fun () -> insert_batch_at_raw t p idx k)
  else insert_batch_at_raw t p idx k

let insert_batch_after t w k =
  if k < 1 then invalid_arg "Ltree.insert_batch_after: k must be >= 1";
  let p = parent_of w in
  insert_batch_at t p (index_of p w + 1) k

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
    t.root <- build_sub t live ~lo:0 ~hi:n ~height;
    t.nslots <- n;
    t.nlive <- n;
    assign t ~count:true t.root 0
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
        if c.parent != v then fail "child parent pointer broken";
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
  if t.root.parent != dummy then fail "root has a parent";
  go t.root ~root:true;
  if t.root.nleaves <> t.nslots then
    fail "nslots %d but root counts %d" t.nslots t.root.nleaves;
  (* Leaf numbers must be strictly increasing. *)
  let prev = ref (-1) in
  iter_leaves t (fun l ->
      if l.num <= !prev then fail "leaf labels not increasing";
      prev := l.num)

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
