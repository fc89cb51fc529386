module Counters = Ltree_metrics.Counters

type 'a leaf = {
  keys : int array; (* capacity order + 1; entries in [0, n) *)
  vals : 'a option array;
  mutable n : int;
}

type 'a node = Leaf of 'a leaf | Node of 'a inner

and 'a inner = {
  seps : int array; (* capacity order; separators in [0, nk - 1) *)
  kids : 'a node option array; (* capacity order + 1; children in [0, nk) *)
  mutable nk : int; (* number of children *)
  mutable size : int; (* entries in the whole subtree *)
}

type 'a t = {
  order : int;
  counters : Counters.t option;
  mutable root : 'a node;
}

let touch t = match t.counters with
  | None -> ()
  | Some c -> Counters.add_node_access c 1

let new_leaf order = { keys = Array.make (order + 1) 0;
                       vals = Array.make (order + 1) None;
                       n = 0 }

let new_inner order = { seps = Array.make order 0;
                        kids = Array.make (order + 2) None;
                        nk = 0;
                        size = 0 }

let create ?(order = 16) ?counters () =
  if order < 4 then invalid_arg "Counted_btree.create: order must be >= 4";
  { order; counters; root = Leaf (new_leaf order) }

let size_of = function Leaf l -> l.n | Node i -> i.size

let length t = size_of t.root
let is_empty t = length t = 0

let kid i j = match i.kids.(j) with
  | Some c -> c
  | None -> assert false

(* First index in [keys.(0, n)] with [keys.(idx) >= k] (lower bound). *)
let lower_bound (keys : int array) n k =
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if keys.(mid) < k then lo := mid + 1 else hi := mid
  done;
  !lo

(* First index in [seps.(0, n)] with [seps.(idx) > k] (upper bound). *)
let upper_bound (seps : int array) n k =
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if seps.(mid) <= k then lo := mid + 1 else hi := mid
  done;
  !lo

(* Routing: the child of [i] whose subtree covers key [k]. *)
let route i k = upper_bound i.seps (i.nk - 1) k

let leaf_min t = t.order / 2
let node_min t = (t.order + 1) / 2

(* {1 Lookup} *)

let rec find_node t node k =
  touch t;
  match node with
  | Leaf l ->
    let idx = lower_bound l.keys l.n k in
    if idx < l.n && l.keys.(idx) = k then l.vals.(idx) else None
  | Node i -> find_node t (kid i (route i k)) k

let find t k = find_node t t.root k

(* {1 Insertion} *)

(* Result of inserting below: entry-count delta and an optional
   (separator, right sibling) when the node split. *)
let rec insert_node t node k v =
  touch t;
  match node with
  | Leaf l ->
    let idx = lower_bound l.keys l.n k in
    if idx < l.n && l.keys.(idx) = k then begin
      l.vals.(idx) <- Some v;
      (0, None)
    end else begin
      Array.blit l.keys idx l.keys (idx + 1) (l.n - idx);
      Array.blit l.vals idx l.vals (idx + 1) (l.n - idx);
      l.keys.(idx) <- k;
      l.vals.(idx) <- Some v;
      l.n <- l.n + 1;
      if l.n <= t.order then (1, None)
      else begin
        let lh = (l.n + 1) / 2 in
        let rh = l.n - lh in
        let r = new_leaf t.order in
        Array.blit l.keys lh r.keys 0 rh;
        Array.blit l.vals lh r.vals 0 rh;
        for j = lh to l.n - 1 do l.vals.(j) <- None done;
        r.n <- rh;
        l.n <- lh;
        (1, Some (r.keys.(0), Leaf r))
      end
    end
  | Node i ->
    let ci = route i k in
    let delta, split = insert_node t (kid i ci) k v in
    i.size <- i.size + delta;
    (match split with
     | None -> (delta, None)
     | Some (sep, rnode) ->
       Array.blit i.seps ci i.seps (ci + 1) (i.nk - 1 - ci);
       Array.blit i.kids (ci + 1) i.kids (ci + 2) (i.nk - ci - 1);
       i.seps.(ci) <- sep;
       i.kids.(ci + 1) <- Some rnode;
       i.nk <- i.nk + 1;
       if i.nk <= t.order then (delta, None)
       else begin
         let lc = (i.nk + 1) / 2 in
         let rc = i.nk - lc in
         let r = new_inner t.order in
         let promoted = i.seps.(lc - 1) in
         Array.blit i.seps lc r.seps 0 (rc - 1);
         Array.blit i.kids lc r.kids 0 rc;
         for j = lc to i.nk - 1 do i.kids.(j) <- None done;
         r.nk <- rc;
         i.nk <- lc;
         let rsize = ref 0 in
         for j = 0 to rc - 1 do rsize := !rsize + size_of (kid r j) done;
         r.size <- !rsize;
         i.size <- i.size - !rsize;
         (delta, Some (promoted, Node r))
       end)

let add t k v =
  match insert_node t t.root k v with
  | _, None -> ()
  | _, Some (sep, rnode) ->
    let ni = new_inner t.order in
    ni.kids.(0) <- Some t.root;
    ni.kids.(1) <- Some rnode;
    ni.seps.(0) <- sep;
    ni.nk <- 2;
    ni.size <- size_of t.root + size_of rnode;
    t.root <- Node ni

(* {1 Deletion} *)

let leaf_underflows t l = l.n < leaf_min t
let inner_underflows t i = i.nk < node_min t

let child_underflows t = function
  | Leaf l -> leaf_underflows t l
  | Node i -> inner_underflows t i

(* Rebalance child [ci] of [i] after a deletion made it underfull. *)
let rebalance t i ci =
  let child = kid i ci in
  if not (child_underflows t child) then ()
  else begin
    let borrow_left () =
      (* Move the last entry/child of the left sibling to the front. *)
      match (kid i (ci - 1), child) with
      | Leaf left, Leaf c when left.n > leaf_min t ->
        Array.blit c.keys 0 c.keys 1 c.n;
        Array.blit c.vals 0 c.vals 1 c.n;
        c.keys.(0) <- left.keys.(left.n - 1);
        c.vals.(0) <- left.vals.(left.n - 1);
        left.vals.(left.n - 1) <- None;
        left.n <- left.n - 1;
        c.n <- c.n + 1;
        i.seps.(ci - 1) <- c.keys.(0);
        true
      | Node left, Node c when left.nk > node_min t ->
        Array.blit c.seps 0 c.seps 1 (c.nk - 1);
        Array.blit c.kids 0 c.kids 1 c.nk;
        c.seps.(0) <- i.seps.(ci - 1);
        c.kids.(0) <- left.kids.(left.nk - 1);
        i.seps.(ci - 1) <- left.seps.(left.nk - 2);
        left.kids.(left.nk - 1) <- None;
        left.nk <- left.nk - 1;
        c.nk <- c.nk + 1;
        let moved = size_of (kid c 0) in
        left.size <- left.size - moved;
        c.size <- c.size + moved;
        true
      | _ -> false
    in
    let borrow_right () =
      match (child, kid i (ci + 1)) with
      | Leaf c, Leaf right when right.n > leaf_min t ->
        c.keys.(c.n) <- right.keys.(0);
        c.vals.(c.n) <- right.vals.(0);
        c.n <- c.n + 1;
        Array.blit right.keys 1 right.keys 0 (right.n - 1);
        Array.blit right.vals 1 right.vals 0 (right.n - 1);
        right.vals.(right.n - 1) <- None;
        right.n <- right.n - 1;
        i.seps.(ci) <- right.keys.(0);
        true
      | Node c, Node right when right.nk > node_min t ->
        c.seps.(c.nk - 1) <- i.seps.(ci);
        c.kids.(c.nk) <- right.kids.(0);
        c.nk <- c.nk + 1;
        i.seps.(ci) <- right.seps.(0);
        Array.blit right.seps 1 right.seps 0 (right.nk - 2);
        Array.blit right.kids 1 right.kids 0 (right.nk - 1);
        right.kids.(right.nk - 1) <- None;
        right.nk <- right.nk - 1;
        let moved = size_of (kid c (c.nk - 1)) in
        right.size <- right.size - moved;
        c.size <- c.size + moved;
        true
      | _ -> false
    in
    (* Merge children [li] and [li + 1] of [i] into the left one. *)
    let merge li =
      (match (kid i li, kid i (li + 1)) with
       | Leaf left, Leaf right ->
         Array.blit right.keys 0 left.keys left.n right.n;
         Array.blit right.vals 0 left.vals left.n right.n;
         left.n <- left.n + right.n
       | Node left, Node right ->
         left.seps.(left.nk - 1) <- i.seps.(li);
         Array.blit right.seps 0 left.seps left.nk (right.nk - 1);
         Array.blit right.kids 0 left.kids left.nk right.nk;
         left.nk <- left.nk + right.nk;
         left.size <- left.size + right.size
       | Leaf _, Node _ | Node _, Leaf _ -> assert false);
      Array.blit i.seps (li + 1) i.seps li (i.nk - 2 - li);
      Array.blit i.kids (li + 2) i.kids (li + 1) (i.nk - li - 2);
      i.kids.(i.nk - 1) <- None;
      i.nk <- i.nk - 1
    in
    let borrowed =
      (ci > 0 && borrow_left ()) || (ci < i.nk - 1 && borrow_right ())
    in
    if not borrowed then
      if ci > 0 then merge (ci - 1) else merge ci
  end

let rec delete_node t node k =
  touch t;
  match node with
  | Leaf l ->
    let idx = lower_bound l.keys l.n k in
    if idx < l.n && l.keys.(idx) = k then begin
      Array.blit l.keys (idx + 1) l.keys idx (l.n - idx - 1);
      Array.blit l.vals (idx + 1) l.vals idx (l.n - idx - 1);
      l.vals.(l.n - 1) <- None;
      l.n <- l.n - 1;
      -1
    end else 0
  | Node i ->
    let ci = route i k in
    let delta = delete_node t (kid i ci) k in
    if delta <> 0 then begin
      i.size <- i.size + delta;
      rebalance t i ci
    end;
    delta

let remove t k =
  let _ = delete_node t t.root k in
  match t.root with
  | Node i when i.nk = 1 -> t.root <- kid i 0
  | Node _ | Leaf _ -> ()

(* {1 Order statistics} *)

let rec rank_node t node k =
  touch t;
  match node with
  | Leaf l -> lower_bound l.keys l.n k
  | Node i ->
    let ci = route i k in
    let before = ref 0 in
    for j = 0 to ci - 1 do before := !before + size_of (kid i j) done;
    !before + rank_node t (kid i ci) k

let rank t k = rank_node t t.root k

let rec select_node t node idx =
  touch t;
  match node with
  | Leaf l ->
    (match l.vals.(idx) with
     | Some v -> (l.keys.(idx), v)
     | None -> assert false)
  | Node i ->
    let rec descend j idx =
      let sz = size_of (kid i j) in
      if idx < sz then select_node t (kid i j) idx
      else descend (j + 1) (idx - sz)
    in
    descend 0 idx

let select t idx =
  if idx < 0 || idx >= length t then
    invalid_arg "Counted_btree.select: index out of bounds";
  select_node t t.root idx

let count_range t ~lo ~hi =
  if lo > hi then 0
  else
    let upto =
      (* keys <= hi; [hi + 1] would wrap at max_int *)
      if hi = max_int then length t else rank t (hi + 1)
    in
    upto - rank t lo

(* {1 Iteration} *)

let rec iter_range_node t node ~lo ~hi f =
  touch t;
  match node with
  | Leaf l ->
    let start = lower_bound l.keys l.n lo in
    let j = ref start in
    while !j < l.n && l.keys.(!j) <= hi do
      (match l.vals.(!j) with
       | Some v -> f l.keys.(!j) v
       | None -> assert false);
      incr j
    done
  | Node i ->
    (* Children overlapping [lo, hi]: from the route of lo up to the first
       child whose subtree starts above hi. *)
    let first = route i lo in
    let j = ref first in
    let continue = ref true in
    while !continue && !j < i.nk do
      if !j > first && i.seps.(!j - 1) > hi then continue := false
      else begin
        iter_range_node t (kid i !j) ~lo ~hi f;
        incr j
      end
    done

let iter_range t ~lo ~hi f =
  if lo <= hi then iter_range_node t t.root ~lo ~hi f

let iter t f = iter_range t ~lo:min_int ~hi:max_int f

let min_binding t = if is_empty t then None else Some (select t 0)
let max_binding t = if is_empty t then None else Some (select t (length t - 1))

let replace_range t ~lo ~hi entries =
  let rec check_sorted prev = function
    | [] -> ()
    | (k, _) :: rest ->
      if k < lo || k > hi then
        invalid_arg "Counted_btree.replace_range: entry outside interval";
      (match prev with
       | Some p when p >= k ->
         invalid_arg "Counted_btree.replace_range: entries not sorted"
       | Some _ | None -> ());
      check_sorted (Some k) rest
  in
  check_sorted None entries;
  let old = ref [] in
  iter_range t ~lo ~hi (fun k _ -> old := k :: !old);
  List.iter (remove t) !old;
  List.iter (fun (k, v) -> add t k v) entries

(* {1 Invariant checking} *)

let check t =
  let fail fmt = Printf.ksprintf failwith fmt in
  (* Returns (depth, size, min key, max key) for non-empty subtrees. *)
  let rec go node ~is_root =
    match node with
    | Leaf l ->
      if (not is_root) && leaf_underflows t l then
        fail "leaf underfull: %d < %d" l.n (leaf_min t);
      if l.n > t.order then fail "leaf overfull: %d" l.n;
      for j = 1 to l.n - 1 do
        if l.keys.(j - 1) >= l.keys.(j) then fail "leaf keys out of order"
      done;
      for j = 0 to l.n - 1 do
        if Option.is_none l.vals.(j) then fail "leaf slot %d has no value" j
      done;
      if l.n = 0 then (0, 0, None)
      else (0, l.n, Some (l.keys.(0), l.keys.(l.n - 1)))
    | Node i ->
      if i.nk > t.order then fail "inner overfull: %d children" i.nk;
      if (not is_root) && inner_underflows t i then
        fail "inner underfull: %d children" i.nk;
      if is_root && i.nk < 2 then fail "root inner with %d children" i.nk;
      let total = ref 0 in
      let depth0 = ref (-1) in
      let first_min = ref None and last_max = ref None in
      for j = 0 to i.nk - 1 do
        let d, sz, bounds = go (kid i j) ~is_root:false in
        if !depth0 = -1 then depth0 := d
        else if d <> !depth0 then fail "leaves at different depths";
        total := !total + sz;
        (match bounds with
         | None -> fail "empty non-root child"
         | Some (mn, mx) ->
           if j = 0 then first_min := Some mn;
           (match !last_max with
            | Some prev when prev >= mn -> fail "children overlap"
            | Some _ | None -> ());
           if j > 0 then begin
             let sep = i.seps.(j - 1) in
             (match !last_max with
              | Some prev when prev >= sep ->
                fail "separator %d not above left child max %d" sep prev
              | Some _ | None -> ());
             if sep > mn then
               fail "separator %d above right child min %d" sep mn
           end;
           last_max := Some mx)
      done;
      if !total <> i.size then
        fail "size mismatch: stored %d actual %d" i.size !total;
      (match (!first_min, !last_max) with
       | Some mn, Some mx -> (!depth0 + 1, !total, Some (mn, mx))
       | _ -> fail "inner without children")
  in
  let _ = go t.root ~is_root:true in
  ()

