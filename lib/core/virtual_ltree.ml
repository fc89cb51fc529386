module Counters = Ltree_metrics.Counters
module Int_tbl = Ltree_metrics.Int_tbl
module Btree = Ltree_btree.Counted_btree

type handle = int

type t = {
  params : Params.t;
  counters : Counters.t;
  btree : handle Btree.t; (* label -> handle *)
  label_of : int Int_tbl.t;
  deleted : unit Int_tbl.t;
  mutable height : int;
  mutable next_handle : int;
  mutable nlive : int;
}

let create ?(params = Params.fig2) ?(counters = Counters.create ()) () =
  { params; counters;
    btree = Btree.create ~counters ();
    label_of = Int_tbl.create 64;
    deleted = Int_tbl.create 16;
    height = 1;
    next_handle = 0;
    nlive = 0 }

let length t = Btree.length t.btree

let fresh_handle t =
  let h = t.next_handle in
  t.next_handle <- h + 1;
  h

(* Bind [handle] to [lab] in both directions. *)
let bind t lab handle =
  Btree.add t.btree lab handle;
  Int_tbl.replace t.label_of handle lab

let bulk_load ?(params = Params.fig2) ?(counters = Counters.create ()) n =
  if n < 0 then invalid_arg "Virtual_ltree.bulk_load: negative size";
  let t = create ~params ~counters () in
  if n > 0 then begin
    t.height <- Params.height_for params n;
    t.nlive <- n;
    Layout.iter_labels params ~base:0 ~height:t.height ~count:n (fun lab ->
        bind t lab (fresh_handle t))
  end;
  (t, Array.init n (fun i -> i))

let label t handle =
  match Int_tbl.find_opt t.label_of handle with
  | Some lab -> lab
  | None -> invalid_arg "Virtual_ltree.label: unknown handle"

let compare t a b = Int.compare (label t a) (label t b)

let max_label t =
  match Btree.max_binding t.btree with None -> 0 | Some (lab, _) -> lab

let bits_per_label t =
  let v = max_label t in
  let rec go acc v = if v = 0 then acc else go (acc + 1) (v lsr 1) in
  Int.max 1 (go 0 v)

let labels t =
  let out = Array.make (length t) 0 in
  let i = ref 0 in
  Btree.iter t.btree (fun lab _ ->
      out.(!i) <- lab;
      incr i);
  out

let delete t handle =
  if not (Int_tbl.mem t.label_of handle) then
    invalid_arg "Virtual_ltree.delete: unknown handle";
  if not (Int_tbl.mem t.deleted handle) then begin
    Int_tbl.replace t.deleted handle ();
    t.nlive <- t.nlive - 1
  end

(* The number of the virtual height-[h] ancestor of [lab]: clear the low
   [h] base-(f-1) digits. *)
let ancestor_base t lab h =
  let p = Params.pow_radix t.params h in
  lab - (lab mod p)

(* Occupancy of the virtual node of height [h] above [lab]. *)
let occupancy t lab h =
  let base = ancestor_base t lab h in
  let p = Params.pow_radix t.params h in
  Btree.count_range t.btree ~lo:base ~hi:(base + p - 1)

(* Replace the bindings with labels in [lo, hi] by the same handles (in
   order, with the [fresh] handles spliced in at [insert_at]) carried by
   [new_labels]; counts one relabel per moved binding. *)
let relabel_range t ~lo ~hi ~insert_at ~fresh new_labels =
  let handles = ref [] in
  Btree.iter_range t.btree ~lo ~hi (fun _ h -> handles := h :: !handles);
  let handles = List.rev !handles in
  let with_new =
    let rec splice i = function
      | rest when i = insert_at -> fresh @ rest
      | [] -> invalid_arg "Virtual_ltree: insert position out of range"
      | h :: rest -> h :: splice (i + 1) rest
    in
    splice 0 handles
  in
  let entries = List.combine new_labels with_new in
  Btree.replace_range t.btree ~lo ~hi entries;
  List.iter
    (fun (lab, h) ->
      let changed =
        match Int_tbl.find_opt t.label_of h with
        | Some old -> old <> lab
        | None -> false (* the incoming handle: first labeling *)
      in
      if changed then Counters.add_relabel t.counters 1;
      Int_tbl.replace t.label_of h lab)
    entries

(* Insert a new slot whose height-1 parent interval starts at [a1] and
   whose child index is [idx]; [anchor] is any existing label below the
   same ancestors (the paper walks the anchor's ancestors). *)
let insert_slot t ~anchor ~a1 ~idx =
  let radix = t.params.radix in
  (* Find the highest ancestor that reaches its limit with this insert. *)
  let hit = ref None in
  for h = 1 to t.height do
    let l = occupancy t anchor h in
    if l + 1 >= Params.lmax t.params ~height:h then hit := Some h
  done;
  let handle = fresh_handle t in
  (match !hit with
   | None ->
     (* Relabel the new slot and its right siblings: the leaves under a
        height-1 parent carry consecutive labels from [a1]. *)
     let c = Btree.count_range t.btree ~lo:a1 ~hi:(a1 + radix - 1) in
     let new_labels = List.init (c + 1 - idx) (fun i -> a1 + idx + i) in
     relabel_range t ~lo:(a1 + idx) ~hi:(a1 + radix - 1) ~insert_at:0
       ~fresh:[ handle ] new_labels
   | Some h when h = t.height ->
     (* Root split: the tree grows by one level (paper Algorithm 1,
        lines 18-20). *)
     if t.height + 1 > t.params.max_height then raise Params.Label_overflow;
     let p = t.params in
     let span = Params.pow_m p t.height in
     let step = Params.pow_radix p t.height in
     let new_labels = ref [] in
     for r = p.s - 1 downto 0 do
       let acc = ref [] in
       Layout.iter_labels p ~base:(r * step) ~height:t.height ~count:span
         (fun lab -> acc := lab :: !acc);
       new_labels := List.rev_append !acc !new_labels
     done;
     let insert_at = Btree.rank t.btree (a1 + idx) in
     relabel_range t ~lo:0 ~hi:max_int ~insert_at ~fresh:[ handle ]
       !new_labels;
     t.height <- t.height + 1;
     Counters.add_split t.counters 1
   | Some h ->
     (* Split the height-[h] virtual node into s complete m-ary trees and
        shift its right siblings by (s - 1) positions (paper Algorithm 1,
        lines 21-23). *)
     let p = t.params in
     let xbase = ancestor_base t anchor h in
     let xwidth = Params.pow_radix p h in
     let pbase = ancestor_base t anchor (h + 1) in
     let pwidth = Params.pow_radix p (h + 1) in
     let j = (xbase - pbase) / xwidth in
     if j + p.s - 1 > p.radix - 1 then
       failwith "Virtual_ltree: parent fanout overflow (invariant broken)";
     let span = Params.pow_m p h in
     (* Labels for the s complete trees replacing x... *)
     let tree_labels = ref [] in
     for r = p.s - 1 downto 0 do
       let acc = ref [] in
       Layout.iter_labels p
         ~base:(pbase + ((j + r) * xwidth))
         ~height:h ~count:span
         (fun lab -> acc := lab :: !acc);
       tree_labels := List.rev_append !acc !tree_labels
     done;
     (* ... and shifted labels for x's right siblings. *)
     let shift = (p.s - 1) * xwidth in
     let shifted = ref [] in
     Btree.iter_range t.btree ~lo:(xbase + xwidth) ~hi:(pbase + pwidth - 1)
       (fun lab _ -> shifted := (lab + shift) :: !shifted);
     let new_labels = !tree_labels @ List.rev !shifted in
     let insert_at =
       Btree.count_range t.btree ~lo:xbase ~hi:(a1 + idx - 1)
     in
     relabel_range t ~lo:xbase ~hi:(pbase + pwidth - 1) ~insert_at
       ~fresh:[ handle ] new_labels;
     Counters.add_split t.counters 1);
  t.nlive <- t.nlive + 1;
  handle

let insert_side t anchor_handle ~before =
  let w = label t anchor_handle in
  let a1 = ancestor_base t w 1 in
  let idx = w - a1 + if before then 0 else 1 in
  insert_slot t ~anchor:w ~a1 ~idx

let insert_after t h = insert_side t h ~before:false
let insert_before t h = insert_side t h ~before:true

let insert_first t =
  match Btree.min_binding t.btree with
  | None ->
    (* First slot of an empty tree: the materialized L-Tree labels it 0. *)
    let handle = fresh_handle t in
    bind t 0 handle;
    t.nlive <- t.nlive + 1;
    handle
  | Some (_, h) -> insert_side t h ~before:true

(* {1 Batch insertion (§4.1)} — mirrors [Ltree.insert_batch_at]:
   no-overflow batches become ordinary height-1 siblings; otherwise the
   tail of the highest overflowing ancestor's parent is re-chunked; a
   root overflow regrows the whole layout.  Bit-identical to the
   materialized implementation. *)

(* Chunked labels for the region occupying child slots [j ..] of the
   height-[h+1] node at [pbase], covering [total] leaves. *)
let chunked_region_labels params ~pbase ~j ~h ~total =
  let step = Params.pow_radix params h in
  let acc = ref [] in
  for i = 0 to Layout.chunk_count params ~height:(h + 1) ~count:total - 1 do
    Layout.iter_labels params
      ~base:(pbase + ((j + i) * step))
      ~height:h
      ~count:(Layout.chunk_size params ~height:(h + 1) ~count:total i)
      (fun lab -> acc := lab :: !acc)
  done;
  List.rev !acc

(* Mirror of [Ltree.rebuild_root]'s height selection. *)
let pick_root_height t total =
  let rec pick h =
    if h > t.params.max_height then raise Params.Label_overflow
    else if total < Params.lmax t.params ~height:h then h
    else pick (h + 1)
  in
  pick (Int.max t.height (Params.height_for t.params total))

let rebuild_all t ~insert_at ~fresh total =
  let height = pick_root_height t total in
  let new_labels =
    Array.to_list (Layout.labels t.params ~base:0 ~height ~count:total)
  in
  relabel_range t ~lo:0 ~hi:max_int ~insert_at ~fresh new_labels;
  t.height <- height;
  Counters.add_split t.counters 1

let insert_batch_slot t ~anchor ~a1 ~idx k =
  let radix = t.params.radix in
  let hit = ref None in
  for h = 1 to t.height do
    if occupancy t anchor h + k >= Params.lmax t.params ~height:h then
      hit := Some h
  done;
  let fresh = List.init k (fun _ -> fresh_handle t) in
  (match !hit with
   | None ->
     let c = Btree.count_range t.btree ~lo:a1 ~hi:(a1 + radix - 1) in
     let new_labels = List.init (c + k - idx) (fun i -> a1 + idx + i) in
     relabel_range t ~lo:(a1 + idx) ~hi:(a1 + radix - 1) ~insert_at:0 ~fresh
       new_labels
   | Some h when h = t.height ->
     let insert_at = Btree.rank t.btree (a1 + idx) in
     rebuild_all t ~insert_at ~fresh (length t + k)
   | Some h ->
     let p = t.params in
     let xbase = ancestor_base t anchor h in
     let xwidth = Params.pow_radix p h in
     let pbase = ancestor_base t anchor (h + 1) in
     let pwidth = Params.pow_radix p (h + 1) in
     let j = (xbase - pbase) / xwidth in
     let region_lo = xbase and region_hi = pbase + pwidth - 1 in
     let count = Btree.count_range t.btree ~lo:region_lo ~hi:region_hi in
     let new_labels =
       chunked_region_labels p ~pbase ~j ~h ~total:(count + k)
     in
     let insert_at = Btree.count_range t.btree ~lo:xbase ~hi:(a1 + idx - 1) in
     relabel_range t ~lo:region_lo ~hi:region_hi ~insert_at ~fresh new_labels;
     Counters.add_split t.counters 1);
  t.nlive <- t.nlive + k;
  Array.of_list fresh

let insert_batch_after t h k =
  if k < 1 then invalid_arg "Virtual_ltree.insert_batch_after: k must be >= 1";
  let w = label t h in
  let a1 = ancestor_base t w 1 in
  insert_batch_slot t ~anchor:w ~a1 ~idx:(w - a1 + 1) k

let check t =
  Btree.check t.btree;
  let n = length t in
  if Int_tbl.length t.label_of <> n then
    failwith "Virtual_ltree: handle table out of sync";
  Int_tbl.iter
    (fun h lab ->
      match Btree.find t.btree lab with
      | Some h' when h' = h -> ()
      | Some _ | None -> failwith "Virtual_ltree: stale handle binding")
    t.label_of;
  let top = Params.pow_radix t.params t.height in
  Btree.iter t.btree (fun lab _ ->
      if lab < 0 || lab >= top then
        failwith "Virtual_ltree: label outside the root interval");
  (* Every virtual node's occupancy must sit inside the paper's window. *)
  for h = 1 to t.height do
    let width = Params.pow_radix t.params h in
    let limit = Params.lmax t.params ~height:h in
    let minimum = Params.pow_m t.params h in
    let seen = Int_tbl.create 16 in
    Btree.iter t.btree (fun lab _ ->
        let base = lab - (lab mod width) in
        if not (Int_tbl.mem seen base) then begin
          Int_tbl.replace seen base ();
          let occ = Btree.count_range t.btree ~lo:base ~hi:(base + width - 1) in
          if occ >= limit then
            failwith
              (Printf.sprintf
                 "Virtual_ltree: node at height %d base %d holds %d >= %d" h
                 base occ limit);
          if h < t.height && occ < minimum then
            failwith
              (Printf.sprintf
                 "Virtual_ltree: node at height %d base %d holds %d < %d" h
                 base occ minimum)
        end)
  done
