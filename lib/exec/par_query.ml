module Column = Ltree_core.Column
module Counters = Ltree_metrics.Counters
module Span = Ltree_obs.Span
module Label_index = Ltree_relstore.Label_index
module Query = Ltree_relstore.Query

(* Parallel structural-join plans over a frozen {!Read_snapshot}.

   Sharding model: every plan cuts the {e output-driving} side of the
   join (the descendant column; the ancestor column for the INL plan)
   into fixed-size chunks and fans the chunks across the pool.  A
   descendant's matches depend only on the shared ancestor input, so a
   chunk can be joined in isolation against the full ancestor entry;
   per-chunk emit buffers are then concatenated in chunk order, which
   reproduces the serial emission order exactly.  Chunk inputs are
   zero-copy {!Column.sub} views of the frozen slice — sharding copies
   nothing.  Each chunk charges comparisons to its own scratch
   [Counters] (no shared mutable state in workers); the caller
   aggregates them after the barrier.  All plans finish with the same
   [sort_uniq] as the serial plans, so results are element-for-element
   identical for every pool size. *)

let join_comparisons =
  Ltree_obs.Registry.histogram ~name:"query_join_comparisons"
    ~help:"Label comparisons per structural join query"
    ~bounds:(Ltree_obs.Histogram.log2_bounds ~start:1. ~count:24)
    ()

(* Chunk length for an input of [len] rows: roughly eight chunks per
   participant so the tail rebalances, but never so small that the
   claim cursor becomes the bottleneck. *)
let chunk_for pool len =
  Int.max 64 ((len + (8 * Pool.size pool) - 1) / (8 * Pool.size pool))

(* Shared placeholder for the [rids] slot of join-input views that
   never read it (the join walks starts/ends only; emits index the
   slice's own id column). *)
let empty_col = Column.create ~capacity:1 ()

(* Entry view of [starts]/[ends] positions [lo, hi) of a slice:
   zero-copy column views sharing the frozen buffers. *)
let sub_entry (s : Read_snapshot.slice) lo hi =
  { Label_index.starts = Column.sub s.s_starts lo (hi - lo);
    ends = Column.sub s.s_ends lo (hi - lo);
    rids = empty_col;
    len = hi - lo;
    stamp = s.s_stamp }

(* Run [body ci lo hi local_counters] over aligned chunks of [0, len),
   then return total comparisons charged.  [ci] is the chunk index:
   distinct per invocation because the pool claims aligned ranges. *)
let chunked pool len ~chunk body =
  let nchunks = (len + chunk - 1) / chunk in
  let comps = Array.make (Int.max 1 nchunks) 0 in
  Pool.parallel_for ~chunk pool ~lo:0 ~hi:len (fun lo hi ->
      let local = Counters.create () in
      body (lo / chunk) lo hi local;
      comps.(lo / chunk) <- Counters.comparisons local);
  Array.fold_left ( + ) 0 comps

let note ?counters comparisons =
  (match counters with
  | Some c -> Counters.add_comparison c comparisons
  | None -> ());
  Ltree_obs.Histogram.observe_int join_comparisons comparisons

(* {1 Serial kernels}

   The join bodies every plan runs.  Each scans positions [lo, hi) of
   its output-driving slice and hands every matched Dom id to [emit],
   in that slice's order.  The chunked plans run them once per chunk;
   [descendants_batch] and the per-shard tasks of
   [Ltree_shard.Sharded_doc] run them over a whole slice. *)

(* Positions [lo, hi) of a slice as a join input: the slice's own
   entry when the range is whole, else a zero-copy view. *)
let range_entry (s : Read_snapshot.slice) lo hi =
  if lo = 0 && hi = s.s_len then Read_snapshot.entry_of_slice s
  else sub_entry s lo hi

let descendants_range counters ~(anc : Read_snapshot.slice)
    ~(desc : Read_snapshot.slice) ~lo ~hi ~emit =
  let last = ref (-1) in
  Query.array_join counters
    (Read_snapshot.entry_of_slice anc)
    (range_entry desc lo hi)
    ~emit:(fun _ dpos ->
      if dpos <> !last then begin
        last := dpos;
        emit (Column.get desc.s_ids (lo + dpos))
      end)

let children_range counters ~(parent : Read_snapshot.slice)
    ~(child : Read_snapshot.slice) ~lo ~hi ~emit =
  Query.array_join counters
    (Read_snapshot.entry_of_slice parent)
    (range_entry child lo hi)
    ~emit:(fun apos dpos ->
      if
        Column.get child.s_levels (lo + dpos)
        = Column.get parent.s_levels apos + 1
      then emit (Column.get child.s_ids (lo + dpos)))

(* Index nested loop over ancestors [lo, hi): probe the descendant
   slice once per ancestor.  XML intervals nest, so start containment
   implies full containment. *)
let inl_range counters ~(anc : Read_snapshot.slice)
    ~(desc : Read_snapshot.slice) ~lo ~hi ~emit =
  let d = Read_snapshot.entry_of_slice desc in
  for apos = lo to hi - 1 do
    let aend = Column.get anc.s_ends apos in
    let i = ref (Label_index.upper_bound counters d (Column.get anc.s_starts apos)) in
    let scanning = ref true in
    while !scanning && !i < desc.s_len do
      Counters.add_comparison counters 1;
      if Column.get desc.s_starts !i < aend then begin
        emit (Column.get desc.s_ids !i);
        incr i
      end
      else scanning := false
    done
  done

let descendants ?counters pool snap ~anc ~desc =
  Read_snapshot.ensure_fresh snap;
  Span.with_ ~name:"par_query.descendants"
    ~attrs:[ ("anc", anc); ("desc", desc) ] (fun () ->
      let a = Read_snapshot.slice snap anc in
      let d = Read_snapshot.slice snap desc in
      if d.s_len = 0 || a.s_len = 0 then []
      else begin
        let chunk = chunk_for pool d.s_len in
        let buffers = Array.make ((d.s_len + chunk - 1) / chunk) [] in
        let comparisons =
          chunked pool d.s_len ~chunk (fun ci lo hi local ->
              let out = ref [] in
              descendants_range local ~anc:a ~desc:d ~lo ~hi ~emit:(fun id ->
                  out := id :: !out);
              buffers.(ci) <- !out)
        in
        note ?counters comparisons;
        List.sort_uniq Int.compare (List.concat (Array.to_list buffers))
      end)

let children ?counters pool snap ~parent ~child =
  Read_snapshot.ensure_fresh snap;
  Span.with_ ~name:"par_query.children"
    ~attrs:[ ("parent", parent); ("child", child) ] (fun () ->
      let pa = Read_snapshot.slice snap parent in
      let d = Read_snapshot.slice snap child in
      if d.s_len = 0 || pa.s_len = 0 then []
      else begin
        let chunk = chunk_for pool d.s_len in
        let buffers = Array.make ((d.s_len + chunk - 1) / chunk) [] in
        let comparisons =
          chunked pool d.s_len ~chunk (fun ci lo hi local ->
              let out = ref [] in
              children_range local ~parent:pa ~child:d ~lo ~hi ~emit:(fun id ->
                  out := id :: !out);
              buffers.(ci) <- !out)
        in
        note ?counters comparisons;
        List.sort_uniq Int.compare (List.concat (Array.to_list buffers))
      end)

let descendants_inl ?counters pool snap ~anc ~desc =
  Read_snapshot.ensure_fresh snap;
  Span.with_ ~name:"par_query.descendants_inl"
    ~attrs:[ ("anc", anc); ("desc", desc) ] (fun () ->
      let a = Read_snapshot.slice snap anc in
      let d = Read_snapshot.slice snap desc in
      if a.s_len = 0 || d.s_len = 0 then []
      else begin
        let chunk = chunk_for pool a.s_len in
        let buffers = Array.make ((a.s_len + chunk - 1) / chunk) [] in
        let comparisons =
          chunked pool a.s_len ~chunk (fun ci lo hi local ->
              let out = ref [] in
              inl_range local ~anc:a ~desc:d ~lo ~hi ~emit:(fun id ->
                  out := id :: !out);
              buffers.(ci) <- !out)
        in
        note ?counters comparisons;
        List.sort_uniq Int.compare (List.concat (Array.to_list buffers))
      end)

(* One path step: join the accumulated entry against the next tag's
   slice, producing the matched sub-slice as a fresh entry whose [rids]
   carry Dom ids (adjacent duplicates collapsed, ascending starts) —
   the parallel twin of [Query.join_to_entry]. *)
let step_entry pool (acc : Label_index.entry) (d : Read_snapshot.slice)
    comparisons_acc =
  if d.s_len = 0 || acc.Label_index.len = 0 then
    { Label_index.starts = empty_col;
      ends = empty_col;
      rids = empty_col;
      len = 0;
      stamp = -1 }
  else begin
    let chunk = chunk_for pool d.s_len in
    let nchunks = (d.s_len + chunk - 1) / chunk in
    let buffers = Array.make nchunks [] in
    let lens = Array.make nchunks 0 in
    let comparisons =
      chunked pool d.s_len ~chunk (fun ci lo hi local ->
          let out = ref [] in
          let n = ref 0 in
          let last = ref (-1) in
          Query.array_join local acc (sub_entry d lo hi)
            ~emit:(fun _ dpos ->
              if dpos <> !last then begin
                last := dpos;
                out := (lo + dpos) :: !out;
                incr n
              end);
          buffers.(ci) <- !out;
          lens.(ci) <- !n)
    in
    comparisons_acc := !comparisons_acc + comparisons;
    let total = Array.fold_left ( + ) 0 lens in
    let starts = Column.create ~capacity:(Int.max 1 total) ()
    and ends = Column.create ~capacity:(Int.max 1 total) ()
    and rids = Column.create ~capacity:(Int.max 1 total) () in
    (* Fill back-to-front per chunk: each buffer is reversed. *)
    let pos = ref total in
    for ci = nchunks - 1 downto 0 do
      List.iter
        (fun dpos ->
          decr pos;
          Column.set starts !pos (Column.get d.s_starts dpos);
          Column.set ends !pos (Column.get d.s_ends dpos);
          Column.set rids !pos (Column.get d.s_ids dpos))
        buffers.(ci)
    done;
    Column.set_len starts total;
    Column.set_len ends total;
    Column.set_len rids total;
    { Label_index.starts; ends; rids; len = total; stamp = -1 }
  end

let path ?counters pool snap tags =
  match tags with
  | [] -> []
  | first :: rest ->
    Read_snapshot.ensure_fresh snap;
    Span.with_ ~name:"par_query.path"
      ~attrs:[ ("steps", string_of_int (1 + List.length rest)) ] (fun () ->
        let comparisons = ref 0 in
        let final =
          List.fold_left
            (fun acc tag ->
              step_entry pool acc (Read_snapshot.slice snap tag) comparisons)
            (Read_snapshot.entry_of_slice (Read_snapshot.slice snap first))
            rest
        in
        note ?counters !comparisons;
        let out = ref [] in
        for i = final.Label_index.len - 1 downto 0 do
          out := Column.get final.Label_index.rids i :: !out
        done;
        List.sort_uniq Int.compare !out)

(* Batched execution: one task per query, each run serially inside its
   worker — the shape benchmarked by BENCH_parallel.json. *)
let descendants_batch ?counters pool snap queries =
  Read_snapshot.ensure_fresh snap;
  Span.with_ ~name:"par_query.descendants_batch"
    ~attrs:[ ("queries", string_of_int (Array.length queries)) ] (fun () ->
      let comps = Array.make (Int.max 1 (Array.length queries)) 0 in
      let results =
        Pool.map ~chunk:1 pool
          (fun (i, (anc, desc)) ->
            let local = Counters.create () in
            let d = Read_snapshot.slice snap desc in
            let out = ref [] in
            descendants_range local ~anc:(Read_snapshot.slice snap anc) ~desc:d
              ~lo:0 ~hi:d.s_len ~emit:(fun id -> out := id :: !out);
            comps.(i) <- Counters.comparisons local;
            List.sort_uniq Int.compare !out)
          (Array.mapi (fun i q -> (i, q)) queries)
      in
      note ?counters (Array.fold_left ( + ) 0 comps);
      results)
