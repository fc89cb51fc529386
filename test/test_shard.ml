(* Subtree sharding: routing, fan-out plan determinism, write routing
   with cut maintenance, live rebalance, and the shard-level crash
   matrix.  The load-bearing property everywhere: sharded plans are
   byte-identical to the same plans over the router's single unsharded
   store — at every K, every pool size, through rebalances, and under
   label-window restriction.  See DESIGN.md §13. *)

module Dom = Ltree_xml.Dom
module Labeled_doc = Ltree_doc.Labeled_doc
module Journal = Ltree_doc.Journal
module Xml_gen = Ltree_workload.Xml_gen
module Pool = Ltree_exec.Pool
module Fault = Ltree_recovery.Fault
module Sharded_doc = Ltree_shard.Sharded_doc
module Shard_matrix = Ltree_shard.Shard_matrix
module Matrix = Ltree_recovery.Matrix
module Crash_matrix = Ltree_recovery.Crash_matrix
module Read_snapshot = Ltree_exec.Read_snapshot
module Column = Ltree_core.Column
module Counters = Ltree_metrics.Counters
module Pager = Ltree_relstore.Pager
module Shredder = Ltree_relstore.Shredder
module Label_sync = Ltree_relstore.Label_sync
module Label_index = Ltree_relstore.Label_index
module Query = Ltree_relstore.Query
module Prng = Ltree_workload.Prng
module Span = Ltree_obs.Span
module Exposition = Ltree_obs.Exposition

let case = Alcotest.test_case

let make_doc ?(nodes = 120) seed =
  Xml_gen.generate ~seed (Xml_gen.default_profile ~target_nodes:nodes ())

(* A document guaranteed to have many top-level subtrees, so every
   shard of a small K owns a non-empty contiguous run; shapes vary
   deterministically with [seed]. *)
let wide_doc ?(subtrees = 9) seed =
  let root = Dom.element "site" in
  for i = 0 to subtrees - 1 do
    let sub = Dom.element [| "item"; "person"; "auction" |].(i mod 3) in
    Dom.append_child root sub;
    for j = 0 to 1 + ((seed + i) mod 4) do
      let inner = Dom.element [| "name"; "bid"; "city" |].(j mod 3) in
      Dom.append_child inner
        (Dom.text (Printf.sprintf "t%d-%d-%d" seed i j));
      if j mod 2 = 0 then begin
        let deep = Dom.element "item" in
        Dom.append_child deep (Dom.element "name");
        Dom.append_child inner deep
      end;
      Dom.append_child sub inner
    done
  done;
  Dom.document root

let root_of ldoc =
  match (Labeled_doc.document ldoc).Dom.root with
  | Some r -> r
  | None -> assert false

(* A few distinct element names actually present in the document, so
   plan comparisons join non-empty row sets. *)
let some_tags sd =
  let root = root_of (Sharded_doc.router sd) in
  List.filteri
    (fun i _ -> i < 5)
    (List.sort_uniq String.compare
       (List.filter_map
          (fun n -> if Dom.is_element n then Some (Dom.name n) else None)
          (root :: Dom.descendants root)))

let check_all_plans_agree ?within name sd pool =
  let tags = some_tags sd in
  let check what got want =
    Alcotest.(check (list int))
      (Printf.sprintf "%s: %s" name what)
      want got
  in
  List.iter
    (fun anc ->
      List.iter
        (fun desc ->
          check
            (Printf.sprintf "%s//%s" anc desc)
            (Sharded_doc.descendants ?within sd pool ~anc ~desc)
            (Sharded_doc.unsharded_descendants ?within sd pool ~anc ~desc);
          check
            (Printf.sprintf "%s/%s" anc desc)
            (Sharded_doc.children ?within sd pool ~parent:anc ~child:desc)
            (Sharded_doc.unsharded_children ?within sd pool ~parent:anc
               ~child:desc);
          check
            (Printf.sprintf "inl %s//%s" anc desc)
            (Sharded_doc.run ?within sd pool
               (Query.Descendants_inl (anc, desc)))
            (Sharded_doc.unsharded_run ?within sd pool
               (Query.Descendants_inl (anc, desc))))
        tags)
    tags;
  (match tags with
  | a :: b :: c :: _ ->
    check
      (Printf.sprintf "%s//%s//%s" a b c)
      (Sharded_doc.path ?within sd pool [ a; b; c ])
      (Sharded_doc.unsharded_path ?within sd pool [ a; b; c ])
  | _ -> ());
  let pairs = List.concat_map (fun a -> List.map (fun d -> (a, d)) tags) tags in
  let batch =
    Array.of_list (List.map (fun (a, d) -> Query.Descendants (a, d)) pairs)
  in
  let got = Sharded_doc.batch ?within sd pool batch in
  let want = Sharded_doc.unsharded_batch ?within sd pool batch in
  List.iteri
    (fun i (anc, desc) ->
      check (Printf.sprintf "batch %s//%s" anc desc) got.(i) want.(i))
    pairs

(* {1 Routing} *)

(* [create]'s layout: shard [p] of [k] owns the root's children
   [p * n / k, (p + 1) * n / k). *)
let initial_cuts sd =
  let n = Dom.child_count (root_of (Sharded_doc.router sd)) in
  let k = Sharded_doc.nshards sd in
  Array.init (k + 1) (fun i -> i * n / k)

(* The shards each top-level subtree routes to: a window over exactly
   its label interval. *)
let owners sd =
  let r = Sharded_doc.router sd in
  List.map
    (fun n ->
      let l = Labeled_doc.label r n in
      Sharded_doc.routed
        ~within:(l.Labeled_doc.start_pos, l.Labeled_doc.end_pos)
        sd)
    (Dom.children (root_of r))

(* Split the first shard that owns at least two subtrees: a threshold
   of 0 makes every shard a candidate. *)
let split_first ?on_phase sd =
  Alcotest.(check bool) "a split ran" true
    (Sharded_doc.maybe_rebalance ~threshold:0. ?on_phase sd)

(* Router-label interval of shard [p] of a fresh document: its owned
   top-level subtrees' label span. *)
let shard_interval sd p =
  let r = Sharded_doc.router sd in
  let cuts = initial_cuts sd in
  let subs = Array.of_list (Dom.children (root_of r)) in
  let lab n = Labeled_doc.label r n in
  let lo = (lab subs.(cuts.(p))).Labeled_doc.start_pos in
  let hi = (lab subs.(cuts.(p + 1) - 1)).Labeled_doc.end_pos in
  (lo, hi)

let routing_boundaries () =
  let sd = Sharded_doc.create ~shards:3 (wide_doc 11) in
  let ivals = List.init 3 (shard_interval sd) in
  List.iteri
    (fun p (lo, hi) ->
      (* A window exactly equal to the shard's interval routes to that
         shard alone. *)
      Alcotest.(check (list int))
        (Printf.sprintf "window = shard %d interval" p)
        [ p ]
        (Sharded_doc.routed ~within:(lo, hi) sd);
      (* The boundary label alone stays inside one shard. *)
      Alcotest.(check (list int))
        (Printf.sprintf "shard %d's first label" p)
        [ p ]
        (Sharded_doc.routed ~within:(lo, lo) sd))
    ivals;
  (* A window straddling the 0/1 boundary by one label on each side
     routes to exactly both. *)
  let _, hi0 = List.nth ivals 0 and lo1, _ = List.nth ivals 1 in
  Alcotest.(check (list int))
    "straddling window" [ 0; 1 ]
    (Sharded_doc.routed ~within:(hi0, lo1) sd);
  (* The gap between an end label and the next start (if any) still
     belongs to no third shard. *)
  Alcotest.(check (list int))
    "full document" [ 0; 1; 2 ]
    (Sharded_doc.routed sd)

let windowed_plans_agree () =
  let sd = Sharded_doc.create ~shards:3 (wide_doc 12) in
  Pool.with_pool ~size:2 (fun pool ->
      let lo0, hi0 = shard_interval sd 0 in
      let lo1, hi1 = shard_interval sd 1 in
      check_all_plans_agree ~within:(lo0, hi0) "shard-0 window" sd pool;
      (* Exactly on the boundary: ends at shard 0's last label, starts
         at shard 1's first. *)
      check_all_plans_agree ~within:(hi0, lo1) "boundary window" sd pool;
      check_all_plans_agree ~within:(lo0 + 1, hi1 - 1) "offset window" sd
        pool)

(* {1 K = 1 and K = 3 agreement} *)

let k1_byte_identical () =
  let sd = Sharded_doc.create ~shards:1 (make_doc 13) in
  List.iter
    (fun size ->
      Pool.with_pool ~size (fun pool ->
          check_all_plans_agree
            (Printf.sprintf "K=1 pool=%d" size)
            sd pool))
    [ 1; 2 ]

let k3_agreement_after_writes () =
  let config =
    { Crash_matrix.default_config with Matrix.ops = 60; doc_nodes = 80 }
  in
  let sd = Sharded_doc.create ~shards:3 (Crash_matrix.base_doc config) in
  List.iteri
    (fun i entry ->
      Sharded_doc.apply sd entry;
      if (i + 1) mod 20 = 0 then Sharded_doc.checkpoint sd)
    (Crash_matrix.generate_script config);
  List.iter
    (fun size ->
      Pool.with_pool ~size (fun pool ->
          check_all_plans_agree
            (Printf.sprintf "K=3 after writes pool=%d" size)
            sd pool))
    [ 1; 2; 4 ]

(* A traced run writes what the histogram fold reads: a "shard.commit"
   span and a "shard.pending" point per routed write, a "shard.query"
   span per shard task, one "query.join" point per sharded plan with
   its comparisons, and a "pool.job" point per parallel job. *)
let traced_plans_feed_the_fold () =
  let config =
    { Crash_matrix.default_config with Matrix.ops = 20; doc_nodes = 80 }
  in
  let sd = Sharded_doc.create ~shards:3 (Crash_matrix.base_doc config) in
  let script = Crash_matrix.generate_script config in
  Span.set_enabled true;
  Span.set_capacity 65536;
  List.iter (Sharded_doc.apply sd) script;
  let counters = Counters.create () in
  let tags = some_tags sd in
  Pool.with_pool ~size:2 (fun pool ->
      ignore
        (Sharded_doc.descendants ~counters sd pool ~anc:(List.hd tags)
           ~desc:(List.nth tags 1)));
  let text = Exposition.expose (Span.entries ()) in
  (* the values of the lines starting with [prefix], summed *)
  let total prefix =
    List.fold_left
      (fun acc line ->
        if String.starts_with ~prefix line then
          match String.rindex_opt line ' ' with
          | Some i ->
            acc
            +. float_of_string
                 (String.sub line (i + 1) (String.length line - i - 1))
          | None -> acc
        else acc)
      0. (String.split_on_char '\n' text)
  in
  let writes = float_of_int (List.length script) in
  Alcotest.(check (float 0.)) "one commit per routed write" writes
    (total "shard_commit_seconds_count{");
  Alcotest.(check (float 0.)) "one pending sample per routed write" writes
    (total "shard_journal_pending_count{");
  Alcotest.(check bool) "shard tasks timed per shard" true
    (total "shard_query_seconds_count{" >= 1.);
  Alcotest.(check (float 0.)) "one join observation" 1.
    (total "query_join_comparisons_count");
  Alcotest.(check bool) "the plan compared labels" true
    (Counters.comparisons counters > 0);
  Alcotest.(check (float 0.)) "carrying the plan's comparisons"
    (float_of_int (Counters.comparisons counters))
    (total "query_join_comparisons_sum");
  Alcotest.(check bool) "pool jobs counted" true
    (total "exec_pool_claims_per_job_count" >= 1.);
  Span.set_capacity 1024

(* {1 Plan-generic batches} *)

(* One batch mixing child, path and INL plans — a root-anchored child
   step, one- and zero-step paths and a pair with no match among them —
   answers every plan exactly as the unsharded batch does, at K = 1, 2
   and 3. *)
let mixed_batch_agrees () =
  let batch =
    [| Query.Children ("item", "name");
       Query.Path [ "site"; "item"; "name" ];
       Query.Descendants_inl ("item", "name");
       Query.Children ("site", "item");
       Query.Path [ "name"; "item"; "name" ];
       Query.Descendants_inl ("site", "city");
       Query.Path [ "auction" ];
       Query.Children ("name", "item");
       Query.Path [] |]
  in
  List.iter
    (fun k ->
      let sd = Sharded_doc.create ~shards:k (wide_doc 5) in
      Pool.with_pool ~size:2 (fun pool ->
          let got = Sharded_doc.batch sd pool batch in
          let want = Sharded_doc.unsharded_batch sd pool batch in
          Array.iteri
            (fun i w ->
              Alcotest.(check (list int))
                (Printf.sprintf "K=%d plan %d" k i)
                w got.(i))
            want;
          Alcotest.(check bool)
            (Printf.sprintf "K=%d: the first three plans match something" k)
            true
            (List.for_all (fun i -> want.(i) <> []) [ 0; 1; 2 ])))
    [ 1; 2; 3 ]

(* A batch's workspaces past the first belong to that batch: after one
   batch of n^2 plans the document holds no more than it did before,
   instead of one workspace per plan and routed shard for its whole
   life.  Measured as the words reachable from the document: OCaml 5.1's
   [Gc.compact] returns no memory, so [heap_words] keeps the batch's
   transient peak either way. *)
let batch_releases_workspaces () =
  let sd = Sharded_doc.create ~shards:3 (wide_doc 5) in
  let tags = Array.of_list (some_tags sd) in
  let n = 24 in
  let batch =
    Array.init (n * n) (fun i ->
        let tag j = tags.(j mod Array.length tags) in
        Query.Descendants (tag (i / n), tag (i mod n)))
  in
  let held () = Obj.reachable_words (Obj.repr sd) in
  Pool.with_pool ~size:2 (fun pool ->
      (* warm: snapshots frozen, every tag's entry touched, slot 0 grown *)
      Array.iter
        (fun plan -> ignore (Sharded_doc.run sd pool plan))
        (Array.sub batch 0 n);
      let before = held () in
      ignore (Sharded_doc.batch sd pool batch);
      let after = held () in
      Alcotest.(check bool)
        (Printf.sprintf "words held %d -> %d" before after)
        true
        (after - before < 1024))

(* Query windows over the router's label range, as the harness picks
   them: the whole document, then its lower and upper halves (each
   straddling whichever shard boundary falls inside). *)
let windows sd =
  match List.map snd (Labeled_doc.labeled_events (Sharded_doc.router sd)) with
  | [] -> [ None ]
  | labels ->
    let lo = List.hd labels
    and hi = List.nth labels (List.length labels - 1)
    and mid = List.nth labels (List.length labels / 2) in
    [ None; Some (lo, mid); Some (mid + 1, hi) ]

let check_matrix what sd =
  List.iter
    (fun size ->
      Pool.with_pool ~size (fun pool ->
          List.iter
            (fun within ->
              check_all_plans_agree ?within
                (Printf.sprintf "%s pool=%d %s" what size
                   (match within with
                    | None -> "whole"
                    | Some (lo, hi) -> Printf.sprintf "[%d,%d]" lo hi))
                sd pool)
            (windows sd)))
    [ 1; 2 ]

(* A seeded edit stream in router anchors: inserts under random
   elements, deletes of random non-root nodes, text rewrites. *)
let random_edit rng sd =
  let r = Sharded_doc.router sd in
  let root = root_of r in
  let nodes = Array.of_list (Dom.descendants root) in
  let anchor n = (Labeled_doc.label r n).Labeled_doc.start_pos in
  let elements =
    Array.of_list
      (root :: List.filter Dom.is_element (Array.to_list nodes))
  in
  let texts =
    Array.of_list
      (List.filter (fun n -> not (Dom.is_element n)) (Array.to_list nodes))
  in
  let insert () =
    let parent = Prng.pick rng elements in
    Journal.Insert
      { anchor = anchor parent;
        index = Prng.int rng (List.length (Dom.children parent) + 1);
        xml = "<item><name>n</name>i</item>" }
  in
  match Prng.int rng 3 with
  | 0 -> insert ()
  | 1 when Array.length nodes > 24 ->
    Journal.Delete { anchor = anchor (Prng.pick rng nodes) }
  | 2 when Array.length texts > 0 ->
    Journal.Set_text
      { anchor = anchor (Prng.pick rng texts);
        text = Printf.sprintf "s%d" (Prng.int rng 1000) }
  | _ -> insert ()

(* K in {1, 2, 4} x pool in {1, 2} x {whole, lower, upper} windows, all
   five plans, before and after a seeded write burst and a split. *)
let plans_agree_matrix () =
  List.iter
    (fun k ->
      let sd = Sharded_doc.create ~shards:k (wide_doc ~subtrees:12 (20 + k)) in
      let rng = Prng.create (30 + k) in
      check_matrix (Printf.sprintf "K=%d fresh" k) sd;
      for _ = 1 to 30 do
        Sharded_doc.apply sd (random_edit rng sd)
      done;
      check_matrix (Printf.sprintf "K=%d after writes" k) sd;
      split_first sd;
      check_matrix (Printf.sprintf "K=%d after split" k) sd)
    [ 1; 2; 4 ]

(* {1 Router-id snapshots} *)

(* Every row of every shard snapshot entry must name a live router node
   carrying the entry's tag, at the row's level — shard snapshots freeze
   router ids, not shard-local ones — through tombstones, re-inserts
   and a split ([Sharded_doc.check]). *)
let snapshots_hold_router_ids () =
  let sd = Sharded_doc.create ~shards:4 (wide_doc ~subtrees:16 40) in
  let rng = Prng.create 41 in
  Sharded_doc.check sd;
  for _ = 1 to 60 do
    Sharded_doc.apply sd (random_edit rng sd);
    Sharded_doc.check sd
  done;
  (* Tombstone every row of a top-level subtree, then re-insert its
     tags into the same shard: the dead rows stay in the table, the new
     nodes get rows of their own. *)
  let r = Sharded_doc.router sd in
  let first = List.hd (Dom.children (root_of r)) in
  let root_anchor = (Labeled_doc.label r (root_of r)).Labeled_doc.start_pos in
  let again = Ltree_xml.Serializer.node_to_string first in
  Sharded_doc.apply sd
    (Journal.Delete { anchor = (Labeled_doc.label r first).Labeled_doc.start_pos });
  Sharded_doc.check sd;
  Sharded_doc.apply sd
    (Journal.Insert { anchor = root_anchor; index = 0; xml = again });
  Sharded_doc.check sd;
  split_first sd;
  Sharded_doc.check sd;
  for _ = 1 to 20 do
    Sharded_doc.apply sd (random_edit rng sd);
    Sharded_doc.check sd
  done

(* Every snapshot id is the translation of its row's {e current} local
   id, checked row by row against the label table by [Sharded_doc.check],
   so an id cached by the index across a change of the row's Dom id
   cannot hide. *)
let snapshot_ids_follow_rows () =
  let sd = Sharded_doc.create ~shards:2 (wide_doc ~subtrees:12 43) in
  let rng = Prng.create 44 in
  for _ = 1 to 20 do
    Sharded_doc.apply sd (random_edit rng sd)
  done;
  Sharded_doc.check sd;
  split_first sd;
  Sharded_doc.check sd;
  for _ = 1 to 20 do
    Sharded_doc.apply sd (random_edit rng sd)
  done;
  Sharded_doc.check sd

(* {1 Allocation} *)

(* Words a [Gc.minor_words] reading itself allocates (its boxed
   float), measured back to back, as in bench/exp_query.ml. *)
let minor_calibration () =
  let best = ref infinity in
  for _ = 1 to 8 do
    let a = Gc.minor_words () in
    let b = Gc.minor_words () in
    best := Float.min !best (b -. a)
  done;
  !best

(* Per routed shard: the task record and outcome, the kernel's emit
   closures, the join's scratch stack, two slice entry views and the
   pool's result slot — about 140 words measured; a fall-back to per-chunk lists or per-result
   translation would add 3 or more words per result on top. *)
let per_shard_words = 192

(* A warm sharded [descendants] allocates the result list (3 words per
   id) plus a small constant per routed shard — no per-chunk lists, no
   per-result translation. *)
let descendants_allocation_bound () =
  let sd = Sharded_doc.create ~shards:4 (wide_doc ~subtrees:256 50) in
  Pool.with_pool ~size:1 (fun pool ->
      let run () = Sharded_doc.descendants sd pool ~anc:"site" ~desc:"name" in
      ignore (run () : int list);
      let calib = minor_calibration () in
      let w0 = Gc.minor_words () in
      let ids = run () in
      let w1 = Gc.minor_words () in
      let words = w1 -. w0 -. calib in
      let results = List.length ids in
      let bound = float_of_int ((3 * results) + (per_shard_words * 4)) in
      Alcotest.(check bool)
        (Printf.sprintf "enough results to tell (%d)" results)
        true (results >= 500);
      if Float.compare words bound > 0 then
        Alcotest.failf "sharded descendants allocated %.0f minor words for \
                        %d results (bound %.0f)" words results bound)

(* {1 Write routing} *)

let writes_route_to_owner () =
  let sd = Sharded_doc.create ~shards:3 (wide_doc 14) in
  let before = owners sd in
  let r = Sharded_doc.router sd in
  let subs = Array.of_list (Dom.children (root_of r)) in
  (* Insert a subtree under shard 1's first top-level subtree: only
     shard 1's journal advances. *)
  let target = subs.((initial_cuts sd).(1)) in
  let anchor = (Labeled_doc.label r target).Labeled_doc.start_pos in
  let seq_before =
    Array.init 3 (fun j ->
        Ltree_recovery.Durable_doc.last_seq (Sharded_doc.shard_durable sd j))
  in
  Sharded_doc.apply sd
    (Journal.Insert { anchor; index = 0; xml = "<patch>p</patch>" });
  Array.iteri
    (fun j seq ->
      let now =
        Ltree_recovery.Durable_doc.last_seq (Sharded_doc.shard_durable sd j)
      in
      Alcotest.(check int)
        (Printf.sprintf "shard %d journal advance" j)
        (if j = 1 then seq + 1 else seq)
        now)
    seq_before;
  Alcotest.(check (list int))
    "owner lookup" [ 1 ]
    (Sharded_doc.routed ~within:(anchor, anchor) sd);
  (* Deep insert does not move any cut. *)
  Alcotest.(check (list (list int))) "cuts unchanged" before (owners sd);
  (* A root-level insert at the front shifts every later cut. *)
  let root_anchor =
    (Labeled_doc.label r (root_of r)).Labeled_doc.start_pos
  in
  Sharded_doc.apply sd
    (Journal.Insert { anchor = root_anchor; index = 0; xml = "<patch>q</patch>" });
  Alcotest.(check (list (list int)))
    "front insert shifts cuts" ([ 0 ] :: before) (owners sd)

let empty_shard_skipped () =
  let sd = Sharded_doc.create ~shards:3 (wide_doc 15) in
  let r = Sharded_doc.router sd in
  (* Delete every top-level subtree shard 1 owns. *)
  let owned () =
    List.filteri
      (fun i _ -> List.nth (owners sd) i = [ 1 ])
      (Dom.children (root_of r))
  in
  Alcotest.(check bool) "shard 1 starts non-empty" true (owned () <> []);
  let rec drain () =
    match owned () with
    | [] -> ()
    | n :: _ ->
      Sharded_doc.apply sd
        (Journal.Delete
           { anchor = (Labeled_doc.label r n).Labeled_doc.start_pos });
      drain ()
  in
  drain ();
  Alcotest.(check bool) "shard 1 emptied" true
    (List.for_all (fun o -> o <> [ 1 ]) (owners sd));
  Alcotest.(check (list int))
    "routing skips the empty shard" [ 0; 2 ]
    (Sharded_doc.routed sd);
  Pool.with_pool ~size:2 (fun pool ->
      check_all_plans_agree "empty middle shard" sd pool)

(* {1 Rebalance} *)

let split_preserves_plans () =
  let sd = Sharded_doc.create ~shards:2 (wide_doc 16) in
  Pool.with_pool ~size:2 (fun pool ->
      let phases = ref [] in
      (* Queries issued from inside the split — between copying the
         store, trimming both sides, and the routing commit — must
         still agree: the router twin and the old shard stay live until
         the final layout swap. *)
      split_first sd ~on_phase:(fun phase ->
          phases := phase :: !phases;
          check_all_plans_agree
            (Printf.sprintf "during split (%s)" phase)
            sd pool);
      Alcotest.(check (list string))
        "phases seen" [ "copy"; "trim"; "commit" ]
        (List.rev !phases);
      Alcotest.(check int) "now three shards" 3 (Sharded_doc.nshards sd);
      check_all_plans_agree "after split" sd pool;
      (* The split shards still take writes. *)
      let r = Sharded_doc.router sd in
      let subs = Array.of_list (Dom.children (root_of r)) in
      let anchor =
        (Labeled_doc.label r subs.(0)).Labeled_doc.start_pos
      in
      Sharded_doc.apply sd
        (Journal.Insert { anchor; index = 0; xml = "<patch>s</patch>" });
      check_all_plans_agree "after post-split write" sd pool)

let maybe_rebalance_triggers () =
  let sd = Sharded_doc.create ~shards:2 (wide_doc 17) in
  (* With the threshold below any real imbalance, the denser shard must
     split; with a huge threshold, nothing happens. *)
  Alcotest.(check bool)
    "huge threshold: no split" false
    (Sharded_doc.maybe_rebalance ~threshold:1e9 sd);
  let split = Sharded_doc.maybe_rebalance ~threshold:0.1 sd in
  Alcotest.(check bool) "tiny threshold: split ran" true split;
  Alcotest.(check int) "shard count grew" 3 (Sharded_doc.nshards sd);
  Pool.with_pool ~size:2 (fun pool ->
      check_all_plans_agree "after maybe_rebalance" sd pool)

(* {1 Shard crash matrix} *)

let matrix_smoke () =
  let config =
    { Shard_matrix.matrix =
        { Matrix.seed = 42; ops = 12; doc_nodes = 40; group_commit = 4;
          checkpoint_every = 6 };
      shards = 2 }
  in
  let s = Shard_matrix.run config in
  Alcotest.(check bool) "matrix clean" true (Matrix.ok s.Shard_matrix.sweep);
  Alcotest.(check int) "no failed cells" 0
    s.Shard_matrix.sweep.Matrix.failed_cells;
  Alcotest.(check int) "two shards swept" 2
    (Array.length s.Shard_matrix.total_points)

let matrix_only_cell () =
  let config =
    { Shard_matrix.matrix =
        { Matrix.seed = 42; ops = 12; doc_nodes = 40; group_commit = 4;
          checkpoint_every = 6 };
      shards = 2 }
  in
  let only = (1, 7, Fault.Torn) in
  let s = Shard_matrix.run ~only config in
  Alcotest.(check int) "one cell" 1
    (List.length s.Shard_matrix.sweep.Matrix.cells);
  Alcotest.(check bool) "cell green" true (Matrix.ok s.Shard_matrix.sweep)

let parse_cell_roundtrip () =
  List.iter
    (fun (shard, point, mode) ->
      let c = (shard, point, mode) in
      Alcotest.(check bool)
        (Shard_matrix.cell_name c)
        true
        (match Shard_matrix.parse_cell (Shard_matrix.cell_name c) with
         | Some (s, p, m) ->
           s = shard && p = point
           && String.equal (Fault.mode_name m) (Fault.mode_name mode)
         | None -> false))
    [ (0, 1, Fault.Clean); (1, 37, Fault.Torn); (2, 9, Fault.Flip) ];
  Alcotest.(check bool) "garbage rejected" true
    (List.for_all
       (fun s -> Option.is_none (Shard_matrix.parse_cell s))
       [ ""; "P3/torn"; "S/P3/torn"; "Sx/P3/torn"; "S1/torn"; "S1/P0x/torn" ])

let suite =
  ( "shard",
    [ case "routing hits exact shard boundaries" `Quick routing_boundaries;
      case "windowed plans agree across boundaries" `Quick
        windowed_plans_agree;
      case "K=1 plans byte-identical to unsharded" `Quick k1_byte_identical;
      case "K=3 plans agree after a write workload" `Quick
        k3_agreement_after_writes;
      case "a batch releases its workspaces" `Quick batch_releases_workspaces;
      case "traced plans feed the histogram fold" `Quick
        traced_plans_feed_the_fold;
      case "a mixed-plan batch matches the unsharded batch" `Quick
        mixed_batch_agrees;
      case "plans agree across K, pool size, window and split" `Quick
        plans_agree_matrix;
      case "shard snapshots hold live router ids" `Quick
        snapshots_hold_router_ids;
      case "snapshot ids follow their rows through split and resync"
        `Quick snapshot_ids_follow_rows;
      case "warm sharded descendants stays within its allocation bound"
        `Quick descendants_allocation_bound;
      case "writes route to the owning shard only" `Quick
        writes_route_to_owner;
      case "an emptied shard is skipped by routing" `Quick
        empty_shard_skipped;
      case "plans stay exact during and after a split" `Quick
        split_preserves_plans;
      case "maybe_rebalance splits only past threshold" `Quick
        maybe_rebalance_triggers;
      case "shard crash matrix sweeps clean" `Quick matrix_smoke;
      case "single-cell rerun matches the sweep" `Quick matrix_only_cell;
      case "cell names parse back" `Quick parse_cell_roundtrip ] )
