(* The execution layer: pool mechanics, snapshot freshness, and — the
   load-bearing property — one differential test that runs every driver
   of the two join kernels (the store plans, the pooled snapshot driver,
   the sharded fan-out at several K, the XPath evaluator) against
   oracles that share none of their join code, through random edits.
   See DESIGN.md §8 and §11. *)

open Ltree_xml
open Ltree_relstore
module Counters = Ltree_metrics.Counters
module Labeled_doc = Ltree_doc.Labeled_doc
module Xml_gen = Ltree_workload.Xml_gen
module Pool = Ltree_exec.Pool
module Read_snapshot = Ltree_exec.Read_snapshot
module Prng = Ltree_workload.Prng
module Journal = Ltree_doc.Journal
module Sharded_doc = Ltree_shard.Sharded_doc
module Label_eval = Ltree_xpath.Label_eval
module Dom_eval = Ltree_xpath.Dom_eval
module Xpath_parser = Ltree_xpath.Xpath_parser

let case = Alcotest.test_case

(* {1 Pool mechanics} *)

let covers_range_once () =
  List.iter
    (fun size ->
      Pool.with_pool ~size (fun pool ->
          let n = 10_000 in
          let hits = Array.make n 0 in
          (* Disjoint chunks: no two participants share a slot, so the
             unsynchronised increments are race-free by construction. *)
          ignore
            (Pool.map ~chunk:64 pool
               (fun i -> hits.(i) <- hits.(i) + 1)
               (Array.init n Fun.id));
          Alcotest.(check bool)
            (Printf.sprintf "size %d: every index run exactly once" size)
            true
            (Array.for_all (fun c -> c = 1) hits)))
    [ 1; 2; 4 ]

let map_preserves_order () =
  List.iter
    (fun size ->
      Pool.with_pool ~size (fun pool ->
          let input = Array.init 1_000 (fun i -> i) in
          let out = Pool.map ~chunk:7 pool (fun i -> i * i) input in
          Alcotest.(check bool)
            (Printf.sprintf "size %d: map order" size)
            true
            (Array.for_all (fun i -> out.(i) = i * i) input)))
    [ 1; 2; 4 ]

let exceptions_propagate () =
  Pool.with_pool ~size:2 (fun pool ->
      let raised =
        try
          ignore
            (Pool.map ~chunk:8 pool
               (fun i -> if i >= 496 then failwith "chunk boom")
               (Array.init 1_000 Fun.id));
          false
        with Failure m -> String.equal m "chunk boom"
      in
      Alcotest.(check bool) "body failure reaches the caller" true raised;
      (* The pool survives a failed job. *)
      let total = Atomic.make 0 in
      ignore
        (Pool.map ~chunk:16 pool
           (fun _ -> Atomic.incr total)
           (Array.make 100 ()));
      Alcotest.(check int) "pool usable after failure" 100 (Atomic.get total))

let reentrant_runs_inline () =
  Pool.with_pool ~size:2 (fun pool ->
      let inner_total = Atomic.make 0 in
      ignore
        (Pool.map ~chunk:16 pool
           (fun () ->
             (* A nested submission must not deadlock on the job slot. *)
             ignore
               (Pool.map ~chunk:4 pool
                  (fun () -> Atomic.incr inner_total)
                  (Array.make 8 ())))
           (Array.make 64 ()));
      Alcotest.(check bool) "nested map completed" true
        (Atomic.get inner_total > 0))

let stats_account_for_work () =
  Pool.with_pool ~size:2 (fun pool ->
      ignore (Pool.map ~chunk:10 pool Fun.id (Array.make 1_000 ()));
      ignore (Pool.map ~chunk:8 pool Fun.id (Array.make 3 ()));
      let s = Pool.stats pool in
      Alcotest.(check int) "size" 2 s.Pool.size;
      Alcotest.(check int) "one parallel job" 1 s.Pool.parallel_jobs;
      Alcotest.(check int) "tiny range ran serial" 1 s.Pool.serial_jobs;
      Alcotest.(check int) "100 chunks accounted" 100 s.Pool.chunk_tasks;
      Alcotest.(check int) "per-worker tallies sum to the chunk count"
        100
        (Array.fold_left ( + ) 0 s.Pool.per_worker));
  Pool.with_pool ~size:1 (fun pool ->
      ignore (Pool.map ~chunk:10 pool Fun.id (Array.make 1_000 ()));
      let s = Pool.stats pool in
      Alcotest.(check int) "size-1 pools only run serial jobs" 0
        s.Pool.parallel_jobs;
      Alcotest.(check int) "the job still ran" 1 s.Pool.serial_jobs)

(* {1 Every driver against independent oracles} *)

let setup_generated ~seed ~nodes =
  let doc =
    Xml_gen.generate ~seed (Xml_gen.default_profile ~target_nodes:nodes ())
  in
  let ldoc = Labeled_doc.of_document doc in
  let counters = Counters.create () in
  let pager = Pager.create counters in
  let store = Shredder.shred_label pager ldoc in
  (doc, ldoc, pager, store)

(* Tags that actually have rows, most populous first. *)
let busy_tags snap =
  Read_snapshot.tags snap
  |> List.map (fun t ->
         (t, (Read_snapshot.entry snap t).Label_index.len))
  |> List.filter (fun (_, n) -> n > 0)
  |> List.sort (fun (_, a) (_, b) -> Int.compare b a)
  |> List.map fst

let check_same what expected got =
  Alcotest.(check (list int)) what expected got

let tags = [| "a"; "b"; "c" |]

(* A random fragment over three tags that nest freely, so same-tag
   elements sit inside each other — the shape where one descendant has
   several open ancestors and a child's parent is not its outermost
   container. *)
let rec fragment rng depth =
  let tag = Prng.pick rng tags in
  let kids =
    if depth = 0 then 0 else Prng.int rng (if depth > 2 then 4 else 3)
  in
  let body = Buffer.create 32 in
  for _ = 1 to kids do
    Buffer.add_string body (fragment rng (depth - 1))
  done;
  if Prng.int rng 4 = 0 then Buffer.add_string body "t";
  Printf.sprintf "<%s>%s</%s>" tag (Buffer.contents body) tag

(* An edit in document-independent terms — preorder positions — so the
   same edit lands on the same node of every twin of the document. *)
type edit =
  | Ins of int * int * string  (* element preorder index, child index *)
  | Del of int  (* non-root node preorder index *)

let preorder root =
  let acc = ref [] in
  Dom.iter_preorder root (fun n -> acc := n :: !acc);
  Array.of_list (List.rev !acc)

let random_edit rng root =
  let nodes = preorder root in
  let elements =
    Array.of_list
      (List.filter_map
         (fun i -> if Dom.is_element nodes.(i) then Some i else None)
         (List.init (Array.length nodes) Fun.id))
  in
  if Array.length nodes > 12 && Prng.int rng 3 = 0 then
    Del (1 + Prng.int rng (Array.length nodes - 1))
  else
    let p = Prng.pick rng elements in
    Ins (p, Prng.int rng (List.length (Dom.children nodes.(p)) + 1),
         fragment rng 2)

(* The journal entry of [e] against one labeled twin. *)
let entry_for ldoc e =
  let root = Option.get (Labeled_doc.document ldoc).Dom.root in
  let anchor i =
    (Labeled_doc.label ldoc (preorder root).(i)).Labeled_doc.start_pos
  in
  match e with
  | Ins (p, index, xml) -> Journal.Insert { anchor = anchor p; index; xml }
  | Del i -> Journal.Delete { anchor = anchor i }

let dom_ids doc path =
  List.sort_uniq Int.compare
    (List.map Dom.id (Dom_eval.eval doc (Xpath_parser.parse path)))

let pairs =
  List.concat_map (fun a -> List.map (fun d -> (a, d)) (Array.to_list tags))
    (Array.to_list tags)

let triples =
  List.concat_map
    (fun (a, b) -> List.map (fun c -> [ a; b; c ]) (Array.to_list tags))
    pairs

(* The store plans, the pooled snapshot driver at pool sizes 1 and 2,
   and the XPath evaluator, each against the sort-on-fetch baseline,
   the edge-table plans or the DOM evaluator. *)
let check_main what ~pools ldoc pager store sync ev =
  ignore (Label_sync.flush sync);
  let doc = Labeled_doc.document ldoc in
  let edges = Shredder.shred_edge (Pager.create (Counters.create ())) doc in
  let desc_oracle (anc, desc) =
    Query.label_descendants_baseline pager store ~anc ~desc
  in
  let child_oracle (parent, child) = Query.edge_children edges ~parent ~child in
  let name fmt = Printf.sprintf ("%s: " ^^ fmt) what in
  List.iter
    (fun ((anc, desc) as q) ->
      check_same (name "store %s//%s" anc desc) (desc_oracle q)
        (Query.label_descendants pager store ~anc ~desc);
      check_same (name "store inl %s//%s" anc desc) (desc_oracle q)
        (Query.label_descendants_inl pager store ~anc ~desc);
      check_same (name "store %s/%s" anc desc) (child_oracle q)
        (Query.label_children pager store ~parent:anc ~child:desc))
    pairs;
  List.iter
    (fun path ->
      check_same (name "store path %s" (String.concat "//" path))
        (Query.edge_path edges path) (Query.label_path pager store path))
    triples;
  let snap = Read_snapshot.of_store pager store ldoc in
  let cases =
    List.concat_map
      (fun ((anc, desc) as q) ->
        [ (Read_snapshot.Descendants (anc, desc), desc_oracle q);
          (Read_snapshot.Children (anc, desc), child_oracle q);
          (Read_snapshot.Descendants_inl (anc, desc), desc_oracle q) ])
      pairs
    @ List.map
        (fun path -> (Read_snapshot.Path path, Query.edge_path edges path))
        triples
  in
  List.iter
    (fun pool ->
      let got =
        Read_snapshot.run_batch pool snap (Array.of_list (List.map fst cases))
      in
      List.iteri
        (fun i (_, want) ->
          check_same
            (name "pool %d, snapshot plan %d" (Pool.stats pool).Pool.size i)
            want got.(i))
        cases)
    pools;
  List.iter
    (fun path ->
      (* Both evaluators answer in document order. *)
      check_same (name "label_eval %s" path)
        (List.map Dom.id (Dom_eval.eval doc (Xpath_parser.parse path)))
        (List.map Dom.id (Label_eval.eval_string ev path)))
    ([ "//a//b"; "//a/b"; "//b//a//c"; "/a/b"; "//a/b[1]"; "//a//b[last()]";
       "//a/b[2]"; "//a//c[1]"; "//a[b]//c"; "//a/*[last()]";
       "//b/following-sibling::a[1]" ])

(* The sharded fan-out and its one-task unsharded reference, against
   the DOM evaluator over the router twin. *)
let check_sharded what pool sd =
  let doc = Labeled_doc.document (Sharded_doc.router sd) in
  let name fmt = Printf.sprintf ("%s: " ^^ fmt) what in
  List.iter
    (fun (anc, desc) ->
      let desc_want = dom_ids doc (Printf.sprintf "//%s//%s" anc desc) in
      let child_want = dom_ids doc (Printf.sprintf "//%s/%s" anc desc) in
      check_same (name "%s//%s" anc desc) desc_want
        (Sharded_doc.descendants sd pool ~anc ~desc);
      check_same (name "inl %s//%s" anc desc) desc_want
        (Sharded_doc.descendants_inl sd pool ~anc ~desc);
      check_same (name "%s/%s" anc desc) child_want
        (Sharded_doc.children sd pool ~parent:anc ~child:desc);
      check_same (name "unsharded %s//%s" anc desc) desc_want
        (Sharded_doc.unsharded_descendants sd pool ~anc ~desc);
      check_same (name "unsharded %s/%s" anc desc) child_want
        (Sharded_doc.unsharded_children sd pool ~parent:anc ~child:desc))
    pairs;
  List.iter
    (fun path ->
      let want = dom_ids doc ("//" ^ String.concat "//" path) in
      check_same (name "path %s" (String.concat "//" path)) want
        (Sharded_doc.path sd pool path);
      check_same (name "unsharded path %s" (String.concat "//" path)) want
        (Sharded_doc.unsharded_path sd pool path))
    triples

let every_driver_agrees () =
  Pool.with_pool ~size:1 (fun pool1 ->
      Pool.with_pool ~size:2 (fun pool2 ->
          List.iter
            (fun seed ->
              let rng = Prng.create seed in
              let xml =
                if seed = 0 then "<a><a><b/><a><b/></a></a><b/></a>"
                else
                  Printf.sprintf "<a>%s%s%s</a>" (fragment rng 4)
                    (fragment rng 4) (fragment rng 4)
              in
              let ldoc = Labeled_doc.of_document (Parser.parse_string xml) in
              let pager = Pager.create (Counters.create ()) in
              let store = Shredder.shred_label pager ldoc in
              let sync = Label_sync.create pager store ldoc in
              let ev = Label_eval.create ldoc in
              let shards =
                List.map
                  (fun k ->
                    (k, Sharded_doc.create ~shards:k (Parser.parse_string xml)))
                  [ 1; 2; 3 ]
              in
              for round = 0 to 4 do
                let what = Printf.sprintf "seed %d round %d" seed round in
                check_main what ~pools:[ pool1; pool2 ] ldoc pager store sync
                  ev;
                List.iter
                  (fun (k, sd) ->
                    check_sharded (Printf.sprintf "%s K=%d" what k) pool2 sd)
                  shards;
                for _ = 1 to 4 do
                  let root = Option.get (Labeled_doc.document ldoc).Dom.root in
                  let e = random_edit rng root in
                  Journal.apply_entry ldoc (entry_for ldoc e);
                  List.iter
                    (fun (_, sd) ->
                      Sharded_doc.apply sd
                        (entry_for (Sharded_doc.router sd) e))
                    shards
                done
              done)
            [ 0; 1; 2; 3 ]))

(* {1 Snapshot freshness} *)

let staleness_detected () =
  let doc = Parser.parse_string "<a><b><c/></b><b><c/><d/></b></a>" in
  let ldoc = Labeled_doc.of_document doc in
  let counters = Counters.create () in
  let pager = Pager.create counters in
  let store = Shredder.shred_label pager ldoc in
  let sync = Label_sync.create pager store ldoc in
  let snap = Read_snapshot.of_store pager store ldoc in
  Alcotest.(check bool) "fresh after freeze" true (Read_snapshot.is_fresh snap);
  let root = Option.get doc.root in
  Labeled_doc.insert_subtree ldoc ~parent:root ~index:1
    (Parser.parse_fragment "<b><c/></b>");
  Alcotest.(check bool) "stale after mutation" false
    (Read_snapshot.is_fresh snap);
  Pool.with_pool ~size:2 (fun pool ->
      let bc = [| Read_snapshot.Descendants ("b", "c") |] in
      (match Read_snapshot.run_batch pool snap bc with
      | _ -> Alcotest.fail "stale snapshot answered a query"
      | exception Read_snapshot.Stale _ -> ());
      ignore (Label_sync.flush sync);
      let snap' = Read_snapshot.refresh snap in
      Alcotest.(check bool) "refresh rebuilds" true
        (Read_snapshot.is_fresh snap');
      check_same "refreshed snapshot sees the insert"
        (Query.label_descendants_baseline pager store ~anc:"b" ~desc:"c")
        (Read_snapshot.run_batch pool snap' bc).(0))

(* Two domains querying through mutate/flush/refresh cycles: the rebuilt
   snapshot must agree with the baseline plan after every round. *)
let mutate_refresh_stress () =
  let doc, ldoc, pager, store = setup_generated ~seed:5 ~nodes:800 in
  let sync = Label_sync.create pager store ldoc in
  let snap = ref (Read_snapshot.of_store pager store ldoc) in
  let root = Option.get doc.root in
  Pool.with_pool ~size:2 (fun pool ->
      for round = 1 to 8 do
        let anchor_index = round mod (1 + List.length (Dom.children root)) in
        Labeled_doc.insert_subtree ldoc ~parent:root ~index:anchor_index
          (Parser.parse_fragment "<probe><leaf/></probe>");
        ignore (Label_sync.flush sync);
        snap := Read_snapshot.refresh !snap;
        let check (anc, desc) =
          check_same
            (Printf.sprintf "round %d: %s//%s" round anc desc)
            (Query.label_descendants_baseline pager store ~anc ~desc)
            (Read_snapshot.run_batch pool !snap
               [| Read_snapshot.Descendants (anc, desc) |]).(0)
        in
        check ("probe", "leaf");
        match busy_tags !snap with
        | anc :: desc :: _ -> check (anc, desc)
        | _ -> ()
      done)

(* {1 Satellite: adaptive claim halving} *)

(* One hot tail: chunks past the midpoint each burn ~3ms while the
   head chunks are free, so some claimed span's wall time dominates
   the job's running mean and the claim size must halve at least
   once. *)
let adaptive_claims_rebalance () =
  let spin_ms ms =
    let deadline = Unix.gettimeofday () +. (float_of_int ms /. 1000.) in
    while Unix.gettimeofday () < deadline do
      ignore (Sys.opaque_identity 0)
    done
  in
  Pool.with_pool ~size:2 (fun pool ->
      ignore
        (Pool.map ~chunk:1 pool
           (fun i -> if i >= 32 then spin_ms 3)
           (Array.init 64 Fun.id));
      let s = Pool.stats pool in
      Alcotest.(check bool)
        (Printf.sprintf "claim halvings recorded (got %d)"
           s.Pool.claim_adaptations)
        true
        (s.Pool.claim_adaptations >= 1))

(* {1 Satellite: staleness payload} *)

let stale_payload_carries_stamps () =
  let doc =
    Parser.parse_string "<a><probe><leaf/></probe><probe/></a>"
  in
  let ldoc = Labeled_doc.of_document doc in
  let pager = Pager.create (Counters.create ()) in
  let store = Shredder.shred_label pager ldoc in
  let snap = Read_snapshot.of_store pager store ldoc in
  let root = Option.get doc.Dom.root in
  Labeled_doc.insert_subtree ldoc ~parent:root ~index:0
    (Parser.parse_fragment "<probe/>");
  match
    Pool.with_pool ~size:1 (fun pool ->
        Read_snapshot.run_batch pool snap
          [| Read_snapshot.Descendants ("probe", "leaf") |])
  with
  | _ -> Alcotest.fail "stale snapshot accepted"
  | exception Read_snapshot.Stale st ->
    (* The document mutated but no flush ran: the version stamp moved,
       the index generation did not. *)
    Alcotest.(check bool) "live version advanced" true
      (st.Read_snapshot.stale_live_version
       > st.Read_snapshot.stale_snap_version);
    Alcotest.(check int) "index generation unchanged"
      st.Read_snapshot.stale_snap_generation
      st.Read_snapshot.stale_live_generation

let suite =
  ( "exec",
    [
      case "map covers the range exactly once" `Quick
        covers_range_once;
      case "map preserves order" `Quick map_preserves_order;
      case "body exceptions reach the caller" `Quick exceptions_propagate;
      case "re-entrant map runs inline" `Quick reentrant_runs_inline;
      case "stats account for chunks and workers" `Quick
        stats_account_for_work;
      case "every driver agrees with independent oracles under edits" `Quick
        every_driver_agrees;
      case "stale snapshots refuse, refresh rebuilds" `Quick
        staleness_detected;
      case "2-domain mutate/flush/refresh stress" `Slow mutate_refresh_stress;
      case "skewed chunk halves the claim size" `Quick
        adaptive_claims_rebalance;
      case "Stale carries version + generation stamps" `Quick
        stale_payload_carries_stamps;
    ] )
