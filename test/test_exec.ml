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
module Column = Ltree_core.Column
module Span = Ltree_obs.Span
module Trace = Ltree_obs.Trace

let case = Alcotest.test_case

(* The store's INL plan for [anc//desc]. *)
let label_descendants_inl pager store ~anc ~desc =
  Query.label_plan pager store (Query.Descendants_inl (anc, desc))

(* {1 Pool mechanics} *)

let covers_range_once () =
  List.iter
    (fun size ->
      Pool.with_pool ~size (fun pool ->
          let n = 10_000 in
          let hits = Array.make n 0 in
          (* One task per slot: no two participants share a slot, so
             the unsynchronised increments are race-free by
             construction. *)
          ignore
            (Pool.map pool
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
          let out = Pool.map pool (fun i -> i * i) input in
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
            (Pool.map pool
               (fun i -> if i >= 496 then failwith "task boom")
               (Array.init 1_000 Fun.id));
          false
        with Failure m -> String.equal m "task boom"
      in
      Alcotest.(check bool) "body failure reaches the caller" true raised;
      (* The pool survives a failed job. *)
      let total = Atomic.make 0 in
      ignore
        (Pool.map pool
           (fun _ -> Atomic.incr total)
           (Array.make 100 ()));
      Alcotest.(check int) "pool usable after failure" 100 (Atomic.get total))

let reentrant_runs_inline () =
  Pool.with_pool ~size:2 (fun pool ->
      let inner_total = Atomic.make 0 in
      ignore
        (Pool.map pool
           (fun () ->
             (* A nested submission must not deadlock on the job slot. *)
             ignore
               (Pool.map pool
                  (fun () -> Atomic.incr inner_total)
                  (Array.make 8 ())))
           (Array.make 64 ()));
      Alcotest.(check bool) "nested map completed" true
        (Atomic.get inner_total > 0))

(* After [shutdown] the job slot has no workers behind it: a map runs
   inline in the caller, still in input order, and issues no claims. *)
let map_after_shutdown_runs_inline () =
  let pool = Pool.create ~size:2 in
  Pool.shutdown pool;
  Pool.shutdown pool;
  let out = Pool.map pool (fun i -> i * 3) (Array.init 100 Fun.id) in
  Alcotest.(check bool) "results in input order" true
    (Array.for_all (fun i -> out.(i) = i * 3) (Array.init 100 Fun.id));
  let s = Pool.stats pool in
  Alcotest.(check int) "no parallel job" 0 s.Pool.parallel_jobs;
  Alcotest.(check int) "ran as one serial job" 1 s.Pool.serial_jobs;
  Alcotest.(check int) "no cursor claims" 0 s.Pool.claim_ops

(* One claim per task: every parallel job issues exactly as many cursor
   claims as it has tasks and leaves one [pool.job] point saying so; a
   one-task job runs serially. *)
let stats_count_one_claim_per_task () =
  List.iter
    (fun size ->
      Pool.with_pool ~size (fun pool ->
          Span.reset ();
          let tasks = [ 64; 3; 17 ] in
          List.iter
            (fun n ->
              let before = (Pool.stats pool).Pool.claim_ops in
              ignore (Pool.map pool Fun.id (Array.make n ()));
              Alcotest.(check int)
                (Printf.sprintf "size %d: claims for %d tasks" size n)
                n
                ((Pool.stats pool).Pool.claim_ops - before))
            tasks;
          ignore (Pool.map pool Fun.id [| () |]);
          let s = Pool.stats pool in
          Alcotest.(check int) "size" size s.Pool.size;
          Alcotest.(check int) "parallel jobs" 3 s.Pool.parallel_jobs;
          Alcotest.(check int) "one-task job ran serial" 1 s.Pool.serial_jobs;
          Alcotest.(check (list string))
            (Printf.sprintf "size %d: one pool.job point per parallel job" size)
            (List.map string_of_int tasks)
            (List.filter_map
               (fun r ->
                 if String.equal r.Trace.name "pool.job" then
                   List.assoc_opt "claims" r.Trace.attrs
                 else None)
               (Span.records ()))))
    [ 2; 4 ];
  Pool.with_pool ~size:1 (fun pool ->
      ignore (Pool.map pool Fun.id (Array.make 1_000 ()));
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
      Doc_order.check (name "store %s//%s" anc desc) ldoc (desc_oracle q)
        (Query.label_descendants pager store ~anc ~desc);
      Doc_order.check (name "store inl %s//%s" anc desc) ldoc (desc_oracle q)
        (label_descendants_inl pager store ~anc ~desc);
      Doc_order.check (name "store %s/%s" anc desc) ldoc (child_oracle q)
        (Query.label_children pager store ~parent:anc ~child:desc))
    pairs;
  List.iter
    (fun path ->
      Doc_order.check (name "store path %s" (String.concat "//" path)) ldoc
        (Query.edge_path edges path) (Query.label_path pager store path))
    triples;
  let snap = Read_snapshot.of_store pager store ldoc in
  let cases =
    List.concat_map
      (fun ((anc, desc) as q) ->
        [ (Query.Descendants (anc, desc), desc_oracle q);
          (Query.Children (anc, desc), child_oracle q);
          (Query.Descendants_inl (anc, desc), desc_oracle q) ])
      pairs
    @ List.map
        (fun path -> (Query.Path path, Query.edge_path edges path))
        triples
  in
  List.iter
    (fun pool ->
      let got =
        Read_snapshot.run_batch pool snap (Array.of_list (List.map fst cases))
      in
      List.iteri
        (fun i (_, want) ->
          Doc_order.check
            (name "pool %d, snapshot plan %d" (Pool.stats pool).Pool.size i)
            ldoc want got.(i))
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

(* The sharded fan-out and the bench-only unsharded walks of the router
   Dom, against the DOM evaluator over the router twin.  The walks
   answer sorted by id. *)
let check_sharded what pool sd =
  let router = Sharded_doc.router sd in
  let doc = Labeled_doc.document router in
  let name fmt = Printf.sprintf ("%s: " ^^ fmt) what in
  List.iter
    (fun (anc, desc) ->
      let desc_want = dom_ids doc (Printf.sprintf "//%s//%s" anc desc) in
      let child_want = dom_ids doc (Printf.sprintf "//%s/%s" anc desc) in
      Doc_order.check (name "%s//%s" anc desc) router desc_want
        (Sharded_doc.descendants sd pool ~anc ~desc);
      Doc_order.check (name "inl %s//%s" anc desc) router desc_want
        (Sharded_doc.run sd pool (Query.Descendants_inl (anc, desc)));
      Doc_order.check (name "%s/%s" anc desc) router child_want
        (Sharded_doc.children sd pool ~parent:anc ~child:desc);
      check_same (name "unsharded %s//%s" anc desc) desc_want
        (Sharded_doc.unsharded_descendants sd pool ~anc ~desc);
      check_same (name "unsharded %s/%s" anc desc) child_want
        (Sharded_doc.unsharded_children sd pool ~parent:anc ~child:desc))
    pairs;
  List.iter
    (fun path ->
      let want = dom_ids doc ("//" ^ String.concat "//" path) in
      Doc_order.check (name "path %s" (String.concat "//" path)) router want
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

(* {1 One result order}

   Inserts near the front give nodes early in document order later Dom
   ids, so id order and document order differ.  Every plan kind —
   through the store, the pooled snapshot driver and the sharded
   fan-out at K = 1, 2 and 4, single plans and one batch, over the
   whole document and two windows — must then equal the DOM
   evaluator's answer element for element: document order, each match
   once.  [Path ["site"]] matches the root, which every shard clones. *)

let order_plans =
  [ (Query.Descendants ("site", "name"), "//site//name");
    (Query.Children ("item", "name"), "//item/name");
    (Query.Descendants_inl ("item", "name"), "//item//name");
    (Query.Path [ "site"; "item"; "name" ], "//site//item//name");
    (Query.Path [ "site" ], "//site") ]

let order_xml =
  "<site><a><item><item><name/></item><name/></item></a>\
   <b><item><name/></item></b><c><item><name/></item></c>\
   <d><item><name/></item></d><e><item><name/></item></e></site>"

(* Prepend a nested fragment to the root, then an item to the root's
   fourth child, each through [apply] with anchors read from [ldoc]. *)
let reorder ldoc apply =
  let root () = Option.get (Labeled_doc.document ldoc).Dom.root in
  let anchor n = (Labeled_doc.label ldoc n).Labeled_doc.start_pos in
  apply
    (Journal.Insert
       { anchor = anchor (root ()); index = 0;
         xml = "<f><item><name/><item><name/></item></item></f>" });
  apply
    (Journal.Insert
       { anchor = anchor (List.nth (Dom.children (root ())) 3); index = 0;
         xml = "<item><name/></item>" })

(* The DOM evaluator's answer, restricted to start labels in [within]. *)
let dom_answer ?within ldoc xpath =
  List.filter_map
    (fun n ->
      let s = (Labeled_doc.label ldoc n).Labeled_doc.start_pos in
      match within with
      | Some (lo, hi) when s < lo || s > hi -> None
      | Some _ | None -> Some (Dom.id n))
    (Dom_eval.eval (Labeled_doc.document ldoc) (Xpath_parser.parse xpath))

let one_result_order () =
  let check ?within what ldoc xpath got =
    check_same what (dom_answer ?within ldoc xpath) got
  in
  let plans = Array.of_list (List.map fst order_plans) in
  let ldoc = Labeled_doc.of_document (Parser.parse_string order_xml) in
  let pager = Pager.create (Counters.create ()) in
  let store = Shredder.shred_label pager ldoc in
  let sync = Label_sync.create pager store ldoc in
  reorder ldoc (Journal.apply_entry ldoc);
  ignore (Label_sync.flush sync);
  let snap = Read_snapshot.of_store pager store ldoc in
  Pool.with_pool ~size:2 (fun pool ->
      let batch = Read_snapshot.run_batch pool snap plans in
      List.iteri
        (fun i (plan, xpath) ->
          check ("store " ^ xpath) ldoc xpath
            (Query.label_plan pager store plan);
          check ("snapshot " ^ xpath) ldoc xpath batch.(i))
        order_plans;
      List.iter
        (fun k ->
          let sd =
            Sharded_doc.create ~shards:k (Parser.parse_string order_xml)
          in
          let router = Sharded_doc.router sd in
          reorder router (Sharded_doc.apply sd);
          let labels = List.map snd (Labeled_doc.labeled_events router) in
          let mid = List.nth labels (List.length labels / 2) in
          List.iter
            (fun within ->
              let name what xpath =
                match within with
                | None -> Printf.sprintf "K=%d %s %s" k what xpath
                | Some (lo, hi) ->
                  Printf.sprintf "K=%d [%d,%d] %s %s" k lo hi what xpath
              in
              let batch = Sharded_doc.batch ?within sd pool plans in
              List.iteri
                (fun i (plan, xpath) ->
                  check ?within (name "run" xpath) router xpath
                    (Sharded_doc.run ?within sd pool plan);
                  check ?within (name "batch" xpath) router xpath batch.(i))
                order_plans)
            [ None; Some (Int.min_int, mid); Some (mid + 1, Int.max_int) ])
        [ 1; 2; 4 ])

(* {1 The driver allocates nothing}

   Each plan kind through the driver on a warmed workspace, over a
   frozen snapshot and over a clean live store: 0.0 minor words per
   plan, averaged over 10k runs (the two [Gc.minor_words] readings
   vanish in the average; one word per plan would read 1.0). *)

let driver_allocates_nothing () =
  let runs = 10_000 in
  let per_plan name f =
    f ();
    let w0 = Gc.minor_words () in
    for _ = 1 to runs do
      f ()
    done;
    let words = (Gc.minor_words () -. w0) /. float_of_int runs in
    Alcotest.(check (float 0.05)) (name ^ ": minor words per plan") 0. words
  in
  let ldoc =
    Labeled_doc.of_document
      (Parser.parse_string
         "<a><b><a><b><c/></b><c/></a></b><b><c/><a><c/></a></b></a>")
  in
  let pager = Pager.create (Counters.create ()) in
  let store = Shredder.shred_label pager ldoc in
  let snap = Read_snapshot.of_store pager store ldoc in
  let counters = Counters.create () in
  let ws = Label_index.create_workspace () in
  List.iter
    (fun (kind, plan) ->
      per_plan ("snapshot " ^ kind) (fun () ->
          Read_snapshot.run counters snap ws plan);
      per_plan ("store " ^ kind) (fun () ->
          ignore (Query.label_plan_hot pager store plan : Column.t)))
    [ ("Descendants", Query.Descendants ("a", "c"));
      ("Children", Query.Children ("b", "c"));
      ("Descendants_inl", Query.Descendants_inl ("a", "c"));
      ("Path", Query.Path [ "a"; "b"; "c" ]) ]

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
      let bc = [| Query.Descendants ("b", "c") |] in
      (match Read_snapshot.run_batch pool snap bc with
      | _ -> Alcotest.fail "stale snapshot answered a query"
      | exception Read_snapshot.Stale _ -> ());
      ignore (Label_sync.flush sync);
      let snap' = Read_snapshot.refresh snap in
      Alcotest.(check bool) "refresh rebuilds" true
        (Read_snapshot.is_fresh snap');
      Doc_order.check "refreshed snapshot sees the insert" ldoc
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
          Doc_order.check
            (Printf.sprintf "round %d: %s//%s" round anc desc)
            ldoc
            (Query.label_descendants_baseline pager store ~anc ~desc)
            (Read_snapshot.run_batch pool !snap
               [| Query.Descendants (anc, desc) |]).(0)
        in
        check ("probe", "leaf");
        match busy_tags !snap with
        | anc :: desc :: _ -> check (anc, desc)
        | _ -> ()
      done)

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
          [| Query.Descendants ("probe", "leaf") |])
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
      case "map after shutdown runs inline" `Quick
        map_after_shutdown_runs_inline;
      case "stats count one claim per task" `Quick
        stats_count_one_claim_per_task;
      case "every driver agrees with independent oracles under edits" `Quick
        every_driver_agrees;
      case "every plan answers in document order" `Quick one_result_order;
      case "the driver allocates nothing" `Quick driver_allocates_nothing;
      case "stale snapshots refuse, refresh rebuilds" `Quick
        staleness_detected;
      case "2-domain mutate/flush/refresh stress" `Slow mutate_refresh_stress;
      case "Stale carries version + generation stamps" `Quick
        stale_payload_carries_stamps;
    ] )
