(* The self-check harness behind `ltree check`, the one invariant
   runner (the `trace`, `metrics` and `top` commands replay its workload
   too).

   One harness owns a full stack — labeled document, both XPath engines,
   the synced relational store, journal + snapshot recovery, and a
   materialized/virtual twin pair — and registers every invariant the
   stack defines into a single [Ltree_analysis.Invariant] registry, so
   validation always means "run them all", not whichever subset a
   harness remembered.

   Mutations go through a self-describing operation log (one printable
   line per op; indices are reduced modulo the current population, so
   any subsequence of a log stays applicable).  A failing run therefore
   replays from (params, seed, log), which is what lets
   [minimized_counterexample] delta-debug the log down and dump a
   reproducible [Invariant.Counterexample]. *)

open Ltree_core
open Ltree_xml
open Ltree_doc
open Ltree_relstore
module Invariant = Ltree_analysis.Invariant
module Counters = Ltree_metrics.Counters
module Prng = Ltree_workload.Prng
module Fault = Ltree_recovery.Fault
module Durable_doc = Ltree_recovery.Durable_doc
module Matrix = Ltree_recovery.Matrix
module Span = Ltree_obs.Span
module Accountant = Ltree_obs.Accountant
module Pool = Ltree_exec.Pool
module Read_snapshot = Ltree_exec.Read_snapshot
module Sharded_doc = Ltree_shard.Sharded_doc

type t = {
  params : Params.t;
  seed : int;
  doc : Dom.document;
  root : Dom.node;
  ldoc : Labeled_doc.t;
  engine : Ltree_xpath.Label_eval.t;
  pager : Pager.t;
  store : Shredder.label_store;
  sync : Label_sync.t;
  journal : Journal.t;
  mutable snapshot : string;
  sim : Fault.sim;  (* the durable twin's simulated disk *)
  durable : Durable_doc.t;  (* crash-safe replica fed the same entries *)
  sharded : Sharded_doc.t;
      (* K-shard twin fed the same entries; shard.plans-agree compares
         its fan-out plans against its own unsharded reference store *)
  mt : Ltree.t;
  vt : Virtual_ltree.t;
  mutable mh : Ltree.leaf list;  (* newest first *)
  mutable vh : Virtual_ltree.handle list;
  acct : Accountant.t;
      (* fed the materialized twin's per-insertion relabel deltas;
         judged by the obs.amortized-bound invariant *)
  pool : Pool.t option;
      (* when present, exec.parallel-plans-agree reruns every query
         plan over a frozen snapshot on this pool *)
  registry : Invariant.registry;
  mutable log : string list;  (* newest first *)
}

let registry t = t.registry
let log t = List.rev t.log
let labels t = Ltree.labels t.mt
let accountant t = t.acct
let doc_counters t = Labeled_doc.counters t.ldoc

(* Gauge sources over the live stack, plus the GC ones: each
   [Telemetry.sample] writes their readings into the event ring, so
   `ltree top` shows how label width, population and journal depth move
   as the workload runs, and a failure bundle shows where they stood
   when an invariant broke. *)
let register_telemetry t =
  let reg name fn = Ltree_obs.Telemetry.register ~name fn in
  Ltree_obs.Telemetry.register_gc ();
  reg "doc_bits_per_label" (fun () ->
      float_of_int (Ltree.bits_per_label (Labeled_doc.tree t.ldoc)));
  reg "doc_live_tags" (fun () ->
      float_of_int (Ltree.live_length (Labeled_doc.tree t.ldoc)));
  reg "twin_leaves" (fun () -> float_of_int (Ltree.length t.mt));
  reg "journal_entries" (fun () -> float_of_int (Journal.length t.journal));
  reg "durable_last_seq" (fun () ->
      float_of_int (Durable_doc.last_seq t.durable))

let queries =
  [ "site//item/name"; "//person[address/city]"; "//patch";
    "//open_auction[bidder]/itemref"; "//item/following-sibling::item" ]

(* {1 Query plans}

   The one plan list the three query invariants build their cases
   from: the three pair plans over every tag pair, and one three-step
   path. *)

let store_tags t =
  Hashtbl.fold (fun tag _ acc -> tag :: acc) t.store.Shredder.label_by_tag []
  |> List.sort String.compare

let plan_cases tags =
  List.concat_map
    (fun a ->
      List.concat_map
        (fun d ->
          [ (Printf.sprintf "%s//%s" a d, Query.Descendants (a, d));
            (Printf.sprintf "%s/%s" a d, Query.Children (a, d));
            (Printf.sprintf "inl:%s//%s" a d, Query.Descendants_inl (a, d)) ])
        tags)
    tags
  @
  match tags with
  | a :: b :: c :: _ ->
    [ (Printf.sprintf "%s//%s//%s" a b c, Query.Path [ a; b; c ]) ]
  | _ -> []

(* Each case with the answer of a plan that shares none of the driver's
   join code: the sort-on-fetch baseline for both descendant plans, the
   edge-table plans over a fresh edge shredding of the same document
   for children and paths. *)
let with_oracles t cases =
  let edges =
    Shredder.shred_edge
      (Pager.create (Counters.create ()))
      (Labeled_doc.document t.ldoc)
  in
  (* Both descendant plans of a pair share one baseline run. *)
  let below = Hashtbl.create 64 in
  let baseline anc desc =
    let key = anc ^ "//" ^ desc in
    match Hashtbl.find_opt below key with
    | Some ids -> ids
    | None ->
      let ids = Query.label_descendants_baseline t.pager t.store ~anc ~desc in
      Hashtbl.replace below key ids;
      ids
  in
  List.map
    (fun (name, plan) ->
      let want =
        match plan with
        | Query.Descendants (anc, desc) | Query.Descendants_inl (anc, desc) ->
          baseline anc desc
        | Query.Children (parent, child) ->
          Query.edge_children edges ~parent ~child
        | Query.Path tags -> Query.edge_path edges tags
      in
      (name, plan, want))
    cases

(* A plan's answer against an id-sorted oracle: the same set, listed
   in document order. *)
let agrees ldoc got want =
  List.equal Int.equal (List.sort Int.compare got) want
  && Labeled_doc.in_document_order ldoc got

(* {1 Invariants} *)

let register_invariants t =
  let reg = t.registry in
  Invariant.register reg ~name:"ltree.structure" ~depth:Invariant.Deep
    (fun () -> Ltree.check t.mt);
  (* Paper Prop. 1, checked directly on the exported labels. *)
  Invariant.register reg ~name:"ltree.monotone-labels"
    ~depth:Invariant.Cheap (fun () ->
      let labels = Ltree.labels t.mt in
      Array.iteri
        (fun i l ->
          if i > 0 && l <= labels.(i - 1) then
            Invariant.fail ~name:"ltree.monotone-labels"
              "labels.(%d)=%d is not above labels.(%d)=%d" i l (i - 1)
              labels.(i - 1))
        labels);
  Invariant.register reg ~name:"virtual.structure" ~depth:Invariant.Deep
    (fun () -> Virtual_ltree.check t.vt);
  (* §4.1: the virtual tree must stay label-identical to the
     materialized one under the same operations. *)
  Invariant.register reg ~name:"twin.parity" ~depth:Invariant.Cheap
    (fun () ->
      let a = Ltree.labels t.mt and b = Virtual_ltree.labels t.vt in
      if Array.length a <> Array.length b then
        Invariant.fail ~name:"twin.parity"
          "materialized has %d leaves, virtual has %d" (Array.length a)
          (Array.length b);
      Array.iteri
        (fun i l ->
          if l <> b.(i) then
            Invariant.fail ~name:"twin.parity"
              "labels diverge at pos %d: materialized=%d virtual=%d" i l
              b.(i))
        a);
  Invariant.register reg ~name:"doc.consistency" ~depth:Invariant.Deep
    (fun () -> Labeled_doc.check t.ldoc);
  Invariant.register reg ~name:"doc.tree" ~depth:Invariant.Deep (fun () ->
      Ltree.check (Labeled_doc.tree t.ldoc));
  Invariant.register reg ~name:"xpath.parity" ~depth:Invariant.Deep
    (fun () ->
      List.iter
        (fun q ->
          let path = Ltree_xpath.Xpath_parser.parse q in
          let a = List.map Dom.id (Ltree_xpath.Dom_eval.eval t.doc path) in
          let b =
            List.map Dom.id (Ltree_xpath.Label_eval.eval t.engine path)
          in
          if not (List.equal Int.equal a b) then
            Invariant.fail ~name:"xpath.parity"
              "query %S: dom navigation found %d nodes, label joins %d \
               (or a different order)"
              q (List.length a) (List.length b))
        queries);
  Invariant.register reg ~name:"store.sync" ~depth:Invariant.Deep
    (fun () ->
      ignore (Label_sync.flush t.sync);
      Label_sync.check t.sync);
  (* The incremental per-tag index must stay equivalent to sorting the
     rows from scratch: after a flush, every store plan agrees with its
     independent oracle on every tag pair, and every clean index entry
     matches its backing rows (sorted, no tombstones). *)
  Invariant.register reg ~name:"store.index-fresh" ~depth:Invariant.Deep
    (fun () ->
      ignore (Label_sync.flush t.sync);
      List.iter
        (fun (name, plan, want) ->
          let got = Query.label_plan t.pager t.store plan in
          if not (agrees t.ldoc got want) then
            Invariant.fail ~name:"store.index-fresh"
              "%s: indexed store plan found %d ids, independent oracle %d \
               (or another set, or not in document order)"
              name (List.length got) (List.length want))
        (with_oracles t (plan_cases (store_tags t)));
      Label_index.check t.store.Shredder.label_index
        ~fetch:(fun (store : Shredder.label_store) rid r ->
          let row = Rel_table.get store.label_table rid in
          r.Label_index.r_start <- row.Shredder.l_start;
          r.r_end <- row.l_end;
          r.r_level <- row.l_level;
          r.r_dead <- row.l_dead;
          if not row.l_dead then r.r_id <- store.label_ids row.l_id)
        t.store);
  (* The pooled snapshot driver must agree with the same independent
     oracles, at whatever pool size the harness was given.  Also proves
     the staleness guard: the snapshot is taken after the flush, so it
     must still be fresh when queried. *)
  (match t.pool with
  | None -> ()
  | Some pool ->
    Invariant.register reg ~name:"exec.parallel-plans-agree"
      ~depth:Invariant.Deep (fun () ->
        ignore (Label_sync.flush t.sync);
        let snap = Read_snapshot.of_store t.pager t.store t.ldoc in
        let cases = with_oracles t (plan_cases (store_tags t)) in
        let got =
          Read_snapshot.run_batch pool snap
            (Array.of_list (List.map (fun (_, plan, _) -> plan) cases))
        in
        List.iteri
          (fun i (name, _, want) ->
            if not (agrees t.ldoc got.(i) want) then
              Invariant.fail ~name:"exec.parallel-plans-agree"
                "%s: snapshot driver found %d ids, independent oracle %d \
                 (or another set, or not in document order)"
                name (List.length got.(i)) (List.length want))
          cases));
  (* Sharded fan-out plans must stay byte-identical to the same plans
     over the router twin's single unsharded store, and list their
     answers in document order — one by one and as one batch, at the
     harness's pool size, across rebalances (the checkpoint op may
     split a shard), and under label-window restriction (windows are
     chosen to straddle shard boundaries). *)
  (match t.pool with
  | None -> ()
  | Some pool ->
    Invariant.register reg ~name:"shard.plans-agree" ~depth:Invariant.Deep
      (fun () ->
        let sd = t.sharded in
        let tags = store_tags t in
        let cases = plan_cases tags in
        let check name got want =
          if
            not
              (List.equal Int.equal got want
              && Labeled_doc.in_document_order (Sharded_doc.router sd) got)
          then
            Invariant.fail ~name:"shard.plans-agree"
              "%s: sharded plan found %d ids, unsharded %d (or a \
               different order, or not document order)"
              name (List.length got) (List.length want)
        in
        let windows =
          match
            List.map snd (Labeled_doc.labeled_events (Sharded_doc.router sd))
          with
          | [] -> [ None ]
          | labels ->
            let lo = List.hd labels
            and hi = List.nth labels (List.length labels - 1)
            and mid = List.nth labels (List.length labels / 2) in
            [ None; Some (lo, mid); Some (mid + 1, hi) ]
        in
        List.iter
          (fun (name, plan) ->
            check ("shard:" ^ name)
              (Sharded_doc.run sd pool plan)
              (Sharded_doc.unsharded_run sd pool plan))
          cases;
        (* Windowed plans on a few tag pairs: the windows straddle
           shard boundaries, so routing must both prune shards and
           keep boundary-crossing answers exact. *)
        (match tags with
        | a :: b :: _ ->
          List.iter
            (fun within ->
              let wname =
                match within with
                | None -> "full"
                | Some (lo, hi) -> Printf.sprintf "[%d,%d]" lo hi
              in
              let plan = Query.Descendants (a, b) in
              check
                (Printf.sprintf "shard:%s//%s within %s" a b wname)
                (Sharded_doc.run ?within sd pool plan)
                (Sharded_doc.unsharded_run ?within sd pool plan))
            windows
        | _ -> ());
        (* Mixed batches of one plan per tag pair: a batch holds one
           workspace per plan and routed shard while it runs, so a
           batch of the whole list would triple its peak. *)
        let cases = Array.of_list cases in
        let size = Int.max 1 (List.length tags * List.length tags) in
        let rec batches first =
          if first < Array.length cases then begin
            let chunk =
              Array.sub cases first
                (Int.min size (Array.length cases - first))
            in
            let plans = Array.map snd chunk in
            let got = Sharded_doc.batch sd pool plans in
            let want = Sharded_doc.unsharded_batch sd pool plans in
            Array.iteri
              (fun i (name, _) ->
                check ("shard-batch:" ^ name) got.(i) want.(i))
              chunk;
            batches (first + size)
          end
        in
        batches 0));
  Invariant.register reg ~name:"recovery.roundtrip" ~depth:Invariant.Deep
    (fun () ->
      let recovered = Snapshot.load t.snapshot in
      Journal.replay t.journal recovered;
      Labeled_doc.check recovered;
      let labels d = List.map snd (Labeled_doc.labeled_events d) in
      if not (List.equal Int.equal (labels t.ldoc) (labels recovered)) then
        Invariant.fail ~name:"recovery.roundtrip"
          "snapshot + journal replay diverges from the live document");
  (* The durable twin's on-disk state must stay scannable/loadable, and
     its document label-identical to the live one (it is fed the same
     entries, and labels are deterministic).  These are the same
     invariants the crash matrix runs post-recovery. *)
  Matrix.register_invariants reg ~io:(Fault.sim_io t.sim)
    ~dir:"store"
    ~expected_labels:(fun () ->
      Array.of_list (List.map snd (Labeled_doc.labeled_events t.ldoc)))
    t.durable;
  (* §3.2: the observed per-insertion relabel cost must stay within the
     closed-form amortized budget.  Budget_exceeded is the accountant's
     own exception — [Invariant.run_entry] only understands Violation,
     so convert inside the closure. *)
  Invariant.register reg ~name:"obs.amortized-bound" ~depth:Invariant.Cheap
    (fun () ->
      match Accountant.check t.acct with
      | () -> ()
      | exception Accountant.Budget_exceeded b ->
        Invariant.fail ~name:"obs.amortized-bound" "%s"
          (Accountant.breach_to_string b))

(* {1 Construction} *)

let create ?(params = Params.make ~f:8 ~s:2) ?pool ~seed ~make_doc () =
  let doc : Dom.document = make_doc () in
  let root =
    match doc.root with
    | Some r -> r
    | None -> failwith "harness: document has no root"
  in
  let ldoc = Labeled_doc.of_document ~params doc in
  let engine = Ltree_xpath.Label_eval.create ldoc in
  let pager = Pager.create (Counters.create ()) in
  let store = Shredder.shred_label pager ldoc in
  let sync = Label_sync.create pager store ldoc in
  let journal = Journal.create () in
  let sim = Fault.create_sim () in
  (* The durable twin labels its own replica of the same document
     ([make_doc] is deterministic), so anchors — begin-tag labels —
     mean the same thing on both sides. *)
  let durable =
    Durable_doc.initialize ~io:(Fault.sim_io sim) ~dir:"store"
      (Labeled_doc.of_document ~params (make_doc ()))
  in
  (* The sharded twin re-labels its own replica too, so the same
     begin-tag anchors address the same nodes through its router. *)
  let sharded = Sharded_doc.create ~params ~shards:3 (make_doc ()) in
  let mt, ml = Ltree.bulk_load ~params 64 in
  let vt, vl = Virtual_ltree.bulk_load ~params 64 in
  let t =
    {
      params; seed; doc; root; ldoc; engine; pager; store; sync; journal;
      sim; durable; sharded;
      snapshot = Snapshot.save ldoc;
      mt; vt;
      mh = Array.to_list ml;
      vh = Array.to_list vl;
      acct =
        Accountant.create
          ~c:(Accountant.default_c ~f:params.Params.f ~s:params.Params.s)
          ~window:32 ();
      pool;
      registry = Invariant.create ();
      log = [];
    }
  in
  register_invariants t;
  t

(* {1 Operations} *)

let pick l j = List.nth l (abs j mod List.length l)
let int_arg s = match int_of_string_opt s with Some v -> v | None -> 0

let live_elements t =
  List.filter
    (fun n -> Dom.is_element n && n != t.root)
    (Dom.descendants t.root)

let live_texts t = List.filter Dom.is_text (Dom.descendants t.root)

let exec t line =
  match String.split_on_char ' ' line with
  | [] -> ()
  | cmd :: args -> (
    match (cmd, args) with
    | "#", _ | "", _ -> ()
    | "ins", [ j ] ->
      let j = int_arg j in
      let m = pick t.mh j and v = pick t.vh j in
      let before = Counters.relabels (Ltree.counters t.mt) in
      t.mh <- Ltree.insert_after t.mt m :: t.mh;
      Accountant.note t.acct ~n:(Ltree.length t.mt)
        ~relabels:(Counters.relabels (Ltree.counters t.mt) - before);
      t.vh <- Virtual_ltree.insert_after t.vt v :: t.vh
    | "batch", [ j; k ] ->
      let j = int_arg j and k = max 1 (int_arg k) in
      let m = pick t.mh j and v = pick t.vh j in
      let before = Counters.relabels (Ltree.counters t.mt) in
      t.mh <- Array.to_list (Ltree.insert_batch_after t.mt m k) @ t.mh;
      Accountant.note_batch t.acct ~n:(Ltree.length t.mt) ~count:k
        ~relabels:(Counters.relabels (Ltree.counters t.mt) - before);
      t.vh <-
        Array.to_list (Virtual_ltree.insert_batch_after t.vt v k) @ t.vh
    | "corrupt", _ ->
      (* An unmirrored materialized insert: legal for the tree itself,
         but it desynchronizes the twins, so twin.parity must fail. *)
      Ltree_obs.Span.note ~kind:"fault" "harness_corrupt";
      t.mh <- Ltree.insert_after t.mt (pick t.mh 0) :: t.mh
    | "storm", _ ->
      (* A synthetic relabeling storm: one full accounting window of
         insertions each claiming relabel costs far past any c*log2 n
         budget, so obs.amortized-bound must trip.  The twins are left
         untouched — like [corrupt], this op exists to prove the alarm
         fires. *)
      Ltree_obs.Span.note ~kind:"fault" "harness_storm";
      let n = max 2 (Ltree.length t.mt) in
      for _ = 1 to Accountant.window t.acct do
        Accountant.note t.acct ~n ~relabels:100_000
      done
    | "doc-del", [ i ] -> (
      match live_elements t with
      | [] -> ()
      | es ->
        let node = pick es (int_arg i) in
        let anchor = (Labeled_doc.label t.ldoc node).Labeled_doc.start_pos in
        Journal.delete_subtree t.journal t.ldoc node;
        Durable_doc.apply t.durable (Journal.Delete { anchor });
        Sharded_doc.apply t.sharded (Journal.Delete { anchor }))
    | "doc-text", [ i ] -> (
      match live_texts t with
      | [] -> ()
      | ts ->
        let node = pick ts (int_arg i) in
        let anchor = (Labeled_doc.label t.ldoc node).Labeled_doc.start_pos in
        Journal.set_text t.journal t.ldoc node "selfcheck edit";
        Durable_doc.apply t.durable
          (Journal.Set_text { anchor; text = "selfcheck edit" });
        Sharded_doc.apply t.sharded
          (Journal.Set_text { anchor; text = "selfcheck edit" }))
    | "doc-ins", [ i; c ] -> (
      match live_elements t with
      | [] -> ()
      | es ->
        let parent = pick es (int_arg i) in
        let anchor =
          (Labeled_doc.label t.ldoc parent).Labeled_doc.start_pos
        in
        let index = abs (int_arg c) mod (Dom.child_count parent + 1) in
        let xml =
          Printf.sprintf "<patch n=\"%d\">p<deep><x/></deep></patch>"
            (int_arg c)
        in
        Journal.insert_subtree t.journal t.ldoc ~parent ~index
          (Parser.parse_fragment xml);
        Durable_doc.apply t.durable (Journal.Insert { anchor; index; xml });
        Sharded_doc.apply t.sharded (Journal.Insert { anchor; index; xml }))
    | "checkpoint", _ ->
      t.snapshot <- Snapshot.save t.ldoc;
      Journal.clear t.journal;
      Durable_doc.checkpoint t.durable;
      Sharded_doc.checkpoint t.sharded;
      (* Density may have drifted; a split here proves the plans stay
         exact across a live rebalance. *)
      ignore (Sharded_doc.maybe_rebalance t.sharded : bool)
    | _, _ -> ())

let apply t line =
  (match String.split_on_char ' ' line with
   | cmd :: _ when not (String.equal cmd "") ->
     Span.with_ ~name:("op." ^ cmd)
       ~counters:(Labeled_doc.counters t.ldoc) (fun () -> exec t line)
   | _ -> exec t line);
  t.log <- line :: t.log

let corrupt_op = "corrupt"
let checkpoint_op = "checkpoint"
let storm_op = "storm"

(* One simulation step: a twin-tree insertion plus a document edit.
   Indices are drawn large and reduced at [exec] time, so the lines stay
   meaningful on any replayed subsequence. *)
let random_ops prng =
  let twin =
    if Prng.int prng 10 = 0 then
      Printf.sprintf "batch %d %d" (Prng.int prng 1_000_000)
        (1 + Prng.int prng 8)
    else Printf.sprintf "ins %d" (Prng.int prng 1_000_000)
  in
  let doc =
    match Prng.int prng 6 with
    | 0 -> Printf.sprintf "doc-del %d" (Prng.int prng 1_000_000)
    | 1 -> Printf.sprintf "doc-text %d" (Prng.int prng 1_000_000)
    | _ ->
      Printf.sprintf "doc-ins %d %d" (Prng.int prng 1_000_000)
        (Prng.int prng 8)
  in
  [ twin; doc ]

(* {1 Counterexamples} *)

let replay ~params ~seed ~make_doc ops =
  let t = create ~params ~seed ~make_doc () in
  List.iter (apply t) ops;
  t

let fails_after ~params ~seed ~make_doc ops =
  match Invariant.run_all (registry (replay ~params ~seed ~make_doc ops)) with
  | [] -> false
  | _ :: _ -> true

(* How a shrink ended: done, stopped at [Invariant.shrink_budget], or
   never started because a from-scratch replay of the whole log passes
   (the live failure is not a function of the log alone). *)
type shrink = Shrunk | At_budget | Not_reproduced

(* Shrink the failing log by replaying candidate subsequences from
   scratch, then rebuild the minimized end state so the dump carries its
   leaf labels.  A log that does not fail on replay is dumped whole, and
   its detail says that it does not reproduce rather than repeat the
   live failure's. *)
let minimized_counterexample t ~make_doc (failure : Invariant.failure) =
  let fails ops = fails_after ~params:t.params ~seed:t.seed ~make_doc ops in
  let ops, outcome =
    let ops = log t in
    (* [minimize] replays the whole log first and rejects one that does
       not fail. *)
    match Invariant.minimize ~fails ops with
    | { Invariant.log; at_budget } ->
      (log, if at_budget then At_budget else Shrunk)
    | exception Invalid_argument _ -> (ops, Not_reproduced)
  in
  let t' = replay ~params:t.params ~seed:t.seed ~make_doc ops in
  let detail =
    match (outcome, Invariant.run_all (registry t')) with
    | (Shrunk | At_budget), f :: _ ->
      (* Re-observed on the minimized replay, so the detail describes
         the state the dump reproduces. *)
      f.Invariant.detail
    | Not_reproduced, _ | (Shrunk | At_budget), [] ->
      Printf.sprintf
        "not reproduced: a replay of the %d-op log passes every \
         invariant; the live run reported: %s"
        (List.length ops) failure.Invariant.detail
  in
  ( {
      Invariant.Counterexample.f = t.params.Params.f;
      s = t.params.Params.s;
      seed = t.seed;
      failing = failure.Invariant.name;
      detail;
      ops;
      labels = labels t';
    },
    outcome )
