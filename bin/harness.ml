(* The self-check harness behind `ltree check`, the one invariant
   runner (the `trace`, `metrics` and `top` commands replay its workload
   too).

   One harness owns a full stack — labeled document, both XPath engines,
   the synced relational store, a durable and a sharded twin of the
   document, and a materialized/virtual twin pair — and registers every
   invariant the stack defines into a single [Ltree_analysis.Invariant]
   registry, so validation always means "run them all", not whichever
   subset a harness remembered.

   Mutations go through a typed operation log ([op], printed one line
   per op by [op_to_string]; indices are reduced modulo the current
   population, so any subsequence of a log stays applicable).  A failing
   run therefore replays from (params, seed, log), which is what lets
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

(* One harness operation.  The twin ops insert into the materialized/
   virtual pair after the leaf their index picks; the document ops pick
   their target among the live elements or texts by index, so they stay
   applicable on any subsequence of a log (an anchor label might not
   resolve there).  [Corrupt] and [Storm] exist to prove that an alarm
   fires. *)
type op =
  | Ins of int
  | Batch of int * int  (* after leaf [j], insert [k] leaves *)
  | Doc_del of int
  | Doc_text of int
  | Doc_ins of int * int  (* under element [i], patch [c] *)
  | Checkpoint
  | Corrupt
  | Storm

(* The one printer: one line per op, as counterexample dumps hold them. *)
let op_to_string = function
  | Ins j -> Printf.sprintf "ins %d" j
  | Batch (j, k) -> Printf.sprintf "batch %d %d" j k
  | Doc_del i -> Printf.sprintf "doc-del %d" i
  | Doc_text i -> Printf.sprintf "doc-text %d" i
  | Doc_ins (i, c) -> Printf.sprintf "doc-ins %d %d" i c
  | Checkpoint -> "checkpoint"
  | Corrupt -> "corrupt"
  | Storm -> "storm"

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
  sim : Fault.sim;  (* the durable twin's simulated disk *)
  durable : Durable_doc.t;  (* crash-safe replica fed the same entries *)
  sharded : Sharded_doc.t;
      (* K-shard twin fed the same entries; its router is
         label-identical to [ldoc] (§4.2), so shard.plans-agree compares
         its fan-out plans, as start labels, with the independent
         oracles over [ldoc] *)
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
  mutable log : op list;  (* newest first *)
}

let registry t = t.registry
let log t = List.rev t.log
let labels t = Ltree.labels t.mt
let accountant t = t.acct
let doc_counters t = Labeled_doc.counters t.ldoc

(* Gauge sources over the live stack, plus the GC ones: each
   [Telemetry.sample] writes their readings into the event ring, so
   `ltree top` shows how label width, population and the durable twin's
   sequence number move as the workload runs, and a failure bundle shows
   where they stood when an invariant broke. *)
let register_telemetry t =
  let reg name fn = Ltree_obs.Telemetry.register ~name fn in
  Ltree_obs.Telemetry.register_gc ();
  reg "doc_bits_per_label" (fun () ->
      float_of_int (Ltree.bits_per_label (Labeled_doc.tree t.ldoc)));
  reg "doc_live_tags" (fun () ->
      float_of_int (Ltree.live_length (Labeled_doc.tree t.ldoc)));
  reg "twin_leaves" (fun () -> float_of_int (Ltree.length t.mt));
  reg "durable_last_seq" (fun () ->
      float_of_int (Durable_doc.last_seq t.durable))

let queries =
  [ "site//item/name"; "//person[address/city]"; "//patch";
    "//open_auction[bidder]/itemref"; "//item/following-sibling::item";
    "//bidder/preceding-sibling::bidder[1]"; "//city/ancestor::*[2]";
    "//open_auction/following::bidder[2]" ]

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
        queries;
      (* clean entries must match their slots, not only answer right *)
      Ltree_xpath.Label_eval.check t.engine);
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
  (* The sharded twin's fan-out plans must answer what the independent
     oracles answer over the live document, in document order — one by
     one and as one batch, at the harness's pool size, across
     rebalances (the checkpoint op may split a shard), and under
     label-window restriction (windows are chosen to straddle shard
     boundaries).  The twin's router and the live document start from
     the same document and parameters and take the same entries, so by
     §4.2 their labels are identical: both answers compare as start
     labels, and a window filters the oracle's by label. *)
  (match t.pool with
  | None -> ()
  | Some pool ->
    Invariant.register reg ~name:"shard.plans-agree" ~depth:Invariant.Deep
      (fun () ->
        ignore (Label_sync.flush t.sync);
        let sd = t.sharded in
        let tags = store_tags t in
        (* An id naming no live node maps to [min_int], which no start
           label equals. *)
        let starts ldoc ids =
          List.map
            (fun id ->
              match Labeled_doc.node_by_id ldoc id with
              | Some n -> (Labeled_doc.label ldoc n).Labeled_doc.start_pos
              | None -> Stdlib.min_int)
            ids
        in
        (* Plus a one-step path per tag: the root's tag is the only
           plan that answers the root, which every shard holds a clone
           of and the merge must keep once. *)
        let cases =
          List.map
            (fun (name, plan, want) ->
              (name, plan, List.sort Int.compare (starts t.ldoc want)))
            (with_oracles t
               (plan_cases tags
               @ List.map (fun tag -> ("//" ^ tag, Query.Path [ tag ])) tags))
        in
        (* [want] ascends strictly, so equal lists also mean the sharded
           answer is in document order. *)
        let check name got want =
          let got = starts (Sharded_doc.router sd) got in
          if not (List.equal Int.equal got want) then
            Invariant.fail ~name:"shard.plans-agree"
              "%s: sharded plan found %d nodes, independent oracle %d (or \
               other start labels, or not in document order)"
              name (List.length got) (List.length want)
        in
        List.iter
          (fun (name, plan, want) ->
            check ("shard:" ^ name) (Sharded_doc.run sd pool plan) want)
          cases;
        (* One tag pair over the document's lower and upper halves (the
           whole document is the plain case above): the windows straddle
           shard boundaries, so routing must both prune shards and keep
           boundary-crossing answers exact. *)
        (match (tags, List.map snd (Labeled_doc.labeled_events t.ldoc)) with
        | a :: b :: _, (lo :: _ as labels) ->
          let name = Printf.sprintf "%s//%s" a b in
          let _, plan, want =
            List.find (fun (n, _, _) -> String.equal n name) cases
          in
          let hi = List.nth labels (List.length labels - 1)
          and mid = List.nth labels (List.length labels / 2) in
          List.iter
            (fun (lo, hi) ->
              check
                (Printf.sprintf "shard:%s within [%d,%d]" name lo hi)
                (Sharded_doc.run ~within:(lo, hi) sd pool plan)
                (List.filter (fun l -> lo <= l && l <= hi) want))
            [ (lo, mid); (mid + 1, hi) ]
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
            let got =
              Sharded_doc.batch sd pool
                (Array.map (fun (_, plan, _) -> plan) chunk)
            in
            Array.iteri
              (fun i (name, _, want) ->
                check ("shard-batch:" ^ name) got.(i) want)
              chunk;
            batches (first + size)
          end
        in
        batches 0));
  (* Recover a copy of the durable twin's files, as a crash right now
     would: nothing was lost, so recovery must find no fault and the
     recovered document must be label-identical to the live one — every
     entry the twin journaled replays to the edit the live document
     made. *)
  Invariant.register reg ~name:"recovery.roundtrip" ~depth:Invariant.Deep
    (fun () ->
      let io = Fault.sim_io (Fault.create_sim ~files:(Fault.dump t.sim) ()) in
      let faults fs = String.concat ", " (List.map Durable_doc.fault_kind fs) in
      match Durable_doc.recover ~io ~dir:"store" () with
      | Error fs ->
        Invariant.fail ~name:"recovery.roundtrip"
          "the durable twin's files do not recover: %s" (faults fs)
      | Ok ({ Durable_doc.faults = _ :: _ as fs; _ }, _) ->
        Invariant.fail ~name:"recovery.roundtrip"
          "recovering the durable twin's files reports faults: %s"
          (faults fs)
      | Ok (_, recovered) ->
        let recovered = Durable_doc.ldoc recovered in
        Labeled_doc.check recovered;
        let labels d = List.map snd (Labeled_doc.labeled_events d) in
        if not (List.equal Int.equal (labels t.ldoc) (labels recovered))
        then
          Invariant.fail ~name:"recovery.roundtrip"
            "recovering the durable twin's files diverges from the live \
             document");
  (* The durable twin's on-disk state must stay scannable/loadable, and
     its document label-identical to the live one (it is fed the same
     entries, and labels are deterministic).  These are the same
     invariants the crash matrix runs post-recovery. *)
  Matrix.register_invariants reg ~io:(Fault.sim_io t.sim)
    ~dir:"store"
    ~expected_labels:(fun () ->
      Array.of_list (List.map snd (Labeled_doc.labeled_events t.ldoc)))
    t.durable;
  (* §3.1: the observed per-insertion relabel cost must stay within the
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
      params; seed; doc; root; ldoc; engine; pager; store; sync; sim;
      durable; sharded; mt; vt;
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

let live_elements t =
  List.filter
    (fun n -> Dom.is_element n && n != t.root)
    (Dom.descendants t.root)

let live_texts t = List.filter Dom.is_text (Dom.descendants t.root)
let start_label t node = (Labeled_doc.label t.ldoc node).Labeled_doc.start_pos

(* The one write path of a document op: its entry, resolved against the
   live document, is applied to it and to both twins alike. *)
let edit t entry =
  Journal.apply_entry t.ldoc entry;
  Durable_doc.apply t.durable entry;
  Sharded_doc.apply t.sharded entry

let exec t = function
  | Ins j ->
    let m = pick t.mh j and v = pick t.vh j in
    let before = Counters.relabels (Ltree.counters t.mt) in
    t.mh <- Ltree.insert_after t.mt m :: t.mh;
    Accountant.note t.acct ~n:(Ltree.length t.mt)
      ~relabels:(Counters.relabels (Ltree.counters t.mt) - before);
    t.vh <- Virtual_ltree.insert_after t.vt v :: t.vh
  | Batch (j, k) ->
    let m = pick t.mh j and v = pick t.vh j in
    let before = Counters.relabels (Ltree.counters t.mt) in
    t.mh <- Array.to_list (Ltree.insert_batch_after t.mt m k) @ t.mh;
    Accountant.note_batch t.acct ~n:(Ltree.length t.mt) ~count:k
      ~relabels:(Counters.relabels (Ltree.counters t.mt) - before);
    t.vh <- Array.to_list (Virtual_ltree.insert_batch_after t.vt v k) @ t.vh
  | Corrupt ->
    (* An unmirrored materialized insert: legal for the tree itself, but
       it desynchronizes the twins, so twin.parity must fail. *)
    Ltree_obs.Span.note ~kind:"fault" "harness_corrupt";
    t.mh <- Ltree.insert_after t.mt (pick t.mh 0) :: t.mh
  | Storm ->
    (* A synthetic relabeling storm: one full accounting window of
       insertions each claiming relabel costs far past any c*log2 n
       budget, so obs.amortized-bound must trip.  The twins are left
       untouched — like [Corrupt], this op exists to prove the alarm
       fires. *)
    Ltree_obs.Span.note ~kind:"fault" "harness_storm";
    let n = max 2 (Ltree.length t.mt) in
    for _ = 1 to Accountant.window t.acct do
      Accountant.note t.acct ~n ~relabels:100_000
    done
  | Doc_del i -> (
    match live_elements t with
    | [] -> ()
    | es -> edit t (Journal.Delete { anchor = start_label t (pick es i) }))
  | Doc_text i -> (
    match live_texts t with
    | [] -> ()
    | ts ->
      edit t
        (Journal.Set_text
           { anchor = start_label t (pick ts i); text = "selfcheck edit" }))
  | Doc_ins (i, c) -> (
    match live_elements t with
    | [] -> ()
    | es ->
      let parent = pick es i in
      edit t
        (Journal.Insert
           { anchor = start_label t parent;
             index = c mod (Dom.child_count parent + 1);
             xml =
               Printf.sprintf "<patch n=\"%d\">p<deep><x/></deep></patch>" c
           }))
  | Checkpoint ->
    Durable_doc.checkpoint t.durable;
    Sharded_doc.checkpoint t.sharded;
    (* Density may have drifted; a split here proves the plans stay
       exact across a live rebalance. *)
    ignore (Sharded_doc.maybe_rebalance t.sharded : bool)

let span_name = function
  | Ins _ -> "op.ins"
  | Batch _ -> "op.batch"
  | Doc_del _ -> "op.doc-del"
  | Doc_text _ -> "op.doc-text"
  | Doc_ins _ -> "op.doc-ins"
  | Checkpoint -> "op.checkpoint"
  | Corrupt -> "op.corrupt"
  | Storm -> "op.storm"

let apply t op =
  Span.with_ ~name:(span_name op) ~counters:(Labeled_doc.counters t.ldoc)
    (fun () -> exec t op);
  t.log <- op :: t.log

(* One simulation step: a twin-tree insertion plus a document edit.
   Indices are drawn large and reduced at [exec] time, so the ops stay
   meaningful on any replayed subsequence.  The draw order is part of
   every seeded workload: a batch draws its size before its leaf, a
   patch insert its number before its element. *)
let random_ops prng =
  let draw n = Prng.int prng n in
  let twin =
    if draw 10 = 0 then
      let k = 1 + draw 8 in
      Batch (draw 1_000_000, k)
    else Ins (draw 1_000_000)
  in
  let doc =
    match draw 6 with
    | 0 -> Doc_del (draw 1_000_000)
    | 1 -> Doc_text (draw 1_000_000)
    | _ ->
      let c = draw 8 in
      Doc_ins (draw 1_000_000, c)
  in
  [ twin; doc ]

(* {1 Counterexamples} *)

(* A replay runs on the live run's pool, so the pooled invariants are
   registered on it too and their failures reproduce. *)
let replay ?pool ~params ~seed ~make_doc ops =
  let t = create ~params ?pool ~seed ~make_doc () in
  List.iter (apply t) ops;
  t

let fails_after ?pool ~params ~seed ~make_doc ops =
  match
    Invariant.run_all (registry (replay ?pool ~params ~seed ~make_doc ops))
  with
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
  let fails ops =
    fails_after ?pool:t.pool ~params:t.params ~seed:t.seed ~make_doc ops
  in
  let ops, outcome =
    let ops = log t in
    (* [minimize] replays the whole log first and rejects one that does
       not fail. *)
    match Invariant.minimize ~fails ops with
    | { Invariant.log; at_budget } ->
      (log, if at_budget then At_budget else Shrunk)
    | exception Invalid_argument _ -> (ops, Not_reproduced)
  in
  let t' = replay ?pool:t.pool ~params:t.params ~seed:t.seed ~make_doc ops in
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
      ops = List.map op_to_string ops;
      labels = labels t';
    },
    outcome )
