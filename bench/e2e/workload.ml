(* The four workloads: how each builds its system, what one update and
   one query are, which independent oracle checks the answers, and what
   the end-of-run durability checks are.  The measured loop is in
   [Run]; everything here is the system under test plus the client's
   bookkeeping. *)

open Ltree_xml
module Prng = Ltree_workload.Prng
module Zipf = Ltree_workload.Zipf
module Xml_gen = Ltree_workload.Xml_gen
module Counters = Ltree_metrics.Counters
module Params = Ltree_core.Params
module Labeled_doc = Ltree_doc.Labeled_doc
module Journal = Ltree_doc.Journal
module Pager = Ltree_relstore.Pager
module Shredder = Ltree_relstore.Shredder
module Label_sync = Ltree_relstore.Label_sync
module Label_index = Ltree_relstore.Label_index
module Query = Ltree_relstore.Query
module Fault = Ltree_recovery.Fault
module Durable_doc = Ltree_recovery.Durable_doc
module Session = Ltree_replication.Session
module Replica = Ltree_replication.Replica
module Shipper = Ltree_replication.Shipper
module Sharded_doc = Ltree_shard.Sharded_doc
module Pool = Ltree_exec.Pool
module Span = Ltree_obs.Span
module Xpath_parser = Ltree_xpath.Xpath_parser
module Dom_eval = Ltree_xpath.Dom_eval
module Label_eval = Ltree_xpath.Label_eval

(* {1 Fixed settings} *)

let params = Params.make ~f:8 ~s:2
let group_commit = 8
let rows_per_page = 16
let oracle_every = 64

(* {1 Query shapes} *)

type shape =
  | Desc of string * string
  | Child of string * string
  | Path of string list

let shapes =
  [| Desc ("item", "text"); Desc ("person", "name"); Desc ("site", "mail");
     Desc ("open_auction", "date"); Child ("mailbox", "mail");
     Path [ "site"; "item"; "mail"; "text" ] |]

let shape_tags = function Desc (a, d) | Child (a, d) -> [ a; d ] | Path t -> t

let shape_xpath = function
  | Desc (a, d) -> Printf.sprintf "//%s//%s" a d
  | Child (p, c) -> Printf.sprintf "//%s/%s" p c
  | Path tags -> "//" ^ String.concat "//" tags

let shape_asts = Array.map (fun s -> Xpath_parser.parse (shape_xpath s)) shapes

let dom_ids nodes = List.sort Int.compare (List.map Dom.id nodes)

(* {1 Bench timers}

   Wall time the bench itself measures around each public call, per
   layer.  Every timed call is also wrapped in a span of the same name,
   which is a no-op unless the traced run turned spans on. *)

type slot =
  | Durable_apply
  | Checkpoint
  | Sync_flush
  | Index_repair
  | Query_plan
  | Session_apply
  | Sharded_apply
  | Sharded_query

let slots =
  [ Durable_apply; Checkpoint; Sync_flush; Index_repair; Query_plan;
    Session_apply; Sharded_apply; Sharded_query ]

let slot_index = function
  | Durable_apply -> 0
  | Checkpoint -> 1
  | Sync_flush -> 2
  | Index_repair -> 3
  | Query_plan -> 4
  | Session_apply -> 5
  | Sharded_apply -> 6
  | Sharded_query -> 7

let slot_name = function
  | Durable_apply -> "durable_doc.apply"
  | Checkpoint -> "durable_doc.checkpoint"
  | Sync_flush -> "label_sync.flush"
  | Index_repair -> "label_index.repair"
  | Query_plan -> "query.plan"
  | Session_apply -> "session.apply"
  | Sharded_apply -> "sharded_doc.apply"
  | Sharded_query -> "sharded_doc.query"

(* Seconds on the monotonic nanosecond clock; [Unix.gettimeofday]
   only resolves microseconds, a sizeable step at a 10 us update. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type timers = float array

let new_timers () : timers = Array.make (List.length slots) 0.

let timed (timers : timers) slot f =
  let t0 = now () in
  let r = Span.with_ ~name:(slot_name slot) f in
  let i = slot_index slot in
  timers.(i) <- timers.(i) +. (now () -. t0);
  r

(* {1 Raw counters}

   Cumulative integer counters a system exposes through its public API,
   read before and after every op so the loop can attribute deltas to
   the op's kind.  One fixed layout for every workload; a counter a
   workload does not have stays 0. *)

let relabels = 0
let splits = 1
let node_accesses = 2
let page_reads = 3
let page_writes = 4
let comparisons = 5
let fsyncs = 6
let io_bytes = 7
let sync_rows = 8
let flush_page_writes = 9
let index_repairs = 10
let index_merged = 11
let index_rebuilds = 12
let frames_sent = 13
let dup_frames = 14
let bad_frames = 15
let routed = 16
let parallel_jobs = 17
let claim_ops = 18
let claim_adaptations = 19
let raw_width = 20

(* {1 The system under test} *)

type gauges = { snapshot_bytes : int; resident_pages : int }

type sut = {
  ldoc : Labeled_doc.t;
      (** the authority document: its labels address every update *)
  parents : Dom.node array;  (** insert targets, in rank order *)
  texts : Dom.node array;  (** base text nodes for set_text *)
  update : Journal.entry -> unit;
      (** one update until the store is exact again *)
  checkpoint : (unit -> unit) option;
      (** a bench-triggered checkpoint; [None] when the update path
          rotates by itself (the replication session) *)
  query : int -> int list;  (** shape index to sorted Dom ids *)
  oracle : int -> int list;
  raw : int array -> unit;  (** fill the cumulative counters *)
  gauges : unit -> gauges;  (** levels at the end of the counter window *)
  checks : unit -> string list;  (** end-of-run checks; failures *)
  release : unit -> unit;
}

(* {1 Documents} *)

let xmark ~scale = Xml_gen.xmark ~seed:7 ~scale ()

let root_of (doc : Dom.document) = Option.get doc.Dom.root

let collect root keep =
  let out = ref [] in
  Dom.iter_preorder root (fun n -> if keep n then out := n :: !out);
  Array.of_list (List.rev !out)

let named names n =
  match Dom.kind n with
  | Dom.Element tag -> List.exists (String.equal tag) names
  | Dom.Text _ | Dom.Comment _ | Dom.Pi _ -> false

let is_text n =
  match Dom.kind n with
  | Dom.Text _ -> true
  | Dom.Element _ | Dom.Comment _ | Dom.Pi _ -> false

(* Insert targets in a fixed shuffled order, so the Zipf head lands on
   parents spread over the document and is the same for every seed. *)
let shuffled arr =
  let a = Array.copy arr in
  let prng = Prng.create 7 in
  for i = Array.length a - 1 downto 1 do
    let j = Prng.int prng (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  a

(* {1 Durability helpers} *)

type io_count = {
  mutable n_fsyncs : int;
  mutable n_bytes : int;
  mutable last_snapshot : int;  (** bytes of the latest snapshot written *)
}

(* The simulated disk, with fsyncs and bytes appended or written
   counted, like the counting wrapper of [exp_recovery]. *)
let counting_io sim =
  let c = { n_fsyncs = 0; n_bytes = 0; last_snapshot = 0 } in
  let io = Fault.sim_io sim in
  ( { io with
      Fault.append_file =
        (fun p d ->
          c.n_bytes <- c.n_bytes + String.length d;
          io.Fault.append_file p d);
      write_file =
        (fun p d ->
          c.n_bytes <- c.n_bytes + String.length d;
          if Filename.check_suffix p "snapshot.tmp" then
            c.last_snapshot <- String.length d;
          io.Fault.write_file p d);
      fsync =
        (fun p ->
          c.n_fsyncs <- c.n_fsyncs + 1;
          io.Fault.fsync p) },
    c )

let labels_of ldoc =
  Array.of_list (List.map snd (Labeled_doc.labeled_events ldoc))

let same_doc a b =
  labels_of a = labels_of b
  && String.equal
       (Serializer.to_string (Labeled_doc.document a))
       (Serializer.to_string (Labeled_doc.document b))

(* Crash a copy of the disk at its current state and recover it: the
   copy must recover exactly the synced prefix; after a sync it must
   recover the live document's exact labels. *)
let crash_check ~what ~sim ~dir durable =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := (what ^ ": " ^ s) :: !errs) fmt in
  let recover () =
    let copy = Fault.create_sim ~files:(Fault.dump sim) () in
    Durable_doc.recover ~io:(Fault.sim_io copy) ~group_commit ~dir ()
  in
  let synced = Durable_doc.last_seq durable - Durable_doc.pending durable in
  (match recover () with
   | Ok (r, _) ->
     if r.Durable_doc.durable_seq <> synced then
       err "recovered seq %d, synced prefix %d" r.Durable_doc.durable_seq synced;
     if r.Durable_doc.faults <> [] then err "faults on a clean crash"
   | Error _ -> err "no snapshot generation loads");
  Durable_doc.sync durable;
  (match recover () with
   | Ok (r, recovered) ->
     if r.Durable_doc.durable_seq <> Durable_doc.last_seq durable then
       err "recovered seq %d after sync, want %d" r.Durable_doc.durable_seq
         (Durable_doc.last_seq durable);
     if not (same_doc (Durable_doc.ldoc recovered) (Durable_doc.ldoc durable))
     then err "recovered labels differ from the live document"
   | Error _ -> err "no snapshot generation loads after sync");
  !errs

let guard what f =
  match f () with
  | () -> []
  | exception e -> [ what ^ ": " ^ Printexc.to_string e ]

exception Refused of string

(* {1 Single-store workloads: edit_hotspot and query_cold}

   Durable_doc on a simulated disk, a label table shredded from the same
   document over a Pager, kept exact by Label_sync after every update,
   and queried through the public Query plans. *)

let store_sut ~scale ~capacity ~parent_tags timers =
  let doc = xmark ~scale in
  let counters = Counters.create () in
  let ldoc = Labeled_doc.of_document ~params ~counters doc in
  let sim = Fault.create_sim () in
  let io, ioc = counting_io sim in
  let durable = Durable_doc.initialize ~io ~group_commit ~dir:"store" ldoc in
  let qc = Counters.create () in
  let pager = Pager.create ~capacity qc in
  let store = Shredder.shred_label pager ~rows_per_page ldoc in
  let sync = Label_sync.create pager store ldoc in
  let rows = ref 0 and flush_writes = ref 0 in
  let update entry =
    timed timers Durable_apply (fun () -> Durable_doc.apply durable entry);
    let w0 = Counters.page_writes qc in
    let st = timed timers Sync_flush (fun () -> Label_sync.flush sync) in
    flush_writes := !flush_writes + Counters.page_writes qc - w0;
    rows :=
      !rows + st.Label_sync.rows_updated + st.Label_sync.rows_inserted
      + st.Label_sync.rows_tombstoned
  in
  let checkpoint () =
    timed timers Checkpoint (fun () ->
        Durable_doc.checkpoint durable;
        ignore (Pager.flush_dirty pager : int))
  in
  let query i =
    let shape = shapes.(i) in
    (* The lazy index repair the plan would pay first, split out so it
       is timed on its own; the plan then finds its entries clean. *)
    timed timers Index_repair (fun () ->
        List.iter
          (fun tag -> ignore (Query.tag_entry pager store tag : Label_index.entry))
          (shape_tags shape));
    timed timers Query_plan (fun () ->
        match shape with
        | Desc (anc, desc) -> Query.label_descendants pager store ~anc ~desc
        | Child (parent, child) -> Query.label_children pager store ~parent ~child
        | Path tags -> Query.label_path pager store tags)
  in
  let oracle i =
    match shapes.(i) with
    | Desc (anc, desc) -> Query.label_descendants_baseline pager store ~anc ~desc
    | Child _ | Path _ ->
      dom_ids (Dom_eval.eval (Labeled_doc.document ldoc) shape_asts.(i))
  in
  let raw r =
    r.(relabels) <- Counters.relabels counters;
    r.(splits) <- Counters.splits counters;
    r.(node_accesses) <- Counters.node_accesses counters;
    r.(page_reads) <- Counters.page_reads qc;
    r.(page_writes) <- Counters.page_writes qc;
    r.(comparisons) <- Counters.comparisons qc;
    r.(fsyncs) <- ioc.n_fsyncs;
    r.(io_bytes) <- ioc.n_bytes;
    r.(sync_rows) <- !rows;
    r.(flush_page_writes) <- !flush_writes;
    let s = Query.index_stats store in
    r.(index_repairs) <- s.Label_index.repairs;
    r.(index_merged) <- s.Label_index.merged_rows;
    r.(index_rebuilds) <- s.Label_index.full_rebuilds
  in
  let gauges () =
    { snapshot_bytes = ioc.last_snapshot; resident_pages = Pager.resident pager }
  in
  let checks () =
    guard "label_sync.check" (fun () -> Label_sync.check sync)
    @ guard "labeled_doc.check" (fun () -> Labeled_doc.check ldoc)
    @ crash_check ~what:"store" ~sim ~dir:"store" durable
  in
  let root = root_of doc in
  { ldoc;
    parents = shuffled (collect root (named parent_tags));
    texts = collect root is_text;
    update;
    checkpoint = Some checkpoint;
    query;
    oracle;
    raw;
    gauges;
    checks;
    release = ignore }

(* {1 replicated_edit}

   A primary and a replica wired by a Session over ideal channels; the
   updates go through Session.apply, the reads are lag-bounded
   Replica.read calls answered by the label-based XPath evaluator over
   the replica's own document. *)

let max_lag = 64
let session_checkpoint_every = 512

let session_sut ~scale timers =
  let doc = xmark ~scale in
  let counters = Counters.create () in
  let ldoc = Labeled_doc.of_document ~params ~counters doc in
  let psim = Fault.create_sim () and rsim = Fault.create_sim () in
  let pio, ioc = counting_io psim in
  let config =
    { Session.default_config with
      Session.group_commit;
      replica_group_commit = group_commit;
      checkpoint_every = session_checkpoint_every }
  in
  let session =
    Session.create ~config ~primary_io:pio ~primary_dir:"primary"
      ~replica_io:(Fault.sim_io rsim) ~replica_dir:"replica" ldoc
  in
  (* One evaluator per replica document, refreshed when its labels move. *)
  let evaluator = ref None in
  let eval_on rdoc ast =
    let ev =
      match !evaluator with
      | Some (d, v, ev) when d == rdoc && v = Labeled_doc.version rdoc -> ev
      | Some (d, _, ev) when d == rdoc ->
        Label_eval.refresh ev;
        evaluator := Some (d, Labeled_doc.version rdoc, ev);
        ev
      | Some _ | None ->
        let ev = Label_eval.create rdoc in
        evaluator := Some (rdoc, Labeled_doc.version rdoc, ev);
        ev
    in
    dom_ids (Label_eval.eval ev ast)
  in
  let read f =
    match Replica.read ~max_lag (Session.replica session) f with
    | Ok v -> v
    | Error e -> raise (Refused (Format.asprintf "%a" Replica.pp_error e))
  in
  let update entry =
    timed timers Session_apply (fun () -> Session.apply session entry)
  in
  let query i =
    timed timers Query_plan (fun () -> read (fun rdoc -> eval_on rdoc shape_asts.(i)))
  in
  let oracle i =
    read (fun rdoc -> dom_ids (Dom_eval.eval (Labeled_doc.document rdoc) shape_asts.(i)))
  in
  let raw r =
    r.(relabels) <- Counters.relabels counters;
    r.(splits) <- Counters.splits counters;
    r.(node_accesses) <- Counters.node_accesses counters;
    r.(fsyncs) <- ioc.n_fsyncs;
    r.(io_bytes) <- ioc.n_bytes;
    r.(frames_sent) <- (Shipper.stats (Session.shipper session)).Shipper.frames_sent;
    let rs = Replica.stats (Session.replica session) in
    r.(dup_frames) <- rs.Replica.dup_frames;
    r.(bad_frames) <- rs.Replica.bad_frames
  in
  let gauges () = { snapshot_bytes = ioc.last_snapshot; resident_pages = 0 } in
  let checks () =
    let primary = Session.primary session in
    let quiesced = Session.quiesce ~max_pumps:100_000 session in
    let replica_errs =
      if not quiesced then [ "session: replica did not catch up" ]
      else
        match Replica.store (Session.replica session) with
        | None -> [ "session: replica not bootstrapped" ]
        | Some rs ->
          if same_doc (Durable_doc.ldoc rs) (Durable_doc.ldoc primary) then []
          else [ "session: replica labels differ from primary labels" ]
    in
    (* Duplicates are re-sends the replica re-acks; on an ideal channel
       only a damaged frame would be a fault. *)
    let frame_errs =
      if (Replica.stats (Session.replica session)).Replica.bad_frames > 0 then
        [ "replica: bad frames on an ideal channel" ]
      else []
    in
    replica_errs @ frame_errs
    @ guard "labeled_doc.check" (fun () -> Labeled_doc.check ldoc)
    @ crash_check ~what:"primary" ~sim:psim ~dir:"primary" primary
  in
  let root = root_of doc in
  { ldoc;
    parents = shuffled (collect root (named [ "item" ]));
    texts = collect root is_text;
    update;
    checkpoint = None;
    query;
    oracle;
    raw;
    gauges;
    checks;
    release = ignore }

(* {1 sharded_mix}

   A corpus of sites split into K label-interval shards; queries fan
   out over the pool, updates route to their owning shard. *)

let shards = 4
let pool_size = 2

let corpus ~sites ~scale =
  let root = Dom.element "corpus" in
  for i = 0 to sites - 1 do
    Dom.append_child root (root_of (Xml_gen.xmark ~seed:i ~scale ()))
  done;
  Dom.document root

let sharded_sut ~sites ~scale timers =
  let doc = corpus ~sites ~scale in
  let sims = Array.init shards (fun _ -> Fault.create_sim ()) in
  let sd =
    Sharded_doc.create ~params ~group_commit ~sim_for:(fun p -> sims.(p))
      ~shards doc
  in
  let router = Sharded_doc.router sd in
  let counters = Labeled_doc.counters router in
  let pool = Pool.create ~size:pool_size in
  let qc = Counters.create () in
  let n_routed = ref 0 in
  let update entry =
    timed timers Sharded_apply (fun () -> Sharded_doc.apply sd entry)
  in
  let checkpoint () =
    timed timers Checkpoint (fun () -> Sharded_doc.checkpoint sd)
  in
  let query i =
    n_routed := !n_routed + List.length (Sharded_doc.routed sd);
    timed timers Sharded_query (fun () ->
        match shapes.(i) with
        | Desc (anc, desc) -> Sharded_doc.descendants ~counters:qc sd pool ~anc ~desc
        | Child (parent, child) ->
          Sharded_doc.children ~counters:qc sd pool ~parent ~child
        | Path tags -> Sharded_doc.path ~counters:qc sd pool tags)
  in
  let oracle i =
    match shapes.(i) with
    | Desc (anc, desc) -> Sharded_doc.unsharded_descendants sd pool ~anc ~desc
    | Child (parent, child) ->
      Sharded_doc.unsharded_children sd pool ~parent ~child
    | Path tags -> Sharded_doc.unsharded_path sd pool tags
  in
  let raw r =
    r.(relabels) <- Counters.relabels counters;
    r.(splits) <- Counters.splits counters;
    r.(node_accesses) <- Counters.node_accesses counters;
    r.(comparisons) <- Counters.comparisons qc;
    r.(routed) <- !n_routed;
    let ps = Pool.stats pool in
    r.(parallel_jobs) <- ps.Pool.parallel_jobs;
    r.(claim_ops) <- ps.Pool.claim_ops;
    r.(claim_adaptations) <- ps.Pool.claim_adaptations
  in
  let gauges () =
    let snapshot_bytes =
      Array.fold_left
        (fun acc sim ->
          match List.assoc_opt "store/snapshot" (Fault.dump sim) with
          | Some s -> acc + String.length s
          | None -> acc)
        0 sims
    in
    { snapshot_bytes; resident_pages = 0 }
  in
  let checks () =
    guard "labeled_doc.check router" (fun () -> Labeled_doc.check router)
    @ List.concat
        (List.init (Sharded_doc.nshards sd) (fun p ->
             let what = Printf.sprintf "shard %d" p in
             guard (what ^ " labeled_doc.check") (fun () ->
                 Labeled_doc.check (Sharded_doc.shard_ldoc sd p))
             @ crash_check ~what ~sim:(Sharded_doc.shard_sim sd p) ~dir:"store"
                 (Sharded_doc.shard_durable sd p)))
  in
  let root = root_of doc in
  { ldoc = router;
    parents = collect root (named [ "item"; "person" ]);
    texts = collect root is_text;
    update;
    checkpoint = Some checkpoint;
    query;
    oracle;
    raw;
    gauges;
    checks;
    release = (fun () -> Pool.shutdown pool) }

(* {1 The workload table} *)

(* Why each workload is here is in BENCHMARK.json and README.md. *)
type spec = {
  name : string;
  query_pct : int;  (** share of ops that are queries *)
  zipf : float option;  (** parent skew; [None] is uniform *)
  checkpoint_every : int;  (** updates between checkpoints *)
  rate : int;
      (** ops per second of [--seconds]: a run is [rate * seconds] ops,
          so a seed always gets the same work; sized to take about that
          long on a 2-core box *)
  smoke_ops : int;
  setup : smoke:bool -> timers -> sut;
}

let specs =
  [ { name = "edit_hotspot";
      query_pct = 10;
      zipf = Some 1.2;
      checkpoint_every = 4_000;
      rate = 13_000;
      smoke_ops = 600;
      setup =
        (fun ~smoke:_ timers ->
          store_sut ~scale:4. ~capacity:65_536
            ~parent_tags:[ "item"; "person" ] timers) };
    { name = "query_cold";
      query_pct = 95;
      zipf = None;
      checkpoint_every = 5;
      rate = 280;
      smoke_ops = 40;
      setup =
        (fun ~smoke timers ->
          store_sut ~scale:(if smoke then 2. else 16.) ~capacity:512
            ~parent_tags:[ "item"; "person" ] timers) };
    { name = "replicated_edit";
      query_pct = 10;
      zipf = Some 0.8;
      checkpoint_every = session_checkpoint_every;
      rate = 1_700;
      smoke_ops = 300;
      setup =
        (fun ~smoke:_ timers -> session_sut ~scale:4. timers) };
    { name = "sharded_mix";
      query_pct = 90;
      zipf = None;
      checkpoint_every = 40;
      rate = 2_000;
      smoke_ops = 200;
      setup =
        (fun ~smoke timers ->
          sharded_sut ~sites:(if smoke then 8 else 64) ~scale:0.25 timers) } ]

let find_spec name = List.find_opt (fun s -> String.equal s.name name) specs

(* {1 The client: seeded op stream}

   The client draws each op from the seed, then addresses it by the
   current label of the node it chose — labels move under relabeling,
   so the entry is built at op time.  Inserted fragments are tracked so
   deletes only ever remove a previously inserted one. *)

type op =
  | Query of int  (** shape index *)
  | Insert of { parent : Dom.node; index : int; xml : string }
  | Delete of int  (** position in the live-fragment table *)
  | Set_text of { node : Dom.node; text : string }

type client = {
  prng : Prng.t;
  spec : spec;
  sut : sut;
  zipf_t : Zipf.t option;
  mutable queries : int;
  mutable frags : Dom.node array;
  mutable nfrags : int;
}

let names = [| "Ada"; "Grace"; "Edsger"; "Barbara"; "Donald"; "Leslie"; "Tony"; "Alan" |]
let words = [| "auction"; "vintage"; "rare"; "lot"; "bid"; "mint"; "boxed"; "signed" |]

let sentence prng =
  String.concat " " (List.init (2 + Prng.int prng 4) (fun _ -> Prng.pick prng words))

let client ~seed spec sut =
  { prng = Prng.create seed;
    spec;
    sut;
    zipf_t =
      Option.map
        (fun alpha -> Zipf.create ~n:(Array.length sut.parents) ~alpha)
        spec.zipf;
    queries = 0;
    frags = Array.make 1024 (Dom.text "");
    nfrags = 0 }

(* [<mail><from/><to/><text/></mail>], each with text: 11 label slots. *)
let fragment prng =
  Printf.sprintf "<mail><from>%s</from><to>%s</to><text>%s</text></mail>"
    (Prng.pick prng names) (Prng.pick prng names) (sentence prng)

let live_target = 64

let fragment_slots = Dom.event_count (Parser.parse_fragment (fragment (Prng.create 0)))

let next c =
  let p = c.prng in
  if Prng.int p 100 < c.spec.query_pct then begin
    (* Shapes cycle, so every run has the same query mix. *)
    c.queries <- c.queries + 1;
    Query (c.queries mod Array.length shapes)
  end
  else
    let insert () =
      let parent =
        match c.zipf_t with
        | Some z -> c.sut.parents.(Zipf.sample z p)
        | None -> Prng.pick p c.sut.parents
      in
      Insert
        { parent; index = Prng.int p (Dom.child_count parent + 1); xml = fragment p }
    in
    (* 80% insert or delete, 20% set_text.  Insert wins with chance
       [live_target / (live_target + live)]: even at the target, and
       mean-reverting, so the document keeps the same size on every
       seed instead of random-walking. *)
    if Prng.int p 10 < 8 then
      if Prng.int p (live_target + c.nfrags) < live_target then insert ()
      else Delete (Prng.int p c.nfrags)
    else Set_text { node = Prng.pick p c.sut.texts; text = sentence p }

let anchor c node = (Labeled_doc.label c.sut.ldoc node).Labeled_doc.start_pos

let entry_of c = function
  | Insert { parent; index; xml } -> Journal.Insert { anchor = anchor c parent; index; xml }
  | Delete i -> Journal.Delete { anchor = anchor c c.frags.(i) }
  | Set_text { node; text } -> Journal.Set_text { anchor = anchor c node; text }
  | Query _ -> invalid_arg "entry_of: query"

(* Client bookkeeping after an update was applied. *)
let applied c = function
  | Insert { parent; index; _ } ->
    if c.nfrags = Array.length c.frags then begin
      let bigger = Array.make (2 * c.nfrags) c.frags.(0) in
      Array.blit c.frags 0 bigger 0 c.nfrags;
      c.frags <- bigger
    end;
    c.frags.(c.nfrags) <- List.nth (Dom.children parent) index;
    c.nfrags <- c.nfrags + 1
  | Delete i ->
    c.nfrags <- c.nfrags - 1;
    c.frags.(i) <- c.frags.(c.nfrags)
  | Set_text _ | Query _ -> ()
