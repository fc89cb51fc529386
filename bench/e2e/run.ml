(* One run of one workload: set up, drive the seeded op stream
   closed-loop, check, and turn what was measured into named metrics. *)

module W = Workload
module Span = Ltree_obs.Span
module Accountant = Ltree_obs.Accountant
module Journal = Ltree_doc.Journal
module Labeled_doc = Ltree_doc.Labeled_doc
module Ltree = Ltree_core.Ltree

let now = W.now

(* {1 Metric catalogue}

   Every metric the bench emits, with its unit and direction.  The
   end-to-end ones come from the untraced run; the per-layer ones from
   the untraced run's timers (T) and counters (C) and from the traced
   run's spans (S).  [det] marks counters that repeat exactly for a
   workload and seed. *)

type source = E2e | Timer | Counter of { det : bool } | Traced

type metric = { name : string; unit : string; better : string; source : source }

let m ?(better = "lower") source unit name = { name; unit; better; source }
let c ?better ?(det = true) unit name = m ?better (Counter { det }) unit name

let catalogue =
  [ m E2e "s" "setup_s";
    m ~better:"higher" E2e "ops/s" "ops_per_s";
    m E2e "us" "update_p50_us";
    m E2e "us" "update_p95_us";
    m E2e "us" "query_p50_us";
    m E2e "us" "query_p99_us";
    m E2e "ms" "checkpoint_mean_ms";
    m E2e "MB" "peak_heap_mb";
    m Traced "us" "ltree.self_us_per_op";
    c "count" "ltree.relabels_per_insert";
    c "count" "ltree.splits_per_insert";
    c "count" "ltree.node_accesses_per_update";
    c "ratio" "ltree.bound_ratio";
    c "count" "ltree.bound_breaches";
    m Traced "us" "labeled_doc.self_us_per_op";
    m Timer "us" "durable_doc.apply_us_per_op";
    m Traced "us" "durable_doc.journal_self_us_per_op";
    m Timer "us" "durable_doc.checkpoint_us_per_op";
    c "count" "durable_doc.fsyncs_per_update";
    c "ratio" "durable_doc.bytes_per_user_byte";
    c "bytes" "durable_doc.snapshot_bytes";
    m Timer "us" "label_sync.flush_us_per_op";
    c "count" "label_sync.rows_per_update";
    c "count" "label_sync.page_writes_per_update";
    m Timer "us" "label_index.repair_us_per_op";
    c "count" "label_index.repairs_per_query";
    c "count" "label_index.merged_rows_per_repair";
    c "count" "label_index.full_rebuilds";
    m Timer "us" "query.plan_us_per_op";
    c "count" "query.comparisons_per_query";
    c ~better:"higher" "count" "query.results_per_query";
    c "words" "query.minor_words_per_query";
    c "count" "pager.page_reads_per_query";
    c "count" "pager.page_writes_per_update";
    c "count" "pager.resident_pages";
    m Timer "us" "session.apply_us_per_op";
    m Traced "us" "replica.apply_us_per_op";
    m Traced "us" "shipper.self_us_per_op";
    c "count" "shipper.frames_per_op";
    c "count" "replica.dup_frames";
    c "count" "replica.bad_frames";
    m Timer "us" "sharded_doc.apply_us_per_op";
    m Timer "us" "sharded_doc.query_us_per_op";
    c "count" "sharded_doc.routed_shards_per_query";
    c ~det:false "count" "pool.parallel_jobs";
    c ~det:false "count" "pool.claim_ops";
    c ~det:false "count" "pool.claim_adaptations";
    c "words" "gc.minor_words_per_op";
    c ~det:false "count" "gc.major_collections";
    m Traced "%" "obs.trace_overhead_pct";
    m Traced "us" "bench.loop_us_per_op" ]

let find_metric name = List.find_opt (fun x -> String.equal x.name name) catalogue
let is_e2e x = match x.source with E2e -> true | Timer | Counter _ | Traced -> false

(* With a pool, the main domain's share of query work (its allocations,
   and the join comparisons counted from both domains) depends on which
   domain claims which chunk. *)
let deterministic ~pooled x =
  match x.source with
  | Counter { det } ->
    det
    && not
         (pooled
         && List.mem x.name
              [ "gc.minor_words_per_op"; "query.minor_words_per_query";
                "query.comparisons_per_query" ])
  | E2e | Timer | Traced -> false

(* {1 The measured phase} *)

type spans = (string, float * int) Hashtbl.t  (* path -> total s, count *)

type phase = {
  ops : int;
  wall : float;  (** measured seconds, oracle checks excluded *)
  paused : float;  (** seconds spent in oracle checks and span drains *)
  update_lat : float array;  (** seconds, in op order *)
  query_lat : float array;
  shape_lat : float array array;  (** query latencies per shape *)
  ckpt_lat : float array;
  factor : float;  (** host slowdown, see [Host] *)
  timers : W.timers;
  counters : (string * float) list;  (** the C metrics *)
  failed : int;
  failures : string list;
  spans : spans;
  dropped : int;
}

(* Reading [Gc.minor_words] allocates the float it returns; subtract
   that floor, calibrated as in [exp_query]. *)
let minor_calibration () =
  let best = ref infinity in
  for _ = 1 to 10 do
    let a = Gc.minor_words () in
    let b = Gc.minor_words () in
    best := Float.min !best (b -. a)
  done;
  !best

let drain_every = 2_000

(* Latency samples in op order, so repeats can be paired op by op. *)
type samples = { mutable buf : float array; mutable len : int }

let samples () = { buf = Array.make 1024 0.; len = 0 }

let push s x =
  if s.len = Array.length s.buf then begin
    let bigger = Array.make (2 * s.len) 0. in
    Array.blit s.buf 0 bigger 0 s.len;
    s.buf <- bigger
  end;
  s.buf.(s.len) <- x;
  s.len <- s.len + 1

let contents s = Array.sub s.buf 0 s.len

let add_span (spans : spans) path d =
  let t, n = Option.value (Hashtbl.find_opt spans path) ~default:(0., 0) in
  Hashtbl.replace spans path (t +. d, n + 1)

(* The §3.2 bound is amortized: one insert that splits the root
   legitimately relabels the whole tree.  Judging windows of 4096 label
   slots amortize that at every tree size these workloads reach (it
   takes n / (c log2 n), about 700 slots at edit_hotspot's 200k leaves);
   the library's default of 64 is sized for the harness's small trees. *)
let accountant_window = 4096

(* Counters are read before and after every op and their deltas added
   to the op kind's total, so work done outside ops (oracle checks,
   trace drains) never reaches a counter. *)
let measure ~(spec : W.spec) ~(sut : W.sut) ~seed ~ops ~kernel_samples ~traced timers =
  let cl = W.client ~seed spec sut in
  let before = Array.make W.raw_width 0 and after = Array.make W.raw_width 0 in
  let upd = Array.make W.raw_width 0 and qry = Array.make W.raw_width 0 in
  let add acc =
    for i = 0 to W.raw_width - 1 do
      acc.(i) <- acc.(i) + after.(i) - before.(i)
    done
  in
  let acct =
    Accountant.create ~c:(Accountant.default_c ~f:8 ~s:2) ~window:accountant_window ()
  in
  let update_lat = samples () and query_lat = samples () in
  let shape_lat = Array.map (fun _ -> samples ()) W.shapes in
  let ckpt_lat = samples () in
  let updates = ref 0 and queries = ref 0 and inserts = ref 0 in
  let results = ref 0 and user_bytes = ref 0 in
  let minor_q = ref 0. and minor_all = ref 0. in
  let failed = ref 0 and failures = ref [] in
  let fail msg =
    incr failed;
    if List.length !failures < 8 then failures := msg :: !failures
  in
  let spans : spans = Hashtbl.create 64 in
  let dropped = ref 0 in
  let drain () =
    dropped := !dropped + Span.dropped ();
    List.iter
      (fun (r : Ltree_obs.Trace.record) ->
        if r.domain = 0 then add_span spans r.path r.duration)
      (Span.records ());
    Span.reset ()
  in
  let check_answer i ids =
    match sut.oracle i with
    | want ->
      if not (List.equal Int.equal (List.sort_uniq Int.compare ids) want) then
        fail (Printf.sprintf "query %s: answer differs from the oracle"
                (W.shape_xpath W.shapes.(i)))
    | exception e ->
      fail (Printf.sprintf "oracle %s raised %s" (W.shape_xpath W.shapes.(i))
              (Printexc.to_string e))
  in
  let paused = ref 0. in
  let pause f =
    let t0 = now () in
    Span.set_enabled false;
    f ();
    Span.set_enabled traced;
    paused := !paused +. (now () -. t0)
  in
  let calib = minor_calibration () in
  let kernel = ref [ Host.time () ] in
  let kernel_every = if kernel_samples = 0 then ops + 1 else max 1 (ops / kernel_samples) in
  let major0 = (Gc.quick_stat ()).Gc.major_collections in
  let start = now () in
  Span.set_enabled traced;
  for op_index = 1 to ops do
    (match W.next cl with
     | W.Query i ->
       sut.raw before;
       let mw0 = Gc.minor_words () in
       let t0 = now () in
       let r =
         match Span.with_ ~name:"bench.query" (fun () -> sut.query i) with
         | ids -> Ok ids
         | exception e -> Error e
       in
       let dt = now () -. t0 in
       let mw1 = Gc.minor_words () in
       sut.raw after;
       incr queries;
       push query_lat dt;
       push shape_lat.(i) dt;
       (match r with
        | Error e ->
          fail (Printf.sprintf "query %s raised %s" (W.shape_xpath W.shapes.(i))
                  (Printexc.to_string e))
        | Ok ids ->
          add qry;
          results := !results + List.length ids;
          let mw = mw1 -. mw0 -. calib in
          minor_q := !minor_q +. mw;
          minor_all := !minor_all +. mw;
          if !queries mod W.oracle_every = 0 then pause (fun () -> check_answer i ids))
     | op ->
       let entry = W.entry_of cl op in
       incr updates;
       let rotate = spec.checkpoint_every > 0 && !updates mod spec.checkpoint_every = 0 in
       sut.raw before;
       let mw0 = Gc.minor_words () in
       let t0 = now () in
       let r =
         match
           Span.with_ ~name:"bench.update" (fun () ->
               sut.update entry;
               match sut.checkpoint with
               | Some ckpt when rotate ->
                 let tc = now () in
                 ckpt ();
                 push ckpt_lat (now () -. tc)
               | Some _ | None -> ())
         with
         | () -> Ok ()
         | exception e -> Error e
       in
       let dt = now () -. t0 in
       let mw1 = Gc.minor_words () in
       sut.raw after;
       push update_lat dt;
       (* The session rotates inside its own apply: the whole op is
          the checkpoint's foreground stall. *)
       if rotate && Option.is_none sut.checkpoint then push ckpt_lat dt;
       (match r with
        | Error e ->
          fail (Printf.sprintf "update %s raised %s" (Journal.entry_to_line entry)
                  (Printexc.to_string e))
        | Ok () ->
          W.applied cl op;
          add upd;
          user_bytes := !user_bytes + String.length (Journal.entry_to_line entry);
          minor_all := !minor_all +. (mw1 -. mw0 -. calib);
          match op with
          | W.Insert _ ->
            incr inserts;
            Accountant.note_batch acct
              ~n:(Ltree.length (Labeled_doc.tree sut.ldoc))
              ~count:W.fragment_slots
              ~relabels:(after.(W.relabels) - before.(W.relabels))
          | W.Delete _ | W.Set_text _ | W.Query _ -> ()));
    if traced && op_index mod drain_every = 0 then pause drain;
    if op_index mod kernel_every = 0 then pause (fun () -> kernel := Host.time () :: !kernel)
  done;
  let wall = now () -. start -. !paused in
  Span.set_enabled false;
  if traced then drain ();
  let major = (Gc.quick_stat ()).Gc.major_collections - major0 in
  let f = float_of_int in
  let per a b = if b = 0 then 0. else f a /. f b in
  let both i = upd.(i) + qry.(i) in
  let slots = !inserts * W.fragment_slots in
  let relabels_per_insert = per upd.(W.relabels) slots in
  let g = sut.gauges () in
  let counters =
    [ ("ltree.relabels_per_insert", relabels_per_insert);
      ("ltree.splits_per_insert", per upd.(W.splits) slots);
      ("ltree.node_accesses_per_update", per upd.(W.node_accesses) !updates);
      ( "ltree.bound_ratio",
        relabels_per_insert
        /. Accountant.bound acct ~n:(Ltree.length (Labeled_doc.tree sut.ldoc)) );
      ("ltree.bound_breaches", f (List.length (Accountant.breaches acct)));
      ("durable_doc.fsyncs_per_update", per upd.(W.fsyncs) !updates);
      ("durable_doc.bytes_per_user_byte", per upd.(W.io_bytes) !user_bytes);
      ("durable_doc.snapshot_bytes", f g.W.snapshot_bytes);
      ("label_sync.rows_per_update", per upd.(W.sync_rows) !updates);
      ("label_sync.page_writes_per_update", per upd.(W.flush_page_writes) !updates);
      ("label_index.repairs_per_query", per qry.(W.index_repairs) !queries);
      ( "label_index.merged_rows_per_repair",
        per qry.(W.index_merged) qry.(W.index_repairs) );
      ("label_index.full_rebuilds", f (both W.index_rebuilds));
      ("query.comparisons_per_query", per qry.(W.comparisons) !queries);
      ("query.results_per_query", per !results !queries);
      ("query.minor_words_per_query", !minor_q /. f (max 1 !queries));
      ("pager.page_reads_per_query", per qry.(W.page_reads) !queries);
      ("pager.page_writes_per_update", per (both W.page_writes) !updates);
      ("pager.resident_pages", f g.W.resident_pages);
      ("shipper.frames_per_op", per (both W.frames_sent) ops);
      ("replica.dup_frames", f (both W.dup_frames));
      ("replica.bad_frames", f (both W.bad_frames));
      ("sharded_doc.routed_shards_per_query", per qry.(W.routed) !queries);
      ("pool.parallel_jobs", f (both W.parallel_jobs));
      ("pool.claim_ops", f (both W.claim_ops));
      ("pool.claim_adaptations", f (both W.claim_adaptations));
      ("gc.minor_words_per_op", !minor_all /. f (max 1 ops));
      ("gc.major_collections", f major) ]
  in
  { ops;
    wall;
    paused = !paused;
    update_lat = contents update_lat;
    query_lat = contents query_lat;
    shape_lat = Array.map contents shape_lat;
    ckpt_lat = contents ckpt_lat;
    factor = Host.factor !kernel;
    timers;
    counters;
    failed = !failed;
    failures = List.rev !failures;
    spans;
    dropped = !dropped }

(* {1 Set-up} *)

(* Build the system and warm it: one query of every shape, so every
   queried tag's index entry (or evaluator) is built before timing. *)
let setup ~smoke (spec : W.spec) =
  let timers = W.new_timers () in
  let t0 = now () in
  let sut = spec.setup ~smoke timers in
  Array.iteri (fun i _ -> ignore (sut.query i : int list)) W.shapes;
  let dt = now () -. t0 in
  Array.fill timers 0 (Array.length timers) 0.;
  (sut, timers, dt)

(* {1 Per-layer attribution from spans} *)

let parent_path p =
  match String.rindex_opt p '/' with Some i -> Some (String.sub p 0 i) | None -> None

let leaf p =
  match String.rindex_opt p '/' with
  | Some i -> String.sub p (i + 1) (String.length p - i - 1)
  | None -> p

(* path -> (total, self, count) *)
let self_times (spans : spans) =
  let self = Hashtbl.create (Hashtbl.length spans) in
  Hashtbl.iter (fun p (t, _) -> Hashtbl.replace self p t) spans;
  Hashtbl.iter
    (fun p (t, _) ->
      match parent_path p with
      | Some q when Hashtbl.mem self q -> Hashtbl.replace self q (Hashtbl.find self q -. t)
      | Some _ | None -> ())
    spans;
  Hashtbl.fold
    (fun p (t, n) acc -> (p, t, Hashtbl.find self p, n) :: acc)
    spans []
  |> List.sort (fun (a, _, _, _) (b, _, _, _) -> String.compare a b)

let prefix pre s =
  String.length s >= String.length pre
  && String.equal (String.sub s 0 (String.length pre)) pre

(* Which layer a span's self time belongs to, by its leaf name. *)
let layer_of path =
  let l = leaf path in
  let table =
    [ ("ltree.", "ltree"); ("doc.", "labeled_doc"); ("recovery.", "durable_doc");
      ("durable_doc.", "durable_doc"); ("relstore.", "label_sync");
      ("label_sync.", "label_sync"); ("label_index.", "label_index");
      ("query.", "query"); ("par_query.", "query"); ("pager.", "pager");
      ("repl.", "replica"); ("session.", "shipper"); ("sharded_doc.", "sharded_doc");
      ("bench.", "bench") ]
  in
  match List.find_opt (fun (pre, _) -> prefix pre l) table with
  | Some (_, layer) -> layer
  | None -> "other"

let flame_text stats =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "%-56s %12s %12s %9s\n" "span path" "total(us)" "self(us)" "count");
  List.iter
    (fun (p, t, s, n) ->
      let depth = List.length (String.split_on_char '/' p) - 1 in
      Buffer.add_string buf
        (Printf.sprintf "%-56s %12.0f %12.0f %9d\n"
           (String.make (2 * depth) ' ' ^ leaf p)
           (t *. 1e6) (s *. 1e6) n))
    stats;
  Buffer.contents buf

type traced = {
  metrics : (string * float) list;  (** the S metrics *)
  layers : (string * float) list;  (** self us/op per layer, incl. bench loop *)
  flame : string;
  coverage_errors : string list;
}

let analyse_trace ~untraced_ops_per_s (p : phase) =
  let stats = self_times p.spans in
  let per_op s = s *. 1e6 /. float_of_int (max 1 p.ops) /. p.factor in
  let self_of leaves =
    List.fold_left
      (fun acc (path, _, s, _) -> if List.mem (leaf path) leaves then acc +. s else acc)
      0. stats
  in
  let total_of name =
    List.fold_left
      (fun acc (path, t, _, _) -> if String.equal (leaf path) name then acc +. t else acc)
      0. stats
  in
  let top_level =
    List.fold_left
      (fun acc (path, t, _, _) -> if Option.is_none (parent_path path) then acc +. t else acc)
      0. stats
  in
  let loop = p.wall -. top_level in
  let layers = Hashtbl.create 16 in
  List.iter
    (fun (path, _, s, _) ->
      let l = layer_of path in
      Hashtbl.replace layers l (s +. Option.value (Hashtbl.find_opt layers l) ~default:0.))
    stats;
  let layer_sum = Hashtbl.fold (fun _ s acc -> acc +. s) layers 0. in
  let ops_per_s = float_of_int p.ops /. p.wall *. p.factor in
  let coverage_errors =
    (if p.dropped > 0 then [ Printf.sprintf "span ring dropped %d records" p.dropped ]
     else [])
    @ List.filter_map
        (fun (path, t, s, _) ->
          if s < -0.01 *. t then Some (Printf.sprintf "span %s: negative self time" path)
          else None)
        stats
    @
    if Float.abs (layer_sum +. loop -. p.wall) > 0.1 *. p.wall then
      [ Printf.sprintf "layer times %.3fs + loop %.3fs do not add up to %.3fs"
          layer_sum loop p.wall ]
    else []
  in
  { metrics =
      [ ("ltree.self_us_per_op", per_op (self_of [ "ltree.insert"; "ltree.insert_batch" ]));
        ( "labeled_doc.self_us_per_op",
          per_op (self_of [ "doc.insert_subtree"; "doc.delete_subtree" ]) );
        ("durable_doc.journal_self_us_per_op", per_op (self_of [ "recovery.append" ]));
        ("replica.apply_us_per_op", per_op (total_of "repl.apply"));
        ("shipper.self_us_per_op", per_op (self_of [ "session.apply" ]));
        ( "obs.trace_overhead_pct",
          (untraced_ops_per_s -. ops_per_s) /. untraced_ops_per_s *. 100. );
        ("bench.loop_us_per_op", per_op loop) ];
    layers =
      List.sort compare
        (("bench.loop", per_op loop)
        :: Hashtbl.fold (fun l s acc -> (l, per_op s) :: acc) layers []);
    flame = flame_text stats;
    coverage_errors }

(* {1 A whole run} *)

type repeat = {
  r_ops : int;
  r_wall : float;  (** measured seconds *)
  r_oracle : float;  (** seconds in oracle checks, outside [r_wall] *)
  r_factor : float;  (** host slowdown, see [Host] *)
  r_times : (string * float) list;  (** wall-time metrics in host units *)
}

type result = {
  workload : string;
  seed : int;
  trace : bool;
  attempted : int;
  failed : int;
  correct : bool;
  failures : string list;
  metrics : (string * float) list;  (** every metric computed *)
  printed : string list;  (** the names the result line carries *)
  deterministic : string list;
  layers : (string * float) list;
  flame : string;
  repeats : repeat list;
}

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a.(Array.length a / 2)

(* Nearest rank: the smallest sample with at least [p]% of the
   samples at or below it. *)
let percentile a p =
  let n = Array.length a in
  if n = 0 then 0.
  else begin
    let sorted = Array.copy a in
    Array.sort Float.compare sorted;
    let rank = int_of_float (ceil (p /. 100. *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) rank))
  end

(* The six query shapes cost very different amounts, so the median of
   the pooled latencies sits on the boundary between two shapes' cost
   bands and jumps between them.  The query median is instead each
   shape's median, geometrically averaged over the shapes. *)
let shape_median shapes =
  let logs =
    Array.to_list shapes
    |> List.filter_map (fun a -> if Array.length a = 0 then None else Some (log (percentile a 50.)))
  in
  match logs with
  | [] -> 0.
  | _ -> exp (List.fold_left ( +. ) 0. logs /. float_of_int (List.length logs))

(* The update tail is p95: edit_hotspot's slowest 1% of updates are
   rare large relabel cascades, so how many a seed draws decides its
   p99 (ten seeds spread 17-23%).  A checkpoint's stall grows with the
   snapshot as tombstones accumulate, so the median is one mid-run
   sample; the mean over the run estimates the same stall from all of
   them. *)
let latency_metrics ~update ~query ~shapes ~ckpt =
  let mean a =
    if Array.length a = 0 then 0.
    else Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a)
  in
  [ ("update_p50_us", percentile update 50. *. 1e6);
    ("update_p95_us", percentile update 95. *. 1e6);
    ("query_p50_us", shape_median shapes *. 1e6);
    ("query_p99_us", percentile query 99. *. 1e6);
    ("checkpoint_mean_ms", mean ckpt *. 1e3) ]

let throughput_metrics (p : phase) =
  let us_per_op s = s *. 1e6 /. float_of_int (max 1 p.ops) in
  ("ops_per_s", float_of_int p.ops /. p.wall)
  :: List.map
       (fun slot -> (W.slot_name slot ^ "_us_per_op", us_per_op p.timers.(W.slot_index slot)))
       W.slots

(* The wall-time metrics of one measured phase, in host units. *)
let phase_times (p : phase) =
  throughput_metrics p
  @ latency_metrics ~update:p.update_lat ~query:p.query_lat ~shapes:p.shape_lat
      ~ckpt:p.ckpt_lat

(* Reference-host units (see [Host]). *)
let normalize factor (name, v) =
  (name, if String.equal name "ops_per_s" then v *. factor else v /. factor)

let higher_is_better name =
  match find_metric name with Some x -> String.equal x.better "higher" | None -> false

(* Every run executes the seed's op stream [repeats] times, each in a
   forked child on a freshly built system.  The children start from the
   same heap and the same node-id counter, so the repeats do identical
   work with identical GC behaviour, and their counters must agree.
   Contention from other tenants only ever adds time, so each op's
   latency is the fastest of its repeats and throughput is the best
   repeat's.  Set-up time and peak heap are the medians. *)
let repeats = 3

type repeat_out = {
  phase : phase;
  setup_s : float;  (** in reference-host units *)
  peak_heap_mb : float;
  check_errors : string list;
}

let one_repeat ~smoke ~(spec : W.spec) ~seed ~ops ~traced () =
  if traced then begin
    Span.set_capacity (1 lsl 16);
    Span.reset ()
  end;
  let sut, timers, setup_dt = setup ~smoke spec in
  Gc.compact ();
  let kernel_samples = if smoke then 0 else 20 in
  let p = measure ~spec ~sut ~seed ~ops ~kernel_samples ~traced timers in
  (* Read before the checks, which recover a second copy of the store. *)
  let peak_heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6
  in
  let check_errors = sut.checks () in
  sut.release ();
  { phase = p; setup_s = setup_dt /. p.factor; peak_heap_mb; check_errors }

(* Run [f] in a forked child and return its result, marshalled back
   over a pipe.  The parent never starts a domain, so it can fork; it
   reads the whole result before reaping the child. *)
let isolated (f : unit -> repeat_out) =
  flush_all ();
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    let oc = Unix.out_channel_of_descr wr in
    let r = match f () with v -> Ok v | exception e -> Error (Printexc.to_string e) in
    Marshal.to_channel oc (r : (repeat_out, string) Stdlib.result) [];
    close_out oc;
    Unix._exit 0
  | pid ->
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    let r =
      match (Marshal.from_channel ic : (repeat_out, string) Stdlib.result) with
      | r -> r
      | exception End_of_file -> Error "the repeat's process died"
    in
    close_in ic;
    ignore (Unix.waitpid [] pid : int * Unix.process_status);
    match r with Ok v -> v | Error e -> failwith ("repeat failed: " ^ e)

let run ?(smoke = false) ~(spec : W.spec) ~seed ~seconds ~trace () =
  Span.set_enabled false;
  let n_repeats = if smoke then 1 else repeats in
  let ops =
    if smoke then spec.smoke_ops
    else max 1 (int_of_float (float_of_int spec.rate *. seconds) / n_repeats)
  in
  let one ~traced = isolated (one_repeat ~smoke ~spec ~seed ~ops ~traced) in
  let untraced = List.init n_repeats (fun _ -> one ~traced:false) in
  let phases = List.map (fun r -> r.phase) untraced in
  let first = List.hd phases in
  let times = List.map (fun p -> List.map (normalize p.factor) (throughput_metrics p)) phases in
  let best name =
    let vs = List.map (List.assoc name) times in
    if higher_is_better name then List.fold_left Float.max neg_infinity vs
    else List.fold_left Float.min infinity vs
  in
  (* The k-th sample of every repeat timed the same work, so each op's
     latency is the fastest of its repeats, and the percentiles are
     taken over those. *)
  let paired get =
    let arrays = List.map (fun p -> Array.map (fun x -> x /. p.factor) (get p)) phases in
    let n = List.fold_left (fun acc a -> min acc (Array.length a)) max_int arrays in
    Array.init n (fun i -> List.fold_left (fun acc a -> Float.min acc a.(i)) infinity arrays)
  in
  let time_metrics =
    List.map (fun (name, _) -> (name, best name)) (List.hd times)
    @ latency_metrics
        ~update:(paired (fun p -> p.update_lat))
        ~query:(paired (fun p -> p.query_lat))
        ~shapes:(Array.mapi (fun i _ -> paired (fun p -> p.shape_lat.(i))) W.shapes)
        ~ckpt:(paired (fun p -> p.ckpt_lat))
  in
  let e2e =
    ("setup_s", median (List.map (fun r -> r.setup_s) untraced))
    :: ("peak_heap_mb", median (List.map (fun r -> r.peak_heap_mb) untraced))
    :: time_metrics
  in
  let traced =
    if not trace then None
    else begin
      let r = one ~traced:true in
      let t = analyse_trace ~untraced_ops_per_s:(List.assoc "ops_per_s" e2e) r.phase in
      Some ({ t with coverage_errors = t.coverage_errors @ r.check_errors }, r.phase)
    end
  in
  let pooled = String.equal spec.name "sharded_mix" in
  let deterministic =
    List.filter_map (fun x -> if deterministic ~pooled x then Some x.name else None) catalogue
  in
  let metrics =
    e2e @ first.counters @ match traced with Some (t, _) -> t.metrics | None -> []
  in
  let all_phases = phases @ match traced with Some (_, tp) -> [ tp ] | None -> [] in
  let failed = List.fold_left (fun acc (p : phase) -> acc + p.failed) 0 all_phases in
  let attempted = List.fold_left (fun acc (p : phase) -> acc + p.ops) 0 all_phases in
  (* Identical work must count identically (spans allocate, so the
     traced repeat is left out). *)
  let drift =
    List.filter_map
      (fun name ->
        let v = List.assoc name first.counters in
        if List.for_all (fun (p : phase) -> Float.equal (List.assoc name p.counters) v) phases
        then None
        else Some (name ^ " differs between repeats of the same seed"))
      deterministic
  in
  let problems =
    List.concat_map (fun r -> r.check_errors) untraced
    @ drift
    @ (match traced with Some (t, _) -> t.coverage_errors | None -> [])
    @ List.filter_map
        (fun (name, v) ->
          if Float.is_finite v then None else Some (name ^ " is not finite"))
        metrics
    @ (if List.assoc "ltree.bound_breaches" metrics > 0. then
         [ "relabels exceeded the amortized bound" ]
       else [])
    @
    if List.assoc "label_index.full_rebuilds" metrics > 0. then
      [ "index entries were rebuilt after warm-up" ]
    else []
  in
  { workload = spec.name;
    seed;
    trace;
    attempted;
    failed;
    correct = failed = 0 && problems = [];
    failures = List.concat_map (fun (p : phase) -> p.failures) all_phases @ problems;
    metrics;
    printed =
      List.filter_map (fun x -> if is_e2e x <> trace then Some x.name else None) catalogue;
    deterministic;
    layers = (match traced with Some (t, _) -> t.layers | None -> []);
    flame = (match traced with Some (t, _) -> t.flame | None -> "");
    repeats =
      List.map
        (fun (p : phase) ->
          { r_ops = p.ops;
            r_wall = p.wall;
            r_oracle = p.paused;
            r_factor = p.factor;
            r_times = phase_times p })
        phases }

(* {1 Output} *)

let metric_json names metrics =
  Json.Obj
    (List.map
       (fun name ->
         let unit = match find_metric name with Some x -> x.unit | None -> "" in
         ( name,
           Json.Obj
             [ ("value", Json.Num (List.assoc name metrics)); ("unit", Json.Str unit) ] ))
       names)

(* The result line the benchmark contract asks for. *)
let result_line r =
  Json.to_string
    (Json.Obj
       [ ("correct", Json.Bool r.correct);
         ("attempted", Json.Num (float_of_int r.attempted));
         ("failed", Json.Num (float_of_int r.failed));
         ("metrics", metric_json r.printed r.metrics) ])

(* The full record: every metric computed, for [compare] and the
   committed trajectory. *)
let record_json r =
  Json.to_string
    (Json.Obj
       [ ("workload", Json.Str r.workload);
         ("seed", Json.Num (float_of_int r.seed));
         ("trace", Json.Num (if r.trace then 1. else 0.));
         ("cores", Json.Num (float_of_int (Domain.recommended_domain_count ())));
         ("correct", Json.Bool r.correct);
         ("attempted", Json.Num (float_of_int r.attempted));
         ("failed", Json.Num (float_of_int r.failed));
         ( "repeats",
           Json.Arr
             (List.map
                (fun x ->
                  Json.Obj
                    [ ("ops", Json.Num (float_of_int x.r_ops));
                      ("measured_s", Json.Num x.r_wall);
                      ("oracle_s", Json.Num x.r_oracle);
                      ("host_factor", Json.Num x.r_factor);
                      ( "host_times",
                        Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) x.r_times) ) ])
                r.repeats) );
         ("failures", Json.Arr (List.map (fun s -> Json.Str s) r.failures));
         ("metrics", metric_json (List.map fst r.metrics) r.metrics);
         ("deterministic", Json.Arr (List.map (fun s -> Json.Str s) r.deterministic));
         ( "layers_us_per_op",
           Json.Obj (List.map (fun (l, v) -> (l, Json.Num v)) r.layers) ) ])
