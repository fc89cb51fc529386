(* Every histogram is folded out of ring entries on demand; nothing is
   observed at the instrumentation sites.  A site whose value no span
   carries writes a traced-only point ([Span.event]) next to it. *)

type value = Duration | Delta of string | Attr of string

type series = {
  name : string;
  help : string;
  reads : (string * value) list;
  bounds : float array;
  label : string option;
}

let log2 = Histogram.log2_bounds
let linear = Histogram.linear_bounds
let shard_seconds = log2 ~start:1e-6 ~count:22

let default =
  [ { name = "query_join_comparisons";
      help = "Label comparisons per structural join query";
      (* store plans carry the delta on their span; snapshot and sharded
         plans write one "query.join" point per plan *)
      reads =
        List.map
          (fun span -> (span, Delta "comparisons"))
          [ "query.descendants"; "query.children"; "query.descendants_inl";
            "query.path" ]
        @ [ ("query.join", Attr "comparisons") ];
      bounds = log2 ~start:1. ~count:24;
      label = None };
    { name = "shard_commit_seconds";
      help = "wall time of one journaled operation on the owning shard";
      reads = [ ("shard.commit", Duration) ];
      bounds = shard_seconds;
      label = Some "shard" };
    { name = "shard_query_seconds";
      help =
        "wall time of one shard-local join task (snapshot refresh excluded)";
      reads = [ ("shard.query", Duration) ];
      bounds = shard_seconds;
      label = Some "shard" };
    { name = "shard_journal_pending";
      help = "group-commit records buffered (not yet durable) after an op";
      reads = [ ("shard.pending", Attr "pending") ];
      bounds = linear ~start:0. ~step:1. ~count:16;
      label = Some "shard" };
    { name = "repl_apply_latency_seconds";
      help = "wall time to apply one shipped record on the replica";
      reads = [ ("repl.apply", Duration) ];
      bounds = log2 ~start:1e-6 ~count:16;
      label = None };
    { name = "repl_lag_records";
      help =
        "replica lag (primary high-water mark minus applied seq), sampled \
         once per pump";
      reads = [ ("repl.lag", Attr "records") ];
      bounds = log2 ~start:1. ~count:12;
      label = None };
    { name = "repl_ship_latency_ticks";
      help = "virtual ticks between a record's first send and its ack";
      reads = [ ("repl.acked", Attr "ticks") ];
      bounds = log2 ~start:1. ~count:12;
      label = None };
    { name = "repl_send_attempts";
      help =
        "sends of one record before it was acked (1 = no retry); _count \
         doubles as the acked-record counter";
      reads = [ ("repl.acked", Attr "attempts") ];
      bounds = linear ~start:1. ~step:1. ~count:10;
      label = None };
    { name = "repl_backoff_ticks";
      help =
        "backoff delay chosen per retry; _count doubles as the retry \
         counter, _sum as total ticks spent backing off";
      reads = [ ("repl.retry", Attr "delay") ];
      bounds = log2 ~start:1. ~count:8;
      label = None };
    { name = "exec_pool_claims_per_job";
      help = "atomic claim operations on the chunk cursor per parallel job";
      reads = [ ("pool.job", Attr "claims") ];
      bounds = log2 ~start:1. ~count:12;
      label = None } ]

(* {1 The fold} *)

let read_value (r : Trace.record) = function
  | Duration -> Some r.duration
  | Delta k -> Some (float_of_int (Trace.delta r k))
  | Attr k -> Option.bind (List.assoc_opt k r.attrs) float_of_string_opt

let label_of (s : series) (r : Trace.record) =
  match s.label with
  | None -> []
  | Some k -> (
      match List.assoc_opt k r.attrs with Some v -> [ (k, v) ] | None -> [])

let render_labels labels =
  String.concat ","
    (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k v) labels)

let histograms ?(series = default) entries =
  (* entry name -> the (series, value) pairs it feeds *)
  let readers = Hashtbl.create 16 in
  List.iter
    (fun s ->
      List.iter
        (fun (entry, v) ->
          let feeds =
            Option.value ~default:[] (Hashtbl.find_opt readers entry)
          in
          Hashtbl.replace readers entry ((s, v) :: feeds))
        s.reads)
    series;
  (* (series name, labels) -> histogram; [seen] holds the names *)
  let hists = Hashtbl.create 16 and seen = Hashtbl.create 16 in
  let hist (s : series) labels =
    match Hashtbl.find_opt hists (s.name, labels) with
    | Some h -> h
    | None ->
      let h =
        Histogram.create ~name:s.name ~help:s.help ~labels ~bounds:s.bounds ()
      in
      Hashtbl.replace hists (s.name, labels) h;
      Hashtbl.replace seen s.name ();
      h
  in
  List.iter
    (fun (r : Trace.record) ->
      match Hashtbl.find_opt readers r.name with
      | None -> ()
      | Some feeds ->
        List.iter
          (fun (s, v) ->
            match read_value r v with
            | Some x -> Histogram.add (hist s (label_of s r)) x
            | None -> ())
          feeds)
    entries;
  List.iter
    (fun (s : series) ->
      if not (Hashtbl.mem seen s.name) then ignore (hist s [] : Histogram.t))
    series;
  List.sort
    (fun a b ->
      let c = String.compare (Histogram.name a) (Histogram.name b) in
      if c <> 0 then c
      else
        String.compare
          (render_labels (Histogram.labels a))
          (render_labels (Histogram.labels b)))
    (Hashtbl.fold (fun _ h acc -> h :: acc) hists [])

let of_ring () =
  match Span.dropped () with
  | n when n > 0 ->
    Error
      (Printf.sprintf
         "the event ring dropped %d entries, so the histograms would be \
          partial"
         n)
  | _ -> Ok (Span.entries ())

(* {1 Prometheus text}

   The "le" label is the bucket's inclusive upper bound; the final
   bucket is "+Inf" and equals [_count]. *)

let dropped_name = "obs_trace_dropped_total"
let dropped_help = "Ring entries overwritten because the event ring was full"

(* Render bounds compactly: integers without a trailing ".", others with
   enough digits to round-trip typical bucket layouts. *)
let le_label b =
  if Float.is_integer b && Float.compare (Float.abs b) 1e15 < 0 then
    Printf.sprintf "%.0f" b
  else Printf.sprintf "%g" b

let expose_histogram ~header buf h =
  let name = Histogram.name h in
  if header then
    Printf.bprintf buf "# HELP %s %s\n# TYPE %s histogram\n" name
      (Histogram.help h) name;
  (* Series labels precede [le] inside the braces. *)
  let lbl = render_labels (Histogram.labels h) in
  let pre = if String.length lbl = 0 then "" else lbl ^ "," in
  let suffix = if String.length lbl = 0 then "" else "{" ^ lbl ^ "}" in
  let bounds = Histogram.bounds h in
  let cumulative = Histogram.cumulative h in
  Array.iteri
    (fun i b ->
      Printf.bprintf buf "%s_bucket{%sle=\"%s\"} %d\n" name pre (le_label b)
        cumulative.(i))
    bounds;
  Printf.bprintf buf "%s_bucket{%sle=\"+Inf\"} %d\n" name pre
    cumulative.(Array.length bounds);
  Printf.bprintf buf "%s_sum%s %.6f\n" name suffix (Histogram.sum h);
  Printf.bprintf buf "%s_count%s %d\n" name suffix (Histogram.count h)

let expose_counters buf ~prefix counters =
  List.iter
    (fun (field, v) ->
      let name = Printf.sprintf "%s_%s_total" prefix field in
      Printf.bprintf buf "# TYPE %s counter\n%s %d\n" name name v)
    (Ltree_metrics.Counters.to_assoc counters)

let expose ?series ?(dropped = 0) entries =
  let buf = Buffer.create 4096 in
  (* Sorted by (name, labels): a metric's series are contiguous, so the
     HELP/TYPE header goes on the first series of each name only. *)
  let prev = ref "" in
  List.iter
    (fun h ->
      let header = not (String.equal !prev (Histogram.name h)) in
      prev := Histogram.name h;
      expose_histogram ~header buf h)
    (histograms ?series entries);
  Printf.bprintf buf "# HELP %s %s\n# TYPE %s counter\n%s %d\n" dropped_name
    dropped_help dropped_name dropped_name dropped;
  Buffer.contents buf

(* {1 JSON}

   Bucket counts are cumulative and labelled exactly like the text
   format (["le"] is the same string, ending in ["+Inf"]), so scrapers
   can treat the two as views of one model. *)

let histogram_json h =
  let int i = Json.Num (float_of_int i) in
  let bounds = Histogram.bounds h in
  let cumulative = Histogram.cumulative h in
  let nb = Array.length bounds in
  let bucket i =
    Json.Obj
      [ ("le", Json.Str (if i < nb then le_label bounds.(i) else "+Inf"));
        ("count", int cumulative.(i)) ]
  in
  Json.Obj
    ([ ("name", Json.Str (Histogram.name h));
       ("help", Json.Str (Histogram.help h)) ]
    (* A labeled series adds one "labels" object. *)
    @ (match Histogram.labels h with
      | [] -> []
      | labels ->
        [ ( "labels",
            Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) labels) ) ])
    @ [ ("count", int (Histogram.count h)); ("sum", Json.Num (Histogram.sum h));
        ("buckets", Json.Arr (List.init (nb + 1) bucket)) ])

let expose_json ?series ?(dropped = 0) ?(extra = []) entries =
  Json.Obj
    ([ ( "histograms",
         Json.Arr (List.map histogram_json (histograms ?series entries)) );
       ( "counters",
         Json.Arr
           [ Json.Obj
               [ ("name", Json.Str dropped_name);
                 ("help", Json.Str dropped_help);
                 ("value", Json.Num (float_of_int dropped)) ] ] ) ]
    @ extra)
