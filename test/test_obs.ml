(* Observability layer: spans, ring trace, histograms, exposition and
   the amortized-cost accountant. *)

module Counters = Ltree_metrics.Counters
module Trace = Ltree_obs.Trace
module Span = Ltree_obs.Span
module Histogram = Ltree_obs.Histogram
module Exposition = Ltree_obs.Exposition
module Accountant = Ltree_obs.Accountant
module Recorder = Ltree_obs.Recorder
module Causal = Ltree_obs.Causal
module Telemetry = Ltree_obs.Telemetry
module Json = Ltree_obs.Json

let case = Alcotest.test_case

let json =
  Alcotest.testable
    (fun ppf v -> Format.pp_print_string ppf (Json.to_string v))
    ( = )

let parse_ok text =
  match Json.parse text with
  | Ok v -> v
  | Error e -> Alcotest.failf "not JSON (%s): %s" e text

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* Other suites run instrumented code paths that append to the global
   ring, so every span test starts from a fresh private ring. *)
let fresh_ring () =
  Span.set_enabled true;
  Span.set_capacity 1024

let span_nesting () =
  fresh_ring ();
  let r =
    Span.with_ ~name:"outer" (fun () ->
        Span.with_ ~name:"inner" (fun () -> Span.event "tick");
        7)
  in
  Alcotest.(check int) "return value" 7 r;
  Span.event "after";
  match Span.records () with
  | [ tick; inner; outer; after ] ->
    Alcotest.(check int) "depth restored" 0 after.Trace.depth;
    (* Completion order: the point event first, then inner, then outer. *)
    Alcotest.(check string) "event path" "outer/inner/tick" tick.Trace.path;
    Alcotest.(check int) "event depth" 2 tick.Trace.depth;
    Alcotest.(check (float 0.)) "event duration" 0. tick.Trace.duration;
    Alcotest.(check string) "inner path" "outer/inner" inner.Trace.path;
    Alcotest.(check string) "inner name" "inner" inner.Trace.name;
    Alcotest.(check int) "inner depth" 1 inner.Trace.depth;
    Alcotest.(check string) "outer path" "outer" outer.Trace.path;
    Alcotest.(check int) "outer depth" 0 outer.Trace.depth;
    Alcotest.(check bool) "outer spans inner" true
      (outer.Trace.duration >= inner.Trace.duration)
  | rs ->
    Alcotest.failf "expected 4 records, got %d" (List.length rs)

let span_exception_unwind () =
  fresh_ring ();
  let raised =
    try
      Span.with_ ~name:"outer" (fun () ->
          Span.with_ ~name:"boom" (fun () -> failwith "lost label"))
    with Failure _ -> true
  in
  Alcotest.(check bool) "exception re-raised" true raised;
  Span.event "after";
  match Span.records () with
  | [ boom; outer; after ] ->
    Alcotest.(check string) "stack unwound" "after" after.Trace.path;
    Alcotest.(check string) "inner still recorded" "outer/boom"
      boom.Trace.path;
    Alcotest.(check bool) "error attr" true
      (List.mem_assoc "error" boom.Trace.attrs);
    Alcotest.(check bool) "outer error attr" true
      (List.mem_assoc "error" outer.Trace.attrs)
  | rs ->
    Alcotest.failf "expected 3 records, got %d" (List.length rs)

let span_counters_and_disabled () =
  fresh_ring ();
  let c = Counters.create () in
  Span.with_ ~name:"work" ~counters:c (fun () -> Counters.add_relabel c 5);
  (match Span.records () with
   | [ r ] ->
     Alcotest.(check int) "relabel delta" 5 (Trace.delta r "relabels");
     Alcotest.(check int) "absent delta is 0" 0 (Trace.delta r "no_such")
   | rs -> Alcotest.failf "expected 1 record, got %d" (List.length rs));
  Span.set_enabled false;
  let r = Span.with_ ~name:"ghost" (fun () -> Span.event "ghost2"; 3) in
  Span.set_enabled true;
  Alcotest.(check int) "disabled still runs fn" 3 r;
  Alcotest.(check int) "disabled records nothing" 1
    (List.length (Span.records ()))

(* The disabled fast paths allocate nothing: with tracing and causal
   stamping off, each call below allocates 0.0 minor words, averaged
   over 100k calls (the two [Gc.minor_words] readings vanish in the
   average; one word per call would read 1.0). *)
let disabled_paths_allocate_nothing () =
  let calls = 100_000 in
  let thunk () = () in
  let payload = "I 1 0 <a/>" in
  let per_call name f =
    f ();
    let w0 = Gc.minor_words () in
    for _ = 1 to calls do
      f ()
    done;
    let words = (Gc.minor_words () -. w0) /. float_of_int calls in
    Alcotest.(check (float 0.05)) (name ^ ": minor words per call") 0. words
  in
  Span.set_enabled false;
  Causal.set_enabled false;
  Fun.protect ~finally:(fun () -> Span.set_enabled true) @@ fun () ->
  per_call "Span.with_" (fun () -> Span.with_ ~name:"off" thunk);
  per_call "Span.event" (fun () -> Span.event "off");
  per_call "Causal.stamp" (fun () ->
      Causal.stamp Causal.Apply ~seq:1 ~payload);
  per_call "Causal.note_retry" (fun () -> Causal.note_retry ~seq:1 ~payload)

let ring_wraparound () =
  let ring = Trace.create ~capacity:3 in
  let mk i =
    { Trace.kind = "point";
      name = string_of_int i;
      path = string_of_int i;
      depth = 0;
      domain = 0;
      tick = 0;
      start = 0.;
      duration = 0.;
      deltas = [];
      attrs = [] }
  in
  for i = 1 to 5 do
    Trace.add ring (mk i)
  done;
  Alcotest.(check int) "capacity" 3 (Trace.capacity ring);
  Alcotest.(check int) "length clamped" 3 (Trace.length ring);
  Alcotest.(check int) "dropped" 2 (Trace.dropped ring);
  Alcotest.(check (list string)) "oldest-first survivors" [ "3"; "4"; "5" ]
    (List.map (fun r -> r.Trace.name) (Trace.to_list ring));
  Trace.clear ring;
  Alcotest.(check int) "cleared" 0 (Trace.length ring);
  Alcotest.(check bool) "capacity >= 1 enforced" true
    (try
       ignore (Trace.create ~capacity:0);
       false
     with Invalid_argument _ -> true)

let histogram_buckets () =
  let h =
    Histogram.create ~name:"h" ~help:"test" ~bounds:[| 1.; 2.; 4. |] ()
  in
  (* Boundary values land in their own le bucket (le is inclusive). *)
  List.iter (Histogram.add h) [ 0.5; 1.0; 1.5; 2.0; 4.0; 5.0 ];
  Alcotest.(check (array int)) "cumulative" [| 2; 4; 5; 6 |]
    (Histogram.cumulative h);
  Alcotest.(check int) "count" 6 (Histogram.count h);
  Alcotest.(check (float 1e-9)) "sum" 14.0 (Histogram.sum h);
  Alcotest.(check bool) "non-increasing bounds rejected" true
    (try
       ignore (Histogram.create ~name:"bad" ~help:"" ~bounds:[| 2.; 2. |] ());
       false
     with Invalid_argument _ -> true);
  Alcotest.(check (array (float 1e-9))) "log2 layout" [| 0.5; 1.; 2.; 4. |]
    (Histogram.log2_bounds ~start:0.5 ~count:4);
  Alcotest.(check (array (float 1e-9))) "linear layout" [| 0.; 8.; 16. |]
    (Histogram.linear_bounds ~start:0. ~step:8. ~count:3)

let histogram_int_observations () =
  let h =
    Histogram.create ~name:"h_int" ~help:"ints"
      ~labels:[ ("z", "1"); ("a", "2") ]
      ~bounds:(Histogram.linear_bounds ~start:1. ~step:1. ~count:3)
      ()
  in
  Alcotest.(check string) "name" "h_int" (Histogram.name h);
  Alcotest.(check string) "help" "ints" (Histogram.help h);
  Alcotest.(check (list (pair string string))) "labels sorted by key"
    [ ("a", "2"); ("z", "1") ]
    (Histogram.labels h);
  Alcotest.(check (array (float 0.))) "bounds" [| 1.; 2.; 3. |]
    (Histogram.bounds h);
  List.iter (fun v -> Histogram.add h (float_of_int v)) [ 0; 1; 2; 2; 7 ];
  Alcotest.(check (array int)) "int observations bucket like floats"
    [| 2; 4; 4; 5 |] (Histogram.cumulative h);
  Alcotest.(check (float 0.)) "sum" 12. (Histogram.sum h)

(* Hand-built ring entries and series for the exposition tests: the
   fold reads only the list it is given. *)
let entry ?(kind = "span") ?(duration = 0.) ?(deltas = []) ?(attrs = []) name
    =
  { Trace.kind; name; path = name; depth = 0; domain = 0; tick = 0;
    start = 0.; duration; deltas; attrs }

let test_series ?label ?(help = "demo latencies") name reads bounds =
  { Exposition.name; help; reads; bounds; label }

let exposition_golden () =
  let series =
    [ test_series "test_expose_seconds"
        [ ("probe", Exposition.Duration) ]
        [| 1.; 2. |];
      test_series ~help:"demo costs" "test_expose_cost"
        [ ("probe", Exposition.Delta "relabels");
          ("dot", Exposition.Attr "n") ]
        [| 4. |];
      test_series ~help:"never observed" "test_expose_idle"
        [ ("absent", Exposition.Duration) ]
        [| 1. |] ]
  in
  let entries =
    [ entry ~duration:0.5 ~deltas:[ ("relabels", 3) ] "probe";
      entry ~duration:1.5 "probe";
      entry ~duration:9. ~deltas:[ ("relabels", 5) ] "probe";
      (* a point feeds its attribute; one without it is skipped *)
      entry ~kind:"point" ~attrs:[ ("n", "2") ] "dot";
      entry ~kind:"point" "dot";
      entry ~duration:7. "unrelated" ]
  in
  let expected =
    String.concat "\n"
      [ "# HELP test_expose_cost demo costs";
        "# TYPE test_expose_cost histogram";
        "test_expose_cost_bucket{le=\"4\"} 3";
        "test_expose_cost_bucket{le=\"+Inf\"} 4";
        "test_expose_cost_sum 10.000000";
        "test_expose_cost_count 4";
        "# HELP test_expose_idle never observed";
        "# TYPE test_expose_idle histogram";
        "test_expose_idle_bucket{le=\"1\"} 0";
        "test_expose_idle_bucket{le=\"+Inf\"} 0";
        "test_expose_idle_sum 0.000000";
        "test_expose_idle_count 0";
        "# HELP test_expose_seconds demo latencies";
        "# TYPE test_expose_seconds histogram";
        "test_expose_seconds_bucket{le=\"1\"} 1";
        "test_expose_seconds_bucket{le=\"2\"} 2";
        "test_expose_seconds_bucket{le=\"+Inf\"} 3";
        "test_expose_seconds_sum 11.000000";
        "test_expose_seconds_count 3";
        "# HELP obs_trace_dropped_total Ring entries overwritten because \
         the event ring was full";
        "# TYPE obs_trace_dropped_total counter";
        "obs_trace_dropped_total 0";
        "" ]
  in
  Alcotest.(check string) "prometheus text format" expected
    (Exposition.expose ~series entries);
  let buf = Buffer.create 64 in
  let c = Counters.create () in
  Counters.add_relabel c 7;
  Exposition.expose_counters buf ~prefix:"t" c;
  let out = Buffer.contents buf in
  Alcotest.(check bool) "counter line" true
    (contains out "t_relabels_total 7");
  Alcotest.(check bool) "counter type" true
    (contains out "# TYPE t_relabels_total counter")

let json_escaping () =
  Alcotest.(check string) "quotes, backslashes, whitespace escapes"
    {|say \"hi\" \\ a\nb\rc\td|}
    (Json.escape "say \"hi\" \\ a\nb\rc\td");
  Alcotest.(check string) "other control bytes as \\u" {|\u0000\u001f|}
    (Json.escape "\000\031");
  Alcotest.(check string) "plain text and UTF-8 pass through" "x\xc3\xa9"
    (Json.escape "x\xc3\xa9");
  Alcotest.(check string) "objects escape keys and values"
    {|{"k": "v", "q\"": "a\nb"}|}
    (Json.to_string
       (Json.Obj [ ("k", Json.Str "v"); ("q\"", Json.Str "a\nb") ]))

(* The printer's number rule and separators are those of
   bench/e2e/json.ml; the parser inverts the printer and decodes
   [\uXXXX]. *)
let json_print_parse () =
  Alcotest.(check string) "number rule"
    "[3, -2, 0.5, 0.10000000000000001, 1e+17, 0, null, true, []]"
    (Json.to_string
       (Json.Arr
          [ Json.Num 3.; Json.Num (-2.); Json.Num 0.5; Json.Num 0.1;
            Json.Num 1e17; Json.Num Float.nan; Json.Null; Json.Bool true;
            Json.Arr [] ]));
  let v =
    Json.Obj
      [ ("a", Json.Arr [ Json.Obj [ ("b", Json.Num 1.) ]; Json.Obj [] ]);
        ("s", Json.Str "q\"\\\001\xc3\xa9") ]
  in
  Alcotest.(check string) "break_depth 2 puts depth-0 and depth-1 elements \
                           on lines"
    "{\n  \"a\": [\n    {\"b\": 1},\n    {}\n  ],\n  \"s\": \
     \"q\\\"\\\\\\u0001\xc3\xa9\"\n}"
    (Json.to_string ~break_depth:2 v);
  Alcotest.(check json) "one-line text parses back" v
    (parse_ok (Json.to_string v));
  Alcotest.(check json) "broken text parses back" v
    (parse_ok (Json.to_string ~break_depth:2 v));
  Alcotest.(check json) "\\u escapes decode to UTF-8"
    (Json.Str "\xc3\xa9/\xe2\x82\xac\xf0\x9f\x98\x80")
    (parse_ok {|"\u00e9\/\u20AC\ud83d\ude00"|});
  Alcotest.(check (option json)) "member" (Some (Json.Num 1.))
    (Json.member "b" (parse_ok {| { "a" : null , "b" : 1e0 } |}));
  List.iter
    (fun bad ->
      Alcotest.(check bool) ("rejects " ^ bad) true
        (Result.is_error (Json.parse bad)))
    [ ""; "[1,]"; "[1 2]"; "01x"; "1."; ".5"; "0x10"; "\"\001\""; "\"\\x\"";
      "\"\\u12\""; "nul"; "{\"a\" 1}"; "{1:2}"; "[] []" ]

let jsonl_roundtrip () =
  fresh_ring ();
  Span.with_ ~name:"tricky"
    ~attrs:[ ("msg", "say \"hi\"\\\nthere\ttab") ]
    (fun () -> Span.event "sub");
  let c = Counters.create () in
  Counters.add_relabel c 2;
  Span.with_ ~name:"counted" ~counters:c (fun () -> Counters.add_split c 1);
  let jsonl = Trace.to_jsonl (Span.records ()) in
  (match Trace.validate_jsonl jsonl with
   | Ok ([ _; tricky; _ ] as lines) ->
     Alcotest.(check (list (option json))) "names in completion order"
       [ Some (Json.Str "sub"); Some (Json.Str "tricky");
         Some (Json.Str "counted") ]
       (List.map (Json.member "name") lines);
     Alcotest.(check (option json)) "attr parses back exactly"
       (Some (Json.Str "say \"hi\"\\\nthere\ttab"))
       (Option.bind (Json.member "attrs" tricky) (Json.member "msg"))
   | Ok lines -> Alcotest.failf "expected 3 lines, got %d" (List.length lines)
   | Error e -> Alcotest.failf "invalid JSONL: %s" e);
  Alcotest.(check bool) "escaped quote survives" true
    (contains jsonl "say \\\"hi\\\"");
  List.iter
    (fun bad ->
      Alcotest.(check bool) ("rejects " ^ bad) true
        (match Trace.validate_jsonl bad with
         | Ok _ -> false
         | Error _ -> true))
    [ "{"; "{} trailing"; "nope"; "{\"a\":}"; "{\"a\":1,}" ]

let flamegraph_render () =
  fresh_ring ();
  for _ = 1 to 3 do
    Span.with_ ~name:"op" (fun () ->
        Span.with_ ~name:"leaf" (fun () -> ignore (Sys.opaque_identity 1)))
  done;
  let out = Trace.flamegraph (Span.records ()) in
  Alcotest.(check bool) "parent path shown" true (contains out "op");
  Alcotest.(check bool) "child indented under parent" true
    (contains out "  leaf");
  Alcotest.(check bool) "call count column" true (contains out "3")

let accountant_bound_and_storm () =
  Alcotest.(check (float 1e-9)) "default_c f=4 s=2" 13.0
    (Accountant.default_c ~f:4 ~s:2);
  Alcotest.(check (float 1e-9)) "default_c f=8 s=2" 16.5
    (Accountant.default_c ~f:8 ~s:2);
  Alcotest.(check bool) "default_c rejects s=1" true
    (try
       ignore (Accountant.default_c ~f:4 ~s:1);
       false
     with Invalid_argument _ -> true);
  (* A well-behaved workload: O(log n) relabels per insert never trips. *)
  let a = Accountant.create ~c:13.0 ~window:16 () in
  for i = 1 to 200 do
    let n = 100 + i in
    Accountant.note a ~n ~relabels:(3 + (i mod 5))
  done;
  Alcotest.(check bool) "default workload ok" true (Accountant.ok a);
  Alcotest.(check int) "insertions counted" 200 (Accountant.insertions a);
  (* Injected storm: one full window of pathological relabel counts. *)
  let b = Accountant.create ~c:13.0 ~window:16 () in
  for _ = 1 to 16 do
    Accountant.note b ~n:1000 ~relabels:100_000
  done;
  Alcotest.(check bool) "storm breaches" false (Accountant.ok b);
  (match Accountant.breaches b with
   | [ br ] ->
     Alcotest.(check int) "window start" 0 br.Accountant.window_start;
     Alcotest.(check int) "window len" 16 br.Accountant.window_len;
     Alcotest.(check (float 1e-6)) "mean" 100_000. br.Accountant.mean_relabels;
     Alcotest.(check (float 1e-6)) "bound is c*log2 n"
       (13.0 *. (log 1000. /. log 2.))
       br.Accountant.bound;
     Alcotest.(check bool) "check raises" true
       (try
          Accountant.check b;
          false
        with Accountant.Budget_exceeded br' ->
          Float.equal br'.Accountant.mean_relabels 100_000.)
   | brs -> Alcotest.failf "expected 1 breach, got %d" (List.length brs));
  Alcotest.(check bool) "breach message names the bound" true
    (contains
       (Accountant.breach_to_string (List.hd (Accountant.breaches b)))
       "bound")

let accountant_partial_windows () =
  (* note_batch spreads a batch's relabels across its insertions. *)
  let a = Accountant.create ~c:13.0 ~window:16 () in
  Accountant.note_batch a ~n:1000 ~count:16 ~relabels:(16 * 100_000);
  Alcotest.(check bool) "batched storm breaches" false (Accountant.ok a);
  (* A fragment smaller than half a window is discarded unjudged: one
     legitimately expensive insertion (e.g. a root grow relabeling O(n)
     nodes) must not breach an amortized bound on its own. *)
  let b = Accountant.create ~c:13.0 ~window:16 () in
  Accountant.note b ~n:64 ~relabels:100_000;
  Alcotest.(check bool) "small fragment discarded" true (Accountant.ok b);
  (* At half a window or more the fragment is judged on flush. *)
  let d = Accountant.create ~c:13.0 ~window:16 () in
  for _ = 1 to 8 do
    Accountant.note d ~n:64 ~relabels:100_000
  done;
  Alcotest.(check bool) "half-window fragment judged" false (Accountant.ok d)

(* End to end: the instrumented tree records spans whose relabel deltas
   satisfy the paper bound under the default accountant. *)
let instrumented_insert_accounting () =
  let module Ltree = Ltree_core.Ltree in
  let counters = Counters.create () in
  let t, leaves = Ltree.bulk_load ~counters 256 in
  fresh_ring ();
  let a = Accountant.create ~c:16.5 ~window:32 () in
  let anchor = ref leaves.(128) in
  for _ = 1 to 100 do
    let before = Counters.relabels counters in
    anchor := Ltree.insert_after t !anchor;
    Accountant.note a ~n:(Ltree.length t)
      ~relabels:(Counters.relabels counters - before)
  done;
  Alcotest.(check bool) "paper bound holds on hotspot inserts" true
    (Accountant.ok a);
  let insert_spans =
    List.filter
      (fun r -> String.equal r.Trace.name "ltree.insert")
      (Span.records ())
  in
  Alcotest.(check int) "one span per insert" 100 (List.length insert_spans);
  let total_delta =
    List.fold_left
      (fun acc r -> acc + Trace.delta r "relabels")
      0 insert_spans
  in
  Alcotest.(check int) "span deltas account for all relabels"
    (Counters.relabels counters) total_delta

(* Entries silently overwritten by a full ring must be counted and
   exposed as a Prometheus counter, whichever kind of entry (span or
   note) caused the overwrite. *)
let trace_dropped_counter () =
  Span.set_enabled true;
  Span.set_capacity 4;
  (* the counter's value, as the exposition prints it *)
  let exposed () =
    List.find_map
      (fun line ->
        match String.split_on_char ' ' line with
        | [ "obs_trace_dropped_total"; v ] -> int_of_string_opt v
        | _ -> None)
      (String.split_on_char '\n'
         (Exposition.expose ~dropped:(Span.dropped ()) (Span.entries ())))
  in
  for i = 1 to 10 do
    Span.event (string_of_int i)
  done;
  Alcotest.(check int) "ring reports the overwrites" 6 (Span.dropped ());
  Alcotest.(check (option int)) "counter tracks the span overwrites"
    (Some 6) (exposed ());
  for i = 1 to 3 do
    Span.note ~kind:"fault" (string_of_int i)
  done;
  Alcotest.(check int) "notes overwrite the same ring" 9 (Span.dropped ());
  Alcotest.(check (option int)) "counter tracks the note overwrites"
    (Some 9) (exposed ());
  let out = Exposition.expose ~dropped:9 [] in
  Alcotest.(check bool) "typed as counter" true
    (contains out "# TYPE obs_trace_dropped_total counter");
  Span.set_capacity 1024

(* A fold over a ring that overwrote entries would cover only the tail
   of the run, so [of_ring] refuses it, as [Telemetry.top] does. *)
let fold_refuses_partial_ring () =
  Span.set_enabled true;
  Span.set_capacity 4;
  Span.with_ ~name:"query.path" (fun () -> ());
  (match Exposition.of_ring () with
   | Ok [ r ] -> Alcotest.(check string) "whole ring folds" "query.path" r.name
   | Ok rs -> Alcotest.failf "expected 1 entry, got %d" (List.length rs)
   | Error e -> Alcotest.failf "whole ring refused: %s" e);
  for i = 1 to 4 do
    Span.event (string_of_int i)
  done;
  (match Exposition.of_ring () with
   | Error e ->
     Alcotest.(check bool) "names the drop count" true
       (contains e "dropped 1 entries")
   | Ok _ -> Alcotest.fail "a ring that dropped an entry was folded");
  Span.set_capacity 1024

(* Satellite: records from different domains must not interleave in the
   flamegraph — self-time subtracts only same-domain children, and a
   multi-domain trace gets per-domain sections. *)
let flamegraph_domain_sections () =
  let r ~domain ~path ~name ~depth ~duration =
    { Trace.kind = "span"; name; path; depth; domain; tick = 0; start = 0.;
      duration; deltas = []; attrs = [] }
  in
  let d0 =
    [ r ~domain:0 ~path:"op" ~name:"op" ~depth:0 ~duration:3e-6;
      r ~domain:0 ~path:"op/leaf" ~name:"leaf" ~depth:1 ~duration:1e-6 ]
  in
  let solo = Trace.flamegraph d0 in
  Alcotest.(check bool) "single-domain output has no section headers" false
    (contains solo "domain");
  let multi =
    Trace.flamegraph
      (d0
      @ [ r ~domain:1 ~path:"op" ~name:"op" ~depth:0 ~duration:5e-6;
          r ~domain:1 ~path:"op/leaf" ~name:"leaf" ~depth:1 ~duration:2e-6 ])
  in
  Alcotest.(check bool) "domain 0 section" true (contains multi "domain 0");
  Alcotest.(check bool) "domain 1 section" true (contains multi "domain 1");
  (* Domain 0's op self-time is 3-1=2.0us; domain 1's is 5-2=3.0us.  If
     aggregation pooled across domains the sections would show pooled
     values instead. *)
  Alcotest.(check bool) "per-domain self time" true
    (contains multi "2.0" && contains multi "3.0")

(* The objects of [key]'s array whose "name" starts with [prefix]. *)
let named_objects prefix key v =
  match Json.member key v with
  | Some (Json.Arr objs) ->
    List.filter
      (fun o ->
        match Json.member "name" o with
        | Some (Json.Str n) -> String.starts_with ~prefix n
        | _ -> false)
      objs
  | _ -> Alcotest.failf "no %s array" key

let expose_json_golden () =
  let series =
    [ test_series "test_json_seconds" [ ("probe", Exposition.Duration) ]
        [| 1.; 2. |] ]
  in
  let entries =
    List.map (fun duration -> entry ~duration "probe") [ 0.5; 1.5; 9. ]
  in
  let got =
    Exposition.expose_json ~series ~dropped:7
      ~extra:[ ("node", Json.Str "a") ]
      entries
  in
  let text = Json.to_string got in
  Alcotest.(check bool) "one line" false (String.contains text '\n');
  Alcotest.(check json) "the printed exposition parses back to itself" got
    (parse_ok text);
  Alcotest.(check (list string)) "top-level keys, in order"
    [ "histograms"; "counters"; "node" ]
    (match got with
     | Json.Obj fields -> List.map fst fields
     | _ -> Alcotest.fail "exposition is not an object");
  let bucket le count =
    Json.Obj [ ("le", Json.Str le); ("count", Json.Num count) ]
  in
  Alcotest.(check (list json)) "histogram objects"
    [ Json.Obj
        [ ("name", Json.Str "test_json_seconds");
          ("help", Json.Str "demo latencies"); ("count", Json.Num 3.);
          ("sum", Json.Num 11.);
          ( "buckets",
            Json.Arr [ bucket "1" 1.; bucket "2" 2.; bucket "+Inf" 3. ] )
        ] ]
    (named_objects "test_json_" "histograms" got);
  Alcotest.(check (list string)) "counter objects, as printed"
    [ {|{"name": "obs_trace_dropped_total", "help": "Ring entries overwritten because the event ring was full", "value": 7}|}
    ]
    (List.map Json.to_string (named_objects "obs_" "counters" got));
  Alcotest.(check (option json)) "extra field" (Some (Json.Str "a"))
    (Json.member "node" got)

let recorder_ring_and_bundle () =
  Span.set_capacity 4;
  Span.set_tick 0;
  Span.note ~kind:"fault" ~attrs:[ ("mode", "torn") ] "channel_inject";
  Span.set_tick 9;
  Span.note ~kind:"cell" "primary:P3/torn";
  (match Span.entries () with
   | [ a; b ] ->
     Alcotest.(check string) "kind" "fault" a.Trace.kind;
     Alcotest.(check int) "tick before set_tick" 0 a.Trace.tick;
     Alcotest.(check int) "tick follows set_tick" 9 b.Trace.tick;
     Alcotest.(check (float 0.)) "notes have no duration" 0. a.Trace.duration;
     Alcotest.(check (list (pair string string)))
       "attrs kept" [ ("mode", "torn") ] a.Trace.attrs
   | es -> Alcotest.failf "expected 2 entries, got %d" (List.length es));
  Span.set_tick 0;
  for i = 1 to 5 do
    Span.note ~kind:"exec" (string_of_int i)
  done;
  Alcotest.(check int) "ring clamps" 4 (List.length (Span.entries ()));
  Alcotest.(check int) "overwrites counted" 3 (Span.dropped ());
  let data =
    Recorder.dump ~reason:"test"
      ~attrs:[ ("cell", "probe:divergence"); ("seed", "7") ]
      ()
  in
  (match Recorder.validate data with
   | Ok n -> Alcotest.(check int) "header + 4 entries + footer" 6 n
   | Error e -> Alcotest.failf "bundle invalid: %s" e);
  (match Trace.validate_jsonl data with
   | Ok (header :: _) ->
     Alcotest.(check (option json)) "header carries the version"
       (Some (Json.Num 3.)) (Json.member "version" header)
   | _ -> Alcotest.fail "bundle does not parse");
  Alcotest.(check (option string))
    "cell attr recoverable for --only replay" (Some "probe:divergence")
    (Recorder.attr_of_bundle data "cell");
  Alcotest.(check (option string)) "seed attr" (Some "7")
    (Recorder.attr_of_bundle data "seed");
  Alcotest.(check (option string)) "absent attr" None
    (Recorder.attr_of_bundle data "nope");
  (match Recorder.validate "not a bundle\n" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "garbage validated as a bundle");
  (* A bundle that lost entry lines still parses line by line; only
     the header/footer count check catches it. *)
  let truncated =
    String.concat "\n"
      (List.filteri
         (fun i _ -> i < 2 || i > 3)
         (String.split_on_char '\n' data))
  in
  (match Recorder.validate truncated with
   | Error e ->
     Alcotest.(check bool) "names the count mismatch" true
       (contains e "entry count mismatch")
   | Ok _ -> Alcotest.fail "a bundle missing two entry lines validated");
  Span.set_capacity 1024

(* Header attributes come back from a bundle byte for byte: control
   bytes, quotes, backslashes and UTF-8 included. *)
let bundle_attrs_roundtrip () =
  let attrs =
    [ ("ctl", "a\001b"); ("quote", "say \"hi\""); ("backslash", "a\\b\\");
      ("utf8", "x\xc3\xa9"); ("space", "a\nb\tc\r") ]
  in
  let data = Recorder.dump ~reason:"attrs" ~attrs () in
  (match Recorder.validate data with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "bundle invalid: %s" e);
  List.iter
    (fun (k, v) ->
      Alcotest.(check (option string)) k (Some v)
        (Recorder.attr_of_bundle data k))
    attrs

(* The one ring: a span close is one entry next to the notes, the span
   view leaves the notes out, and a bundle prints the span once, on the
   same line [ltree trace] prints. *)
let one_ring_one_line () =
  fresh_ring ();
  Span.note ~kind:"fault" "before";
  Span.with_ ~name:"solo" (fun () -> Span.event "dot");
  Span.note ~kind:"cell" "after";
  let tags rs = List.map (fun r -> r.Trace.kind ^ ":" ^ r.Trace.name) rs in
  Alcotest.(check (list string)) "one entry per span close"
    [ "fault:before"; "point:dot"; "span:solo"; "cell:after" ]
    (tags (Span.entries ()));
  Alcotest.(check (list string)) "records hold spans and points, no notes"
    [ "point:dot"; "span:solo" ]
    (tags (Span.records ()));
  let span_line =
    match List.filter (fun r -> String.equal r.Trace.kind "span")
            (Span.records ()) with
    | [ r ] -> String.trim (Trace.to_jsonl [ r ])
    | rs -> Alcotest.failf "expected 1 span, got %d" (List.length rs)
  in
  let bundle_lines = String.split_on_char '\n' (Recorder.dump ()) in
  Alcotest.(check int) "the bundle carries the span once" 1
    (List.length
       (List.filter (fun l -> contains l {|"name": "solo"|}) bundle_lines));
  Alcotest.(check bool) "trace line = bundle entry line, byte for byte" true
    (List.mem span_line bundle_lines);
  Alcotest.(check bool) "numeric dur_us" true
    (match Json.member "dur_us" (parse_ok span_line) with
     | Some (Json.Num _) -> true
     | _ -> false)

(* Every committed BENCH_<name>.json parses as one record of the shape
   {"bench": <name>, "cores", "rows": [{"case": {...}, "metrics": {...}}]}
   with string or number parameters and numeric metrics. *)
let bench_records_shape () =
  let fields what = function
    | Some (Json.Obj (_ :: _ as kv)) -> kv
    | _ -> Alcotest.failf "%s is not a non-empty object" what
  in
  List.iter
    (fun name ->
      let file = Printf.sprintf "../BENCH_%s.json" name in
      let v = parse_ok (In_channel.with_open_bin file In_channel.input_all) in
      Alcotest.(check (list string)) (file ^ " top-level keys")
        [ "bench"; "cores"; "rows" ]
        (List.map fst (fields file (Some v)));
      Alcotest.(check (option json)) (file ^ " names its bench")
        (Some (Json.Str name)) (Json.member "bench" v);
      (match Json.member "cores" v with
       | Some (Json.Num c) when Float.is_integer c && c >= 1. -> ()
       | _ -> Alcotest.failf "%s: cores is not a positive integer" file);
      match Json.member "rows" v with
      | Some (Json.Arr (_ :: _ as rows)) ->
        List.iteri
          (fun i row ->
            let what part = Printf.sprintf "%s row %d %s" file i part in
            Alcotest.(check (list string)) (what "keys") [ "case"; "metrics" ]
              (List.map fst (fields (what "") (Some row)));
            List.iter
              (function
                | _, (Json.Str _ | Json.Num _) -> ()
                | k, _ -> Alcotest.failf "%s: %s" (what "case") k)
              (fields (what "case") (Json.member "case" row));
            List.iter
              (function
                | _, Json.Num _ -> ()
                | k, _ ->
                  Alcotest.failf "%s: %s is not a number" (what "metrics") k)
              (fields (what "metrics") (Json.member "metrics" row)))
          rows
      | _ -> Alcotest.failf "%s: rows is not a non-empty array" file)
    [ "parallel"; "query"; "recovery"; "replication"; "shard" ]

(* The dashboard row of [name] in [ltree top]'s output. *)
let top_row name =
  match Telemetry.top () with
  | Error e -> Alcotest.failf "top refused: %s" e
  | Ok out ->
    List.find_opt
      (fun line ->
        match String.split_on_char ' ' line with
        | first :: _ -> String.equal first name
        | [] -> false)
      (String.split_on_char '\n' out)

(* Gauges are notes in the one ring: each sample is a [gauge] entry at
   the sampling tick carrying an exact value, [top] folds the entries
   back per name, a ring that dropped entries makes [top] refuse, and a
   bundle dumped after sampling carries the gauge lines. *)
let telemetry_sampler () =
  fresh_ring ();
  let v = ref 0. in
  Telemetry.register ~name:"test_gauge" (fun () -> !v);
  for i = 1 to 6 do
    v := float_of_int (i + 2);
    Telemetry.sample ~now:i ()
  done;
  let gauges () =
    List.filter
      (fun r -> r.Trace.kind = "gauge" && r.Trace.name = "test_gauge")
      (Span.entries ())
  in
  Alcotest.(check (list int)) "one gauge entry per sample, at its tick"
    [ 1; 2; 3; 4; 5; 6 ]
    (List.map (fun r -> r.Trace.tick) (gauges ()));
  Alcotest.(check (list (option string))) "readings as value attributes"
    (List.map (fun s -> Some s) [ "3"; "4"; "5"; "6"; "7"; "8" ])
    (List.map (fun r -> List.assoc_opt "value" r.Trace.attrs) (gauges ()));
  (match top_row "test_gauge" with
   | Some row ->
     Alcotest.(check bool) ("latest value: " ^ row) true
       (contains row " 8.00 ");
     Alcotest.(check bool) ("range column: " ^ row) true
       (contains row "3.00..8.00");
     Alcotest.(check bool) ("trend over the readings: " ^ row) true
       (contains row "[ .-+#@]")
   | None -> Alcotest.fail "no dashboard row");
  (* A fraction reads back bit for bit; a re-registered name is polled
     through its new closure, next to the readings already in the ring. *)
  v := 1. /. 3.;
  Telemetry.sample ~now:7 ();
  Telemetry.register ~name:"test_gauge" (fun () -> 42.);
  Telemetry.sample ~now:8 ();
  (match List.rev (gauges ()) with
   | last :: third :: _ ->
     Alcotest.(check (option string)) "new closure polled" (Some "42")
       (List.assoc_opt "value" last.Trace.attrs);
     Alcotest.(check bool) "a third reads back exactly" true
       (Option.map float_of_string (List.assoc_opt "value" third.Trace.attrs)
       = Some (1. /. 3.))
   | _ -> Alcotest.fail "samples 7 and 8 missing");
  (match top_row "test_gauge" with
   | Some row ->
     Alcotest.(check bool) ("range spans the whole ring: " ^ row) true
       (contains row "0.33..42.00")
   | None -> Alcotest.fail "no dashboard row after re-register");
  let data = Recorder.dump ~reason:"test" () in
  (match Recorder.validate data with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "bundle invalid: %s" e);
  Alcotest.(check int) "the bundle carries every gauge line" 8
    (List.length
       (List.filter
          (fun l -> contains l {|"kind": "gauge"|})
          (String.split_on_char '\n' data)));
  (* A ring too small for the run: [top] fails instead of printing the
     tail as if it were the whole run. *)
  Span.set_capacity 4;
  for i = 1 to 5 do
    Telemetry.sample ~now:i ()
  done;
  (match Telemetry.top () with
   | Error e ->
     Alcotest.(check bool) ("names the drop: " ^ e) true (contains e "dropped")
   | Ok out -> Alcotest.failf "top printed a partial run:\n%s" out);
  Span.set_capacity 1024

(* The waterfall's one arithmetic claim: on every complete row (an e2e
   column that is not "-") the [+n] stage cells sum to the e2e column.
   Shared with the replication suite's end-to-end runs. *)
let waterfall_rows_telescope wf =
  match String.split_on_char '\n' wf with
  | [] -> Alcotest.fail "empty waterfall"
  | _header :: rows ->
    List.iter
      (fun row ->
        match List.filter (fun w -> w <> "") (String.split_on_char ' ' row) with
        | [] -> ()
        | [ seq; _id; _append; ship; deliver; apply; readable; _retries; e2e ]
          ->
          if e2e <> "-" then
            let delta c =
              if String.length c > 1 && c.[0] = '+' then
                int_of_string (String.sub c 1 (String.length c - 1))
              else 0
            in
            Alcotest.(check int)
              ("row " ^ seq ^ ": stage deltas sum to e2e")
              (int_of_string e2e)
              (List.fold_left (fun acc c -> acc + delta c) 0
                 [ ship; deliver; apply; readable ])
        | _ -> Alcotest.failf "malformed waterfall row: %s" row)
      rows

let causal_ids_and_stamps () =
  fresh_ring ();
  Causal.set_enabled true;
  Fun.protect ~finally:(fun () -> Causal.set_enabled false) @@ fun () ->
  let payload = "I 12 0 <patch n=\"1\">p1</patch>" in
  Causal.stamp ~tick:2 Causal.Append ~seq:3 ~payload;
  Causal.stamp ~tick:4 Causal.Ship ~seq:3 ~payload;
  Causal.stamp ~tick:9 Causal.Ship ~seq:3 ~payload;
  Causal.note_retry ~seq:3 ~payload;
  Causal.stamp ~tick:5 Causal.Deliver ~seq:3 ~payload;
  Causal.stamp ~tick:6 Causal.Apply ~seq:3 ~payload;
  Causal.stamp ~tick:7 Causal.Readable ~seq:3 ~payload;
  (* Same seq with another payload, same payload at another seq. *)
  Causal.stamp ~tick:1 Causal.Append ~seq:3 ~payload:(payload ^ "x");
  Causal.stamp ~tick:1 Causal.Append ~seq:4 ~payload;
  Causal.set_enabled false;
  Causal.stamp ~tick:8 Causal.Apply ~seq:4 ~payload;
  let causal =
    List.filter (fun r -> r.Trace.kind = "causal") (Span.entries ())
  in
  Alcotest.(check int) "one ring entry per enabled stamp" 9
    (List.length causal);
  let trs = Causal.records (Span.entries ()) in
  (match trs with
   | [ tr; other_payload; other_seq ] ->
     Alcotest.(check bool) "id fits 32 bits" true
       (tr.Causal.trace_id >= 0 && tr.Causal.trace_id <= 0xffffffff);
     Alcotest.(check bool) "payload-sensitive" true
       (tr.Causal.trace_id <> other_payload.Causal.trace_id);
     Alcotest.(check bool) "seq-sensitive" true
       (tr.Causal.trace_id <> other_seq.Causal.trace_id);
     Alcotest.(check int) "seq" 3 tr.Causal.trace_seq;
     Alcotest.(check int) "retry attributed" 1 tr.Causal.retries;
     Alcotest.(check (option int)) "retransmit keeps the first ship tick"
       (Some 4)
       (Causal.stage_tick tr Causal.Ship);
     Alcotest.(check (option int)) "readable tick" (Some 7)
       (Causal.stage_tick tr Causal.Readable);
     Alcotest.(check (option int)) "e2e" (Some 5) (Causal.e2e tr);
     Alcotest.(check (option int)) "disabled stamp is not recorded" None
       (Causal.stage_tick other_seq Causal.Apply);
     let wf = Causal.waterfall trs in
     Alcotest.(check bool) "waterfall row carries the id" true
       (contains wf (Printf.sprintf "%08x" tr.Causal.trace_id));
     waterfall_rows_telescope wf
   | trs -> Alcotest.failf "expected 3 traces, got %d" (List.length trs));
  Span.set_capacity 1024

(* A stamp without an explicit tick takes the ring's virtual-clock
   tick, and the fold reads causal entries only: spans and notes of
   other kinds interleaved in the ring, and a causal entry whose
   attributes do not parse, leave the row unchanged. *)
let causal_stamps_take_ring_tick () =
  fresh_ring ();
  Causal.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Causal.set_enabled false;
      Span.set_tick 0)
  @@ fun () ->
  let payload = "I 3 0 <a/>" in
  Span.set_tick 10;
  Causal.stamp Causal.Append ~seq:1 ~payload;
  Span.with_ ~name:"between" (fun () -> Span.note ~kind:"channel" "ship");
  Span.note ~kind:"causal" ~attrs:[ ("seq", "1"); ("id", "zz") ] "ship";
  Span.set_tick 13;
  Causal.stamp Causal.Readable ~seq:1 ~payload;
  (match Causal.records (Span.entries ()) with
   | [ tr ] ->
     Alcotest.(check (option int)) "append at the ring tick" (Some 10)
       (Causal.stage_tick tr Causal.Append);
     Alcotest.(check (option int)) "readable at the moved tick" (Some 13)
       (Causal.stage_tick tr Causal.Readable);
     Alcotest.(check (option int)) "unparseable causal entry skipped" None
       (Causal.stage_tick tr Causal.Ship);
     Alcotest.(check (option int)) "e2e" (Some 3) (Causal.e2e tr)
   | trs -> Alcotest.failf "expected 1 trace, got %d" (List.length trs));
  Span.set_capacity 1024

(* {1 Labeled histogram series} *)

let labeled_histogram_series () =
  let series =
    [ test_series ~label:"shard" ~help:"per-shard commit latency"
        "test_labeled_seconds"
        [ ("shard.commit", Exposition.Duration) ]
        [| 0.1; 1.0 |] ]
  in
  let commit shard duration =
    entry ~duration ~attrs:[ ("shard", shard) ] "shard.commit"
  in
  let entries = [ commit "2" 5.0; commit "1" 0.05 ] in
  let text = Exposition.expose ~series entries in
  Alcotest.(check bool) "series 1 bucket line" true
    (contains text "test_labeled_seconds_bucket{shard=\"1\",le=\"0.1\"} 1");
  Alcotest.(check bool) "series 2 sum line" true
    (contains text "test_labeled_seconds_sum{shard=\"2\"} 5");
  (* One HELP header for the whole metric, not one per series. *)
  let help_count =
    let needle = "# HELP test_labeled_seconds" in
    let rec go i acc =
      if i + String.length needle > String.length text then acc
      else if String.sub text i (String.length needle) = needle then
        go (i + 1) (acc + 1)
      else go (i + 1) acc
    in
    go 0 0
  in
  Alcotest.(check int) "one HELP header" 1 help_count;
  let series =
    named_objects "test_labeled_seconds" "histograms"
      (Exposition.expose_json ~series entries)
  in
  Alcotest.(check (list string)) "labels sit between help and count"
    [ "name"; "help"; "labels"; "count"; "sum"; "buckets" ]
    (match series with
     | Json.Obj fields :: _ -> List.map fst fields
     | _ -> Alcotest.fail "no labeled series");
  Alcotest.(check (list (option json))) "json carries the labels objects"
    [ Some (Json.Obj [ ("shard", Json.Str "1") ]);
      Some (Json.Obj [ ("shard", Json.Str "2") ]) ]
    (List.map (Json.member "labels") series)

let suite =
  ( "obs",
    [ case "span nesting" `Quick span_nesting;
      case "span unwind on exception" `Quick span_exception_unwind;
      case "span counters + disabled" `Quick span_counters_and_disabled;
      case "disabled paths allocate nothing" `Quick
        disabled_paths_allocate_nothing;
      case "ring wraparound" `Quick ring_wraparound;
      case "histogram buckets" `Quick histogram_buckets;
      case "histogram int observations" `Quick histogram_int_observations;
      case "exposition golden" `Quick exposition_golden;
      case "json escaping" `Quick json_escaping;
      case "json print + parse" `Quick json_print_parse;
      case "jsonl roundtrip" `Quick jsonl_roundtrip;
      case "flamegraph" `Quick flamegraph_render;
      case "accountant bound + storm" `Quick accountant_bound_and_storm;
      case "accountant partial windows" `Quick accountant_partial_windows;
      case "instrumented insert accounting" `Quick
        instrumented_insert_accounting;
      case "trace dropped counter" `Quick trace_dropped_counter;
      case "fold refuses a partial ring" `Quick fold_refuses_partial_ring;
      case "flamegraph domain sections" `Quick flamegraph_domain_sections;
      case "expose_json golden" `Quick expose_json_golden;
      case "recorder ring + bundle" `Quick recorder_ring_and_bundle;
      case "bundle attrs round-trip" `Quick bundle_attrs_roundtrip;
      case "one ring, one entry line" `Quick one_ring_one_line;
      case "BENCH_*.json share one record shape" `Quick bench_records_shape;
      case "telemetry sampler" `Quick telemetry_sampler;
      case "causal ids + stamps" `Quick causal_ids_and_stamps;
      case "causal stamps take the ring tick" `Quick
        causal_stamps_take_ring_tick;
      case "labeled histogram series" `Quick labeled_histogram_series ] )
