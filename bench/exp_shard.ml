(* Sharding experiment: batched structural joins fanned over K subtree
   shards, for K in 1/2/4 at pool sizes 1/2/4, on a hotspot and a
   uniform document.

   Per (pattern, K): build a site/item document with [n] items inserted
   at pattern-chosen positions (hotspot concentrates the mass in the
   middle top-level subtrees, which is exactly the skew the rebalancer
   exists for), shard it with {!Sharded_doc.create}, then time a fixed
   batch of descendant queries through [Sharded_doc.batch]
   at every pool size.  Every sharded result is first checked
   element-for-element against the unsharded reference plans over the
   router's own store, so the numbers can't come from a wrong answer.

   Reported per row: throughput (queries/s over all reps), p99 of the
   per-batch wall time, and speedup.  Speedup is best-of-reps sharded
   throughput over the mean throughput of the (K=1, 1-domain) baseline
   of the same pattern — best-vs-mean so scheduler jitter on loaded CI
   boxes doesn't mask a real win.  Wall clock is [Unix.gettimeofday];
   [Sys.time] sums CPU across domains and would hide every speedup.

   The headline assertion (hotspot, K >= 4, 4 domains: >= 2x) binds
   only when [Domain.recommended_domain_count () >= 4]; on smaller
   boxes the binding check is instead that sharding itself is not a
   regression: hotspot K >= 4 on one domain must stay >= 1.0x.  The
   JSON carries the core count so readers can tell which bound held. *)

open Ltree_xml
module Table = Ltree_metrics.Table
module Labeled_doc = Ltree_doc.Labeled_doc
module Driver = Ltree_workload.Driver
module Prng = Ltree_workload.Prng
module Params = Ltree_core.Params
module Pool = Ltree_exec.Pool
module Sharded_doc = Ltree_shard.Sharded_doc
module Query = Ltree_relstore.Query

let initial_items = 64

type row = {
  pattern : string;
  n : int;
  shards : int;
  domains : int;
  batch : int;  (* queries per batch *)
  reps : int;
  wall_ms : float;  (* total wall time across reps *)
  queries_per_s : float;  (* mean over all reps *)
  best_queries_per_s : float;  (* from the fastest rep *)
  p99_batch_ms : float;  (* p99 of per-batch wall time *)
  speedup : float;
      (* best-of-reps throughput vs the mean throughput of the
         (shards=1, domains=1) row of the same pattern *)
}

let item () =
  let it = Dom.element "item" in
  Dom.append_child it (Dom.element "name");
  it

let insert_index prng (pattern : Driver.pattern) count =
  match pattern with
  | Driver.Append -> count
  | Driver.Prepend -> 0
  | Driver.Uniform -> Prng.int prng (count + 1)
  | Driver.Hotspot -> count / 2

(* The document is grown through a throwaway labeling (so hotspot /
   uniform place inserts exactly as the other experiments do), then the
   underlying Dom document is handed to [Sharded_doc.create], which
   labels the router twin and the shard clones itself. *)
let build_doc ~n pattern =
  let prng = Prng.create (0xd0 + Hashtbl.hash (Driver.pattern_name pattern)) in
  let root = Dom.element "site" in
  for _ = 1 to initial_items do
    Dom.append_child root (item ())
  done;
  let doc = Dom.document root in
  let ldoc = Labeled_doc.of_document ~params:Params.fig2 doc in
  let count = ref initial_items in
  for _ = 1 to n do
    Labeled_doc.insert_subtree ldoc ~parent:root
      ~index:(insert_index prng pattern !count)
      (item ());
    incr count
  done;
  Labeled_doc.document ldoc

let query_pairs = [| ("site", "name"); ("site", "item"); ("item", "name") |]

let percentile q sorted =
  let len = Array.length sorted in
  sorted.(int_of_float (q *. float_of_int (len - 1)))

(* One (pattern, K) cell: correctness against the unsharded reference
   plans once per pool size, then the timed reps. *)
let run_cell ~pattern ~n ~shards ~domains_list ~batchq ~reps =
  let sd = Sharded_doc.create ~params:Params.fig2 ~shards (build_doc ~n pattern) in
  let batch =
    Array.init batchq (fun i ->
        let anc, desc = query_pairs.(i mod Array.length query_pairs) in
        Query.Descendants (anc, desc))
  in
  List.map
    (fun domains ->
      Pool.with_pool ~size:domains (fun pool ->
          let expected = Sharded_doc.unsharded_batch sd pool batch in
          let got = Sharded_doc.batch sd pool batch in
          Array.iteri
            (fun i e ->
              if not (List.equal Int.equal e got.(i)) then
                failwith
                  (Printf.sprintf
                     "exp_shard: %s n=%d shards=%d domains=%d batch[%d] \
                      disagrees with the unsharded plan"
                     (Driver.pattern_name pattern) n shards domains i))
            expected;
          let times = Array.make reps 0.0 in
          for r = 0 to reps - 1 do
            let t0 = Unix.gettimeofday () in
            ignore (Sharded_doc.batch sd pool batch);
            times.(r) <- Unix.gettimeofday () -. t0
          done;
          let wall = Array.fold_left ( +. ) 0.0 times in
          let best = Array.fold_left Float.min infinity times in
          Array.sort Float.compare times;
          { pattern = Driver.pattern_name pattern;
            n;
            shards;
            domains;
            batch = batchq;
            reps;
            wall_ms = wall *. 1e3;
            queries_per_s = float_of_int (batchq * reps) /. Float.max 1e-9 wall;
            best_queries_per_s =
              float_of_int batchq /. Float.max 1e-9 best;
            p99_batch_ms = percentile 0.99 times *. 1e3;
            speedup = 0.0 (* filled in once the baseline row is known *) }))
    domains_list

let with_speedups rows =
  let baseline pat =
    match
      List.find_opt (fun r -> r.pattern = pat && r.shards = 1 && r.domains = 1)
        rows
    with
    | Some b -> b.queries_per_s
    | None -> nan
  in
  List.map
    (fun r -> { r with speedup = r.best_queries_per_s /. baseline r.pattern })
    rows

(* {1 Reporting} *)

let print_rows rows =
  Table.print ~title:"sharded fan-out: throughput and tail vs K and pool size"
    ~header:
      [ "pattern"; "n"; "K"; "domains"; "batch"; "q/s"; "best q/s";
        "p99 batch ms"; "speedup" ]
    ~align:
      [ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right;
        Table.Right; Table.Right; Table.Right; Table.Right ]
    (List.map
       (fun r ->
         [ r.pattern; string_of_int r.n; string_of_int r.shards;
           string_of_int r.domains; string_of_int r.batch;
           Printf.sprintf "%.0f" r.queries_per_s;
           Printf.sprintf "%.0f" r.best_queries_per_s;
           Printf.sprintf "%.2f" r.p99_batch_ms;
           Printf.sprintf "%.2fx" r.speedup ])
       rows)

let record_row r =
  let open Bench_record in
  row
    ~case:
      [ ("pattern", str r.pattern); ("n", int r.n); ("shards", int r.shards);
        ("domains", int r.domains); ("batch", int r.batch);
        ("reps", int r.reps) ]
    ~metrics:
      [ ("wall_ms", num r.wall_ms); ("queries_per_s", num r.queries_per_s);
        ("best_queries_per_s", num r.best_queries_per_s);
        ("p99_batch_ms", num r.p99_batch_ms); ("speedup", num r.speedup) ]

let speedup_check ~cores rows =
  let binding = cores >= 4 in
  List.iter
    (fun r ->
      if r.pattern = Driver.pattern_name Driver.Hotspot && r.shards >= 4 then begin
        if r.domains >= 4 then begin
          Printf.printf "hotspot K=%d %d-domain speedup: %.2fx%s\n" r.shards
            r.domains r.speedup
            (if binding then "" else " (not binding: fewer than 4 cores)");
          if binding && r.speedup < 2.0 then
            failwith
              (Printf.sprintf "exp_shard: hotspot K=%d speedup %.2f < 2.0"
                 r.shards r.speedup)
        end
        else if (not binding) && r.domains = 1 then begin
          Printf.printf
            "hotspot K=%d 1-domain speedup: %.2fx (floor on small box: 1.0)\n"
            r.shards r.speedup;
          if r.speedup < 1.0 then
            failwith
              (Printf.sprintf
                 "exp_shard: hotspot K=%d regresses on one domain (%.2fx)"
                 r.shards r.speedup)
        end
      end)
    rows

let parse_int_list s = List.map int_of_string (String.split_on_char ',' s)

let () =
  let n = ref 10_000 in
  let shards_list = ref [ 1; 2; 4 ] in
  let domains_list = ref [ 1; 2; 4 ] in
  let batchq = ref 48 in
  let reps = ref 20 in
  let json = ref "" in
  let rec parse = function
    | [] -> ()
    | "--n" :: v :: rest ->
      n := int_of_string v;
      parse rest
    | "--shards-list" :: v :: rest ->
      shards_list := parse_int_list v;
      parse rest
    | "--domains-list" :: v :: rest ->
      domains_list := parse_int_list v;
      parse rest
    | "--batch" :: v :: rest ->
      batchq := int_of_string v;
      parse rest
    | "--reps" :: v :: rest ->
      reps := int_of_string v;
      parse rest
    | "--json" :: v :: rest ->
      json := v;
      parse rest
    | arg :: _ -> failwith ("exp_shard: unknown argument " ^ arg)
  in
  parse (List.tl (Array.to_list Sys.argv));
  let cores = Domain.recommended_domain_count () in
  Printf.printf "cores (recommended_domain_count): %d\n" cores;
  let rows =
    with_speedups
      (List.concat_map
         (fun pattern ->
           List.concat_map
             (fun shards ->
               run_cell ~pattern ~n:!n ~shards ~domains_list:!domains_list
                 ~batchq:!batchq ~reps:!reps)
             !shards_list)
         [ Driver.Hotspot; Driver.Uniform ])
  in
  print_rows rows;
  speedup_check ~cores rows;
  Bench_record.write ~bench:"shard" !json (List.map record_row rows);
