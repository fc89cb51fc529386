(* Shared machinery for the experiment harness. *)

module Counters = Ltree_metrics.Counters
module Table = Ltree_metrics.Table
module Prng = Ltree_workload.Prng
module Driver = Ltree_workload.Driver

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* One canonical way to print a counter set; derives from
   [Counters.to_assoc] so benches never hand-enumerate the fields. *)
let print_counters ?(label = "counters") counters =
  Format.printf "%s: %a@." label Counters.pp counters

(* Run [ops] insertions with [pattern] against scheme [S] starting from
   [n] bulk-loaded items; returns (relabels/op, accesses/op, bits). *)
let measure_scheme (type s h)
    (module S : Ltree_labeling.Scheme.S with type t = s and type handle = h)
    ~n ~ops ~seed pattern =
  let module D = Driver.Make (S) in
  let counters = Counters.create () in
  let d = D.init ~counters ~n () in
  let prng = Prng.create seed in
  Counters.reset counters;
  D.run d prng pattern ~ops;
  let fops = float_of_int ops in
  ( float_of_int (Counters.relabels counters) /. fops,
    float_of_int (Counters.node_accesses counters) /. fops,
    S.bits_per_label (D.scheme d) )

(* The same, but returning total maintenance (accesses + relabels) per
   op — the paper's cost unit. *)
let measure_cost (type s h)
    (module S : Ltree_labeling.Scheme.S with type t = s and type handle = h)
    ~n ~ops ~seed pattern =
  let relabels, accesses, _ = measure_scheme (module S) ~n ~ops ~seed pattern in
  relabels +. accesses

let ltree_scheme params : (module Ltree_labeling.Scheme.S) =
  (module Ltree_core.Scheme_adapter.Make (struct
    let params = params
  end))

let vltree_scheme params : (module Ltree_labeling.Scheme.S) =
  (module Ltree_core.Scheme_adapter.Make_virtual (struct
    let params = params
  end))
