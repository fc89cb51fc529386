(* The one function host.ml takes from the benchmark's Workload: seconds
   on the same monotonic nanosecond clock. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
