(* Host speed, for reporting wall times in reference-host units.

   The box is shared: other tenants slow it by 10-30% for minutes at a
   time, about uniformly across every op kind, and the guest sees no
   steal time to subtract.  A fixed reference kernel is timed between
   ops throughout a run; every wall-time metric is divided by [factor]
   = kernel median / [reference_s], i.e. reported as it would read on
   the host when the kernel takes [reference_s].

   The kernel uses no library code and allocates nothing, so neither a
   change to the system nor the size of its heap (major-GC work is
   paid by whoever allocates) can move it: pointer chasing through a
   2 MB cycle, scattered increments over another 2 MB table, and an
   integer xorshift loop. *)

let bits = 18
let size = 1 lsl bits

(* One random cycle through every slot (Sattolo's shuffle). *)
let next =
  let a = Array.init size (fun i -> i) in
  let s = ref 0x2545F491 in
  for i = size - 1 downto 1 do
    s := ((!s * 1103515245) + 12345) land 0x3FFFFFFF;
    let j = !s mod i in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let table = Array.make size 0

let kernel () =
  let p = ref 0 and s = ref 0 in
  for _ = 1 to 150_000 do
    p := Array.unsafe_get next !p;
    s := !s + !p
  done;
  for i = 1 to 300_000 do
    let h = (i * 0x9E3779B1) land (size - 1) in
    Array.unsafe_set table h (Array.unsafe_get table h + i)
  done;
  let x = ref 0x2545F491 in
  for _ = 1 to 1_000_000 do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17)
  done;
  !s + !x

(* The kernel's typical time between ops on a quiet 2-vCPU 2.1 GHz
   x86-64 VM, the host the committed results were measured on (it runs
   in about 7.3 ms alone; between ops caches and TLBs start colder). *)
let reference_s = 8.5e-3

(* One untimed pass first: the ops in between evict the kernel's tables,
   and how much depends on the system's own footprint. *)
let time () =
  ignore (Sys.opaque_identity (kernel ()) : int);
  let t0 = Workload.now () in
  ignore (Sys.opaque_identity (kernel ()) : int);
  Workload.now () -. t0

let factor samples =
  let a = Array.of_list samples in
  Array.sort Float.compare a;
  a.(Array.length a / 2) /. reference_s
