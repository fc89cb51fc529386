(* One registered gauge source: a sampling closure plus a bounded ring
   of (tick, value) samples.  Sources are pull-based -- [sample ~now]
   polls every closure -- so subsystems expose state without pushing. *)
type series = {
  sname : string;
  shelp : string;
  fn : unit -> float;
  ticks : int array;
  values : float array;
  mutable added : int;
}

type t = {
  mu : Mutex.t;
  capacity : int;
  mutable sources : series list;  (* registration order, newest first *)
}

let create ?(capacity = 256) () =
  if capacity < 1 then invalid_arg "Telemetry.create: capacity must be >= 1";
  { mu = Mutex.create (); capacity; sources = [] }

let default = create ()

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let register ?(t = default) ~name ~help fn =
  locked t (fun () ->
      let s =
        {
          sname = name;
          shelp = help;
          fn;
          ticks = Array.make t.capacity 0;
          values = Array.make t.capacity 0.;
          added = 0;
        }
      in
      t.sources <-
        s :: List.filter (fun s' -> not (String.equal s'.sname name)) t.sources)

let sample ?(t = default) ~now () =
  (* Sample outside the lock: a source closure may itself take a lock
     (pool stats, registry reads) and must not nest under ours. *)
  let sources = locked t (fun () -> t.sources) in
  let readings = List.map (fun s -> (s, s.fn ())) sources in
  locked t (fun () ->
      List.iter
        (fun (s, v) ->
          let i = s.added mod Array.length s.ticks in
          s.ticks.(i) <- now;
          s.values.(i) <- v;
          s.added <- s.added + 1)
        readings)

let sorted_sources t =
  List.sort
    (fun a b -> String.compare a.sname b.sname)
    (locked t (fun () -> t.sources))

let series_samples t s =
  locked t (fun () ->
      let cap = Array.length s.ticks in
      let n = Int.min s.added cap in
      let first = if s.added > cap then s.added mod cap else 0 in
      List.init n (fun i ->
          let j = (first + i) mod cap in
          (s.ticks.(j), s.values.(j))))

let find t name =
  List.find_opt (fun s -> String.equal s.sname name)
    (locked t (fun () -> t.sources))

let series ?(t = default) name =
  match find t name with None -> [] | Some s -> series_samples t s

let latest ?(t = default) name =
  match series ~t name with
  | [] -> None
  | samples -> Some (List.nth samples (List.length samples - 1))

(* {1 Prometheus gauges}

   Each source exposes its most recent sample as one gauge line. *)

let expose ?(t = default) () =
  let buf = Buffer.create 1024 in
  List.iter
    (fun s ->
      match series_samples t s with
      | [] -> ()
      | samples ->
        let _, v = List.nth samples (List.length samples - 1) in
        Buffer.add_string buf
          (Printf.sprintf "# HELP %s %s\n# TYPE %s gauge\n%s %.6f\n" s.sname
             s.shelp s.sname s.sname v))
    (sorted_sources t);
  Buffer.contents buf

(* {1 Text dashboard} *)

let spark_chars = [| ' '; '.'; ':'; '-'; '='; '+'; '*'; '#'; '%'; '@' |]

let sparkline values =
  match values with
  | [] -> ""
  | _ ->
    let lo = List.fold_left Float.min (List.hd values) values in
    let hi = List.fold_left Float.max (List.hd values) values in
    let span = hi -. lo in
    let buf = Buffer.create (List.length values) in
    List.iter
      (fun v ->
        let i =
          if Float.compare span 0. <= 0 then 0
          else
            Int.min
              (Array.length spark_chars - 1)
              (int_of_float ((v -. lo) /. span *. 9.0))
        in
        Buffer.add_char buf spark_chars.(i))
      values;
    Buffer.contents buf

let top ?(t = default) ?(width = 32) () =
  let buf = Buffer.create 1024 in
  let srcs = sorted_sources t in
  let name_w =
    List.fold_left (fun acc s -> Int.max acc (String.length s.sname)) 10 srcs
  in
  Buffer.add_string buf
    (Printf.sprintf "%-*s %14s %14s  %s\n" name_w "gauge" "latest" "min..max"
       "trend");
  List.iter
    (fun s ->
      match series_samples t s with
      | [] ->
        Buffer.add_string buf
          (Printf.sprintf "%-*s %14s %14s  %s\n" name_w s.sname "-" "-" "")
      | samples ->
        let values = List.map snd samples in
        let tail =
          let n = List.length values in
          if n > width then List.filteri (fun i _ -> i >= n - width) values
          else values
        in
        let latest = List.nth values (List.length values - 1) in
        let lo = List.fold_left Float.min (List.hd values) values in
        let hi = List.fold_left Float.max (List.hd values) values in
        Buffer.add_string buf
          (Printf.sprintf "%-*s %14.2f %7.2f..%-7.2f [%s]\n" name_w s.sname
             latest lo hi (sparkline tail)))
    srcs;
  Buffer.contents buf

(* {1 Built-in sources} *)

let register_gc ?(t = default) () =
  register ~t ~name:"telemetry_gc_minor_words"
    ~help:"Cumulative minor-heap allocation in words" (fun () ->
      (Gc.quick_stat ()).Gc.minor_words);
  register ~t ~name:"telemetry_gc_major_collections"
    ~help:"Cumulative major GC cycles" (fun () ->
      float_of_int (Gc.quick_stat ()).Gc.major_collections);
  register ~t ~name:"telemetry_gc_heap_words"
    ~help:"Major heap size in words" (fun () ->
      float_of_int (Gc.quick_stat ()).Gc.heap_words)
