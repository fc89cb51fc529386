(* One registered gauge source: a sampling closure plus a bounded ring
   of (tick, value) samples.  Sources are pull-based -- [sample ~now]
   polls every closure -- so subsystems expose state without pushing. *)
type series = {
  sname : string;
  fn : unit -> float;
  ticks : int array;
  values : float array;
  mutable added : int;
}

type t = {
  mu : Mutex.t;
  mutable sources : series list;  (* registration order, newest first *)
}

(* Samples each source's ring holds. *)
let capacity = 256

let default = { mu = Mutex.create (); sources = [] }

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let register ~name fn =
  let t = default in
  locked t (fun () ->
      let s =
        {
          sname = name;
          fn;
          ticks = Array.make capacity 0;
          values = Array.make capacity 0.;
          added = 0;
        }
      in
      t.sources <-
        s :: List.filter (fun s' -> not (String.equal s'.sname name)) t.sources)

let sample ~now () =
  let t = default in
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

let top ?(width = 32) () =
  let t = default in
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

let register_gc () =
  register ~name:"telemetry_gc_minor_words" (fun () ->
      (Gc.quick_stat ()).Gc.minor_words);
  register ~name:"telemetry_gc_major_collections" (fun () ->
      float_of_int (Gc.quick_stat ()).Gc.major_collections);
  register ~name:"telemetry_gc_heap_words" (fun () ->
      float_of_int (Gc.quick_stat ()).Gc.heap_words)
