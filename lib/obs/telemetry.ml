(* Gauge sources are pull-based closures -- [sample ~now] polls every
   one -- so subsystems expose state without pushing.  A reading is one
   [gauge] note in the ring [Span] owns; the module keeps no samples of
   its own, and [top] folds them back out of the ring. *)

let kind = "gauge"

(* (name, closure), newest registration first *)
let sources : (string * (unit -> float)) list Atomic.t = Atomic.make []

let rec register ~name fn =
  let old = Atomic.get sources in
  let fresh =
    (name, fn) :: List.filter (fun (n, _) -> not (String.equal n name)) old
  in
  if not (Atomic.compare_and_set sources old fresh) then register ~name fn

let sample ~now () =
  List.iter
    (fun (name, fn) ->
      Span.note ~tick:now ~kind
        ~attrs:[ ("value", Json.to_string (Json.Num (fn ()))) ]
        name)
    (Atomic.get sources)

(* {1 Text dashboard} *)

module Smap = Map.Make (String)

(* Each gauge's readings, oldest first, keyed by name. *)
let series entries =
  List.fold_left
    (fun m (r : Trace.record) ->
      if not (String.equal r.kind kind) then m
      else
        let value = List.assoc_opt "value" r.attrs in
        match Option.bind value float_of_string_opt with
        | Some v -> Smap.add_to_list r.name v m
        | None -> m)
    Smap.empty entries
  |> Smap.map List.rev

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
  match Span.dropped () with
  | n when n > 0 ->
    Error
      (Printf.sprintf
         "the event ring dropped %d entries, so the trends would be partial"
         n)
  | _ ->
    let rows = Smap.bindings (series (Span.entries ())) in
    let buf = Buffer.create 1024 in
    let name_w =
      List.fold_left (fun acc (n, _) -> Int.max acc (String.length n)) 10 rows
    in
    Buffer.add_string buf
      (Printf.sprintf "%-*s %14s %14s  %s\n" name_w "gauge" "latest"
         "min..max" "trend");
    List.iter
      (fun (name, values) ->
        let n = List.length values in
        let tail = List.filteri (fun i _ -> i >= n - width) values in
        let lo = List.fold_left Float.min (List.hd values) values in
        let hi = List.fold_left Float.max (List.hd values) values in
        Buffer.add_string buf
          (Printf.sprintf "%-*s %14.2f %7.2f..%-7.2f [%s]\n" name_w name
             (List.nth values (n - 1))
             lo hi (sparkline tail)))
      rows;
    Ok (Buffer.contents buf)

(* {1 Built-in sources} *)

let register_gc () =
  register ~name:"telemetry_gc_minor_words" (fun () ->
      (Gc.quick_stat ()).Gc.minor_words);
  register ~name:"telemetry_gc_major_collections" (fun () ->
      float_of_int (Gc.quick_stat ()).Gc.major_collections);
  register ~name:"telemetry_gc_heap_words" (fun () ->
      float_of_int (Gc.quick_stat ()).Gc.heap_words)
