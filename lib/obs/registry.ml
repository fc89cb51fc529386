(* Monotonic counters are a name plus an atomic cell: increments from
   worker domains need no lock, only registration does. *)
type counter = { cname : string; chelp : string; cell : int Atomic.t }

(* The tables are mutex-guarded: get-or-create races from worker domains
   must hand every caller the same instance. *)
type t = {
  tbl : (string, Histogram.t) Hashtbl.t;
  ctbl : (string, counter) Hashtbl.t;
  mu : Mutex.t;
}

(* The one process-wide registry. *)
let default =
  { tbl = Hashtbl.create 32; ctbl = Hashtbl.create 16; mu = Mutex.create () }

let locked f =
  Mutex.lock default.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock default.mu) f

(* Labels rendered Prometheus-style, sorted by key — also the registry
   key suffix, so the same (name, labels) pair always resolves to the
   same series while distinct label sets stay distinct instances. *)
let render_labels labels =
  match labels with
  | [] -> ""
  | _ ->
    String.concat ","
      (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k v) labels)

let series_key name labels =
  match labels with [] -> name | _ -> name ^ "{" ^ render_labels labels ^ "}"

let histogram ~name ~help ?(labels = []) ~bounds () =
  let labels = List.sort (fun (a, _) (b, _) -> String.compare a b) labels in
  let key = series_key name labels in
  locked (fun () ->
      match Hashtbl.find_opt default.tbl key with
      | Some h -> h
      | None ->
        let h = Histogram.create ~name ~help ~labels ~bounds () in
        Hashtbl.replace default.tbl key h;
        h)

(* Sort by name first so every series of one metric is contiguous (the
   expositions emit HELP/TYPE once per metric), then by labels. *)
let histograms () =
  let out =
    locked (fun () -> Hashtbl.fold (fun _ h acc -> h :: acc) default.tbl [])
  in
  List.sort
    (fun a b ->
      let c = String.compare (Histogram.name a) (Histogram.name b) in
      if c = 0 then
        String.compare
          (render_labels (Histogram.labels a))
          (render_labels (Histogram.labels b))
      else c)
    out

let counter ~name ~help () =
  locked (fun () ->
      match Hashtbl.find_opt default.ctbl name with
      | Some c -> c
      | None ->
        let c = { cname = name; chelp = help; cell = Atomic.make 0 } in
        Hashtbl.replace default.ctbl name c;
        c)

let counter_value c = Atomic.get c.cell
let counter_incr c = ignore (Atomic.fetch_and_add c.cell 1)
let counter_add c n = if n > 0 then ignore (Atomic.fetch_and_add c.cell n)

let counters () =
  let out =
    locked (fun () -> Hashtbl.fold (fun _ c acc -> c :: acc) default.ctbl [])
  in
  List.sort (fun a b -> String.compare a.cname b.cname) out

(* Prometheus text exposition.  The "le" label is the bucket's inclusive
   upper bound; the final bucket is "+Inf" and equals [_count]. *)
let le_label b =
  (* Render bounds compactly: integers without a trailing ".", others
     with enough digits to round-trip typical bucket layouts. *)
  if Float.is_integer b && Float.compare (Float.abs b) 1e15 < 0 then
    Printf.sprintf "%.0f" b
  else Printf.sprintf "%g" b

let expose_histogram ?(header = true) buf h =
  let name = Histogram.name h in
  if header then begin
    Buffer.add_string buf
      (Printf.sprintf "# HELP %s %s\n" name (Histogram.help h));
    Buffer.add_string buf (Printf.sprintf "# TYPE %s histogram\n" name)
  end;
  (* Series labels precede [le] inside the braces; an unlabeled
     histogram keeps the seed's exact rendering. *)
  let lbl = render_labels (Histogram.labels h) in
  let pre = if String.length lbl = 0 then "" else lbl ^ "," in
  let suffix = if String.length lbl = 0 then "" else "{" ^ lbl ^ "}" in
  let bounds = Histogram.bounds h in
  let cumulative = Histogram.cumulative h in
  Array.iteri
    (fun i b ->
      Buffer.add_string buf
        (Printf.sprintf "%s_bucket{%sle=\"%s\"} %d\n" name pre (le_label b)
           cumulative.(i)))
    bounds;
  Buffer.add_string buf
    (Printf.sprintf "%s_bucket{%sle=\"+Inf\"} %d\n" name pre
       cumulative.(Array.length bounds));
  Buffer.add_string buf
    (Printf.sprintf "%s_sum%s %.6f\n" name suffix (Histogram.sum h));
  Buffer.add_string buf
    (Printf.sprintf "%s_count%s %d\n" name suffix (Histogram.count h))

let expose_counter buf c =
  Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" c.cname c.chelp);
  Buffer.add_string buf (Printf.sprintf "# TYPE %s counter\n" c.cname);
  Buffer.add_string buf (Printf.sprintf "%s %d\n" c.cname (counter_value c))

let expose_counters buf ~prefix counters =
  List.iter
    (fun (field, v) ->
      let name = Printf.sprintf "%s_%s_total" prefix field in
      Buffer.add_string buf
        (Printf.sprintf "# TYPE %s counter\n%s %d\n" name name v))
    (Ltree_metrics.Counters.to_assoc counters)

let expose () =
  let buf = Buffer.create 4096 in
  (* [histograms] sorts by (name, labels), so every series of a labeled
     metric is contiguous: emit the HELP/TYPE header on the first series
     of each metric name only. *)
  let prev = ref "" in
  List.iter
    (fun h ->
      let header = not (String.equal !prev (Histogram.name h)) in
      prev := Histogram.name h;
      expose_histogram ~header buf h)
    (histograms ());
  List.iter (fun c -> expose_counter buf c) (counters ());
  Buffer.contents buf

(* {1 JSON exposition}

   The same registry content as [expose], machine-readable: bucket
   counts are cumulative and labelled exactly like the text format
   (["le"] is the same string, ending in ["+Inf"]), so scrapers can
   treat the two as views of one model. *)

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

let counter_json c =
  Json.Obj
    [ ("name", Json.Str c.cname); ("help", Json.Str c.chelp);
      ("value", Json.Num (float_of_int (counter_value c))) ]

let expose_json ?(extra = []) () =
  Json.Obj
    ([ ("histograms", Json.Arr (List.map histogram_json (histograms ())));
       ("counters", Json.Arr (List.map counter_json (counters ()))) ]
    @ extra)
