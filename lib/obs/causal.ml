module Int_tbl = Ltree_metrics.Int_tbl

type stage = Append | Ship | Deliver | Apply | Readable

let stage_rank = function
  | Append -> 0
  | Ship -> 1
  | Deliver -> 2
  | Apply -> 3
  | Readable -> 4

let stages = [ Append; Ship; Deliver; Apply; Readable ]

let stage_name = function
  | Append -> "append"
  | Ship -> "ship"
  | Deliver -> "deliver"
  | Apply -> "apply"
  | Readable -> "readable"

(* {1 Trace ids}

   Content-derived: FNV-1a over the decimal sequence number and the
   journal payload.  Every stage computes the id independently from
   (seq, payload), so nothing has to carry it between the primary and
   the replica. *)

let fnv_prime = 0x01000193
let fnv_offset = 0x811c9dc5
let mask32 = 0xffffffff

let id_of ~seq ~payload =
  let h = ref fnv_offset in
  let step c = h := (!h lxor Char.code c) * fnv_prime land mask32 in
  String.iter step (string_of_int seq);
  step ' ';
  String.iter step payload;
  !h

(* {1 Stamps}

   One [causal] note per stamp, named after the stage (or [retry]),
   carrying the record's seq and hex id.  The ring keeps every stamp;
   the first-wins rule is applied when the entries are folded. *)

let kind = "causal"
let enabled = Atomic.make false

let set_enabled b = Atomic.set enabled b

let note ?tick name ~seq ~payload =
  Span.note ?tick ~kind
    ~attrs:
      [ ("seq", string_of_int seq);
        ("id", Printf.sprintf "%08x" (id_of ~seq ~payload)) ]
    name

let stamp ?tick stage ~seq ~payload =
  if Atomic.get enabled then note ?tick (stage_name stage) ~seq ~payload

let note_retry ~seq ~payload =
  if Atomic.get enabled then note "retry" ~seq ~payload

(* {1 The view}

   One accumulator per record id, in order of first appearance; [-1]
   in [ticks] (indexed by stage rank) means "not yet stamped".  A
   replica replaying its own journal re-appends the same record, and a
   retried frame re-ships and re-delivers it: neither may overwrite the
   tick at which the stage really first happened. *)

type acc = { id : int; seq : int; ticks : int array; mutable n_retries : int }

type trace = {
  trace_id : int;
  trace_seq : int;
  stamps : (stage * int) list;  (* stage order, stamped stages only *)
  retries : int;
}

let stage_of_name name =
  List.find_opt (fun s -> String.equal (stage_name s) name) stages

(* The (seq, id) of a causal entry; [None] for any other entry, or for
   a causal line read back from a bundle whose attributes do not parse. *)
let key_of (r : Trace.record) =
  let attr k = List.assoc_opt k r.attrs in
  if not (String.equal r.kind kind) then None
  else
    match
      ( Option.bind (attr "seq") int_of_string_opt,
        Option.bind (attr "id") (fun h -> int_of_string_opt ("0x" ^ h)) )
    with
    | Some seq, Some id -> Some (seq, id)
    | _ -> None

let records entries =
  let tbl = Int_tbl.create 256 in
  let order = ref [] in
  List.iter
    (fun (r : Trace.record) ->
      match key_of r with
      | None -> ()
      | Some (seq, id) -> (
        let a =
          match Int_tbl.find_opt tbl id with
          | Some a -> a
          | None ->
            let a = { id; seq; ticks = Array.make 5 (-1); n_retries = 0 } in
            Int_tbl.replace tbl id a;
            order := a :: !order;
            a
        in
        if String.equal r.name "retry" then a.n_retries <- a.n_retries + 1
        else
          match stage_of_name r.name with
          | Some s ->
            let k = stage_rank s in
            if a.ticks.(k) < 0 then a.ticks.(k) <- r.tick
          | None -> ()))
    entries;
  List.rev !order
  |> List.stable_sort (fun a b -> Int.compare a.seq b.seq)
  |> List.map (fun a ->
         {
           trace_id = a.id;
           trace_seq = a.seq;
           stamps =
             List.filter_map
               (fun s ->
                 let t = a.ticks.(stage_rank s) in
                 if t >= 0 then Some (s, t) else None)
               stages;
           retries = a.n_retries;
         })

let stage_tick tr s =
  List.find_map
    (fun (st, t) -> if stage_rank st = stage_rank s then Some t else None)
    tr.stamps

let e2e tr =
  match (stage_tick tr Append, stage_tick tr Readable) with
  | Some a, Some r -> Some (r - a)
  | _ -> None

(* {1 Waterfall}

   One row per record: the append tick, then per-stage durations (ticks
   spent reaching each stage from the previous stamped one), retries,
   and the end-to-end total.  The per-stage columns of a complete row
   telescope to the total by construction. *)

let waterfall trs =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "%6s %9s %6s %6s %8s %6s %9s %8s %5s\n" "seq" "id"
       "append" "ship" "deliver" "apply" "readable" "retries" "e2e");
  List.iter
    (fun tr ->
      let cell prev s =
        match (prev, stage_tick tr s) with
        | Some p, Some t -> (Printf.sprintf "+%d" (t - p), Some t)
        | None, Some t -> (Printf.sprintf "@%d" t, Some t)
        | _, None -> ("-", prev)
      in
      let show = function Some t -> string_of_int t | None -> "-" in
      let append = stage_tick tr Append in
      let ship, p1 = cell append Ship in
      let deliver, p2 = cell p1 Deliver in
      let apply, p3 = cell p2 Apply in
      let readable, _ = cell p3 Readable in
      Buffer.add_string buf
        (Printf.sprintf "%6d %9s %6s %6s %8s %6s %9s %8d %5s\n" tr.trace_seq
           (Printf.sprintf "%08x" tr.trace_id)
           (show append) ship deliver apply readable tr.retries
           (show (e2e tr))))
    trs;
  Buffer.contents buf
