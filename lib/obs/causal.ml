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
   journal payload.  Both ends of the pipeline compute the id
   independently from (seq, payload), so the id survives any transport
   and a replica can verify a received id against its own recomputation
   -- a damaged frame can never smuggle in a wrong causal parent. *)

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

let id_to_hex id = Printf.sprintf "%08x" (id land mask32)

(* {1 Stamp table}

   One entry per record id.  [ticks] is indexed by stage rank; [-1]
   means "not yet stamped".  Stamps are first-wins: a replica replaying
   its own journal re-appends the same record, and a retried frame
   re-delivers it -- neither may overwrite the time the stage really
   first happened. *)

type entry = {
  id : int;
  seq : int;
  ticks : int array;
  mutable retries : int;
}

type state = {
  mu : Mutex.t;
  tbl : entry Int_tbl.t;
  mutable order : int list;  (* insertion order of ids, newest first *)
  mutable now_fn : unit -> int;
}

let make_state () =
  {
    mu = Mutex.create ();
    tbl = Int_tbl.create 256;
    order = [];
    now_fn = (fun () -> 0);
  }

let state = make_state ()
let enabled = Atomic.make false

let set_enabled b = Atomic.set enabled b
let is_enabled () = Atomic.get enabled

let locked f =
  Mutex.lock state.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock state.mu) f

let set_now fn = locked (fun () -> state.now_fn <- fn)

let reset () =
  locked (fun () ->
      Int_tbl.reset state.tbl;
      state.order <- [];
      state.now_fn <- (fun () -> 0))

let e2e_hist () =
  Registry.histogram ~name:"repl_e2e_lag_ticks"
    ~help:"End-to-end append-to-readable record lag in virtual clock ticks"
    ~bounds:(Histogram.linear_bounds ~start:1. ~step:1. ~count:32)
    ()

let entry_of ~id ~seq =
  match Int_tbl.find_opt state.tbl id with
  | Some e -> e
  | None ->
    let e = { id; seq; ticks = Array.make 5 (-1); retries = 0 } in
    Int_tbl.replace state.tbl id e;
    state.order <- id :: state.order;
    e

let stamp ?tick:tk stage ~seq ~payload =
  if Atomic.get enabled then begin
    let id = id_of ~seq ~payload in
    let observe =
      locked (fun () ->
          let e = entry_of ~id ~seq in
          let r = stage_rank stage in
          let tick =
            match tk with Some n -> n | None -> state.now_fn ()
          in
          if e.ticks.(r) < 0 then begin
            e.ticks.(r) <- tick;
            (* The e2e histogram is fed exactly once per record, at its
               first Readable stamp, as readable - append: the same
               telescoped sum the waterfall prints. *)
            if stage_rank stage = stage_rank Readable && e.ticks.(0) >= 0
            then Some (tick - e.ticks.(0))
            else None
          end
          else None)
    in
    match observe with
    | Some lag -> Histogram.observe_int (e2e_hist ()) lag
    | None -> ()
  end

let note_retry ~seq ~payload =
  if Atomic.get enabled then
    locked (fun () ->
        let id = id_of ~seq ~payload in
        let e = entry_of ~id ~seq in
        e.retries <- e.retries + 1)

type trace = {
  trace_id : int;
  trace_seq : int;
  stamps : (stage * int) list;  (* stage order, stamped stages only *)
  retries : int;
}

let records () =
  let entries =
    locked (fun () ->
        List.rev_map
          (fun id ->
            match Int_tbl.find_opt state.tbl id with
            | Some e ->
              { id = e.id; seq = e.seq; ticks = Array.copy e.ticks;
                retries = e.retries }
            | None -> assert false)
          state.order)
  in
  let entries =
    List.sort (fun a b -> Int.compare a.seq b.seq) entries
  in
  List.map
    (fun e ->
      {
        trace_id = e.id;
        trace_seq = e.seq;
        stamps =
          List.filter_map
            (fun s ->
              let t = e.ticks.(stage_rank s) in
              if t >= 0 then Some (s, t) else None)
            stages;
        retries = e.retries;
      })
    entries

let stage_tick tr s =
  List.find_map
    (fun (st, t) -> if stage_rank st = stage_rank s then Some t else None)
    tr.stamps

(* {1 Waterfall}

   One row per record: the append tick, then per-stage durations (ticks
   spent reaching each stage from the previous stamped one), retries,
   and the end-to-end total.  The per-stage columns telescope to the
   total by construction, which is what [check_waterfall] asserts
   against the histogram. *)

let complete tr =
  match (stage_tick tr Append, stage_tick tr Readable) with
  | Some a, Some r -> Some (a, r)
  | _ -> None

let waterfall () =
  let trs = records () in
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
      let append =
        match stage_tick tr Append with
        | Some t -> Printf.sprintf "%d" t
        | None -> "-"
      in
      let ship, p1 = cell (stage_tick tr Append) Ship in
      let deliver, p2 = cell p1 Deliver in
      let apply, p3 = cell p2 Apply in
      let readable, _ = cell p3 Readable in
      let e2e =
        match complete tr with
        | Some (a, r) -> Printf.sprintf "%d" (r - a)
        | None -> "-"
      in
      Buffer.add_string buf
        (Printf.sprintf "%6d %9s %6s %6s %8s %6s %9s %8d %5s\n" tr.trace_seq
           (id_to_hex tr.trace_id) append ship deliver apply readable
           tr.retries e2e))
    trs;
  Buffer.contents buf

(* [check_waterfall] cross-checks the waterfall against the e2e lag
   histogram: the histogram was fed once per completed record with
   readable - append, so the sum of per-record stage durations must
   equal the histogram sum (within one virtual-clock tick, per the
   acceptance bound; equality holds by telescoping). *)
let check_waterfall () =
  let trs = records () in
  let completes = List.filter_map complete trs in
  let stage_sum =
    List.fold_left (fun acc (a, r) -> acc + (r - a)) 0 completes
  in
  let h = e2e_hist () in
  let hist_count = Histogram.count h in
  let hist_sum = int_of_float (Histogram.sum h) in
  let n = List.length completes in
  if not (n = hist_count) then
    Error
      (Printf.sprintf
         "waterfall has %d complete records but e2e histogram counted %d" n
         hist_count)
  else if Stdlib.abs (stage_sum - hist_sum) > 1 then
    Error
      (Printf.sprintf
         "stage sums total %d ticks but e2e histogram sums %d" stage_sum
         hist_sum)
  else
    Ok
      (Printf.sprintf
         "%d records, stage sums %d ticks = histogram sum %d ticks" n
         stage_sum hist_sum)
