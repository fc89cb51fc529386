(* Global state: one process-wide ring plus a per-domain stack of open
   span names.  The stack is names only -- a span that is still open
   has no record yet; records are appended on exit, so the trace lists
   spans in completion order (children before parents).  The stack
   lives in domain-local storage so spans opened by worker domains
   nest among themselves and never interleave with another domain's
   path; the ring is shared and guarded by a mutex so records from all
   domains land in one trace. *)

let enabled = Atomic.make true
let ring_mu = Mutex.create ()
let ring = ref (Trace.create ~capacity:4096)

let stack_key : string list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let stack () = Domain.DLS.get stack_key

let locked f =
  Mutex.lock ring_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock ring_mu) f

(* [set_enabled]/[is_enabled] are a single atomic flag: the disabled
   fast path in [with_]/[event] reads it and nothing else. *)
let set_enabled b = Atomic.set enabled b
let is_enabled () = Atomic.get enabled

let set_capacity capacity = locked (fun () -> ring := Trace.create ~capacity)
let records () = locked (fun () -> Trace.to_list !ring)
let dropped () = locked (fun () -> Trace.dropped !ring)
let depth () = List.length !(stack ())

let reset () =
  locked (fun () -> Trace.clear !ring);
  stack () := []

let current_path stack name = String.concat "/" (List.rev (name :: !stack))

(* Silently-overwritten records are invisible in the ring by design;
   the counter makes the loss observable in the exposition, so a scrape
   can tell "quiet system" from "ring too small". *)
let dropped_counter () =
  Registry.counter ~name:"obs_trace_dropped_total"
    ~help:"Trace records overwritten because the span ring was full" ()

let add_record r =
  let overwrote =
    locked (fun () ->
        let full = Trace.length !ring = Trace.capacity !ring in
        Trace.add !ring r;
        full)
  in
  if overwrote then Registry.counter_incr (dropped_counter ())

let finish ~name ~path ~depth ~start ~before ~attrs ~on_close counters =
  let duration = Unix.gettimeofday () -. start in
  let deltas =
    match (counters, before) with
    | Some c, Some b -> Ltree_metrics.Counters.(to_assoc (diff c b))
    | _ -> []
  in
  let domain = (Domain.self () :> int) in
  let r = { Trace.name; path; depth; domain; start; duration; deltas; attrs } in
  add_record r;
  if Recorder.is_enabled () then
    Recorder.note ~kind:"span"
      ~attrs:(("dur_us", Printf.sprintf "%.1f" (duration *. 1e6)) :: attrs)
      path;
  (match on_close with Some f -> f r | None -> ())

let with_ ?(attrs = []) ?counters ?on_close ~name fn =
  (* Disabled fast path: one atomic flag read, then straight to [fn].
     No clock read, no stack or DLS touch, no allocation. *)
  if not (Atomic.get enabled) then fn ()
  else begin
    let stack = stack () in
    let path = current_path stack name in
    let depth = List.length !stack in
    let before =
      match counters with
      | Some c -> Some (Ltree_metrics.Counters.copy c)
      | None -> None
    in
    stack := name :: !stack;
    let start = Unix.gettimeofday () in
    let pop () =
      match !stack with
      | _ :: rest -> stack := rest
      | [] -> ()
    in
    match fn () with
    | v ->
      pop ();
      finish ~name ~path ~depth ~start ~before ~attrs ~on_close counters;
      v
    | exception e ->
      pop ();
      let attrs = ("error", Printexc.to_string e) :: attrs in
      finish ~name ~path ~depth ~start ~before ~attrs ~on_close counters;
      raise e
  end

let event ?(attrs = []) name =
  if Atomic.get enabled then begin
    let stack = stack () in
    let path = current_path stack name in
    let r =
      { Trace.name;
        path;
        depth = List.length !stack;
        domain = (Domain.self () :> int);
        start = Unix.gettimeofday ();
        duration = 0.;
        deltas = [];
        attrs }
    in
    add_record r
  end
