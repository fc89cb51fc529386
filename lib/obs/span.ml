(* Global state: the process-wide event ring plus a per-domain stack of
   open span names.  The ring holds every entry -- span closes, point
   events and flight-recorder notes -- behind one mutex, so records
   from all domains land in one trace.  The stack is names only -- a
   span that is still open has no record yet; records are appended on
   exit, so the trace lists spans in completion order (children before
   parents).  The stack lives in domain-local storage so spans opened
   by worker domains nest among themselves and never interleave with
   another domain's path.  The enabled flag and the virtual-clock tick
   are atomics: the disabled span fast path and [set_tick] take no
   lock. *)

let on = Atomic.make true
let tick = Atomic.make 0
let ring_mu = Mutex.create ()
let ring = ref (Trace.create ~capacity:4096)

let stack_key : string list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let stack () = Domain.DLS.get stack_key

let locked f =
  Mutex.lock ring_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock ring_mu) f

let set_enabled b = Atomic.set on b
let enabled () = Atomic.get on
let set_tick n = Atomic.set tick n
let set_capacity capacity = locked (fun () -> ring := Trace.create ~capacity)
let set_capacity_for ~ops = set_capacity (8192 + (64 * ops))
let entries () = locked (fun () -> Trace.to_list !ring)
let dropped () = locked (fun () -> Trace.dropped !ring)

let is_span_or_point (r : Trace.record) =
  String.equal r.kind "span" || String.equal r.kind "point"

let records () = List.filter is_span_or_point (entries ())

let reset () =
  locked (fun () -> Trace.clear !ring);
  stack () := []

let current_path stack name = String.concat "/" (List.rev (name :: !stack))

(* An overwrite is counted by the ring itself ([Trace.dropped]); the
   exposition prints it as [obs_trace_dropped_total]. *)
let add r = locked (fun () -> Trace.add !ring r)

let note ?tick:tk ?(attrs = []) ~kind name =
  add
    { Trace.kind;
      name;
      path = name;
      depth = 0;
      domain = (Domain.self () :> int);
      tick = (match tk with Some n -> n | None -> Atomic.get tick);
      start = Unix.gettimeofday ();
      duration = 0.;
      deltas = [];
      attrs }

let finish ~name ~path ~depth ~start ~before ~attrs counters =
  let duration = Unix.gettimeofday () -. start in
  let deltas =
    match (counters, before) with
    | Some c, Some b -> Ltree_metrics.Counters.(to_assoc (diff c b))
    | _ -> []
  in
  let r =
    { Trace.kind = "span";
      name;
      path;
      depth;
      domain = (Domain.self () :> int);
      tick = Atomic.get tick;
      start;
      duration;
      deltas;
      attrs }
  in
  add r

let[@ltree.cold] traced ?(attrs = []) ~counters ~name fn =
  begin
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
      finish ~name ~path ~depth ~start ~before ~attrs counters;
      v
    | exception e ->
      pop ();
      let attrs = ("error", Printexc.to_string e) :: attrs in
      finish ~name ~path ~depth ~start ~before ~attrs counters;
      raise e
  end

(* Disabled fast path: one atomic flag read, then straight to [fn].  No
   clock read, no stack or DLS touch, no allocation — and none of the
   traced path's frame set-up, which lives in [traced].  R9 holds
   [with_] and [event] to that; [?attrs] is passed on undefaulted, since
   a defaulted optional argument makes the rest of the function a
   closure. *)
let[@ltree.hot] with_ ?attrs ?counters ~name fn =
  if not (Atomic.get on) then fn ()
  else (traced ?attrs ~counters ~name fn [@ltree.cold])

let[@ltree.cold] point ?(attrs = []) name =
  let stack = stack () in
  add
    { Trace.kind = "point";
      name;
      path = current_path stack name;
      depth = List.length !stack;
      domain = (Domain.self () :> int);
      tick = Atomic.get tick;
      start = Unix.gettimeofday ();
      duration = 0.;
      deltas = [];
      attrs }

let[@ltree.hot] event ?attrs name =
  if Atomic.get on then (point ?attrs name [@ltree.cold])
