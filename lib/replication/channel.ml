module Fault = Ltree_recovery.Fault
module Prng = Ltree_workload.Prng

type plan = {
  seed : int;
  noise_every : int;
  noise_modes : Fault.mode list;
  delay_ticks : int;
  reorder_window : int;
  sever_at : (int * Fault.mode) option;
}

let ideal = {
  seed = 0;
  noise_every = 0;
  noise_modes = [];
  delay_ticks = 2;
  reorder_window = 3;
  sever_at = None;
}

type stats = {
  sent : int;
  delivered : int;
  dropped : int;
  damaged : int;
  delayed : int;
}

type chunk = { deliver_at : int; order : int; bytes : string }

type t = {
  plan : plan;
  rng : Prng.t;
  mutable in_flight : chunk list;  (* unordered; sorted at drain *)
  mutable floor : int;
      (* no chunk may be delivered before this tick: a short-read
         remainder is *bytes mid-stream*, so traffic behind it must not
         overtake it (whole delayed chunks may reorder; split ones must
         not, or unrelated frames merge into the partial line) *)
  mutable next_order : int;
  mutable send_count : int;
  mutable severed : bool;
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable damaged : int;
  mutable delayed : int;
}

let create ?(plan = ideal) () =
  {
    plan;
    rng = Prng.create plan.seed;
    in_flight = [];
    floor = 0;
    next_order = 0;
    send_count = 0;
    severed = false;
    sent = 0;
    delivered = 0;
    dropped = 0;
    damaged = 0;
    delayed = 0;
  }

let severed t = t.severed

let sever t ~now =
  Ltree_obs.Span.note ~tick:now ~kind:"channel"
    ~attrs:[ ("backlog", string_of_int (List.length t.in_flight)) ]
    "severed";
  t.severed <- true;
  (* Chunks already due sit in the receiver's buffer and survive; the
     rest of the backlog dies with the connection. *)
  let kept, lost = List.partition (fun c -> c.deliver_at <= now) t.in_flight in
  t.dropped <- t.dropped + List.length lost;
  t.in_flight <- kept;
  t.floor <- 0

let reconnect t = t.severed <- false

let stats t =
  {
    sent = t.sent;
    delivered = t.delivered;
    dropped = t.dropped;
    damaged = t.damaged;
    delayed = t.delayed;
  }

let enqueue t ~deliver_at bytes =
  let c =
    { deliver_at = Int.max deliver_at t.floor; order = t.next_order; bytes }
  in
  t.next_order <- t.next_order + 1;
  t.in_flight <- c :: t.in_flight

let torn_prefix rng bytes =
  let len = String.length bytes in
  if len = 0 then "" else String.sub bytes 0 (Prng.int rng len)

let flip_bit rng bytes =
  let len = String.length bytes in
  if len = 0 then bytes
  else begin
    let b = Bytes.of_string bytes in
    let i = Prng.int rng len in
    let bit = Prng.int rng 8 in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
    Bytes.to_string b
  end

(* Deliver one chunk under a damage mode.  [terminal] marks the chunk
   carried by a sever: its delayed remainders/copies never arrive. *)
let inject t ~now ~mode ~terminal bytes =
  Ltree_obs.Span.note ~tick:now ~kind:"fault"
    ~attrs:
      [ ("mode", Fault.mode_name mode);
        ("bytes", string_of_int (String.length bytes)) ]
    "channel_inject";
  match (mode : Fault.mode) with
  | Clean -> t.dropped <- t.dropped + 1
  | Torn ->
    t.damaged <- t.damaged + 1;
    enqueue t ~deliver_at:now (torn_prefix t.rng bytes)
  | Flip ->
    t.damaged <- t.damaged + 1;
    enqueue t ~deliver_at:now (flip_bit t.rng bytes)
  | Short_read ->
    t.delayed <- t.delayed + 1;
    let len = String.length bytes in
    let cut = if len = 0 then 0 else Prng.int t.rng len in
    enqueue t ~deliver_at:now (String.sub bytes 0 cut);
    if not terminal then begin
      let rem_at = Int.max (now + t.plan.delay_ticks) t.floor in
      enqueue t ~deliver_at:rem_at (String.sub bytes cut (len - cut));
      t.floor <- rem_at
    end
  | Delay ->
    if terminal then t.dropped <- t.dropped + 1
    else begin
      t.delayed <- t.delayed + 1;
      enqueue t
        ~deliver_at:(now + 1 + Prng.int t.rng (Int.max 1 t.plan.reorder_window))
        bytes
    end

let send t ~now bytes =
  if t.severed then t.dropped <- t.dropped + 1
  else begin
    t.send_count <- t.send_count + 1;
    t.sent <- t.sent + 1;
    match t.plan.sever_at with
    | Some (at, mode) when t.send_count = at ->
      inject t ~now ~mode ~terminal:true bytes;
      sever t ~now
    | _ ->
      let noisy =
        t.plan.noise_every > 0
        && t.send_count mod t.plan.noise_every = 0
        && not (List.is_empty t.plan.noise_modes)
      in
      if noisy then
        let mode = Prng.pick t.rng (Array.of_list t.plan.noise_modes) in
        inject t ~now ~mode ~terminal:false bytes
      else enqueue t ~deliver_at:now bytes
  end

let chunk_compare a b =
  let c = Int.compare a.deliver_at b.deliver_at in
  if c <> 0 then c else Int.compare a.order b.order

let drain t ~now =
  let due, later =
    List.partition (fun c -> c.deliver_at <= now) t.in_flight
  in
  t.in_flight <- later;
  let due = List.sort chunk_compare due in
  t.delivered <- t.delivered + List.length due;
  List.map (fun c -> c.bytes) due

