module Fault = Ltree_recovery.Fault
module Durable_doc = Ltree_recovery.Durable_doc

type config = {
  group_commit : int;
  replica_group_commit : int;
  checkpoint_every : int;
  shipper : Shipper.config;
  down_plan : Channel.plan;
  up_plan : Channel.plan;
  attach_pumps : int;
}

let default_config =
  {
    group_commit = 4;
    replica_group_commit = 4;
    checkpoint_every = 32;
    shipper = Shipper.default_config;
    down_plan = Channel.ideal;
    up_plan = Channel.ideal;
    attach_pumps = 32;
  }

type t = {
  config : config;
  replica_io : Fault.io;
  replica_dir : string;
  primary : Durable_doc.t;
  down : Channel.t;
  up : Channel.t;
  shipper : Shipper.t;
  mutable replica : Replica.t;
  mutable clock : int;
  mutable ops : int;
}

let primary t = t.primary
let replica t = t.replica
let shipper t = t.shipper
let clock t = t.clock
let down t = t.down
let up t = t.up

(* The session clock is the event ring's virtual clock: every move of
   one moves the other, so ring entries stamped without an explicit
   tick (the primary's causal appends) read the session clock. *)
let set_clock t n =
  t.clock <- n;
  Ltree_obs.Span.set_tick n

let pump t =
  set_clock t (t.clock + 1);
  Shipper.pump t.shipper ~now:t.clock;
  Replica.pump t.replica ~now:t.clock

let caught_up t =
  match Replica.applied_seq t.replica with
  | Some a -> a = Durable_doc.last_seq t.primary
  | None -> false

let create ?(config = default_config) ~primary_io ~primary_dir ~replica_io
    ~replica_dir ldoc =
  let primary =
    Durable_doc.initialize ~io:primary_io ~group_commit:config.group_commit
      ~dir:primary_dir ldoc
  in
  let down = Channel.create ~plan:config.down_plan () in
  let up = Channel.create ~plan:config.up_plan () in
  let shipper =
    Shipper.create ~io:primary_io ~dir:primary_dir ~store:primary ~down ~up
      ~config:config.shipper ()
  in
  let replica =
    Replica.create ~io:replica_io ~dir:replica_dir
      ~group_commit:config.replica_group_commit
      ~checkpoint_every:config.checkpoint_every ~inbox:down ~outbox:up ()
  in
  let t =
    {
      config;
      replica_io;
      replica_dir;
      primary;
      down;
      up;
      shipper;
      replica;
      clock = 0;
      ops = 0;
    }
  in
  set_clock t 0;
  Replica.hello replica ~now:0;
  (* Bounded attach: let the bootstrap snapshot round-trip. *)
  let pumps = ref 0 in
  while (not (caught_up t)) && !pumps < config.attach_pumps do
    pump t;
    incr pumps
  done;
  t

let apply t entry =
  Durable_doc.apply t.primary entry;
  t.ops <- t.ops + 1;
  if t.ops mod t.config.checkpoint_every = 0 then begin
    (* Flush, let the shipper chain the flushed records, then rotate —
       otherwise the checkpoint's truncation would eat journal records
       the shipper never saw. *)
    Durable_doc.sync t.primary;
    Shipper.pump t.shipper ~now:t.clock;
    Durable_doc.checkpoint t.primary
  end;
  pump t

let quiesce ?(max_pumps = 256) t =
  Durable_doc.sync t.primary;
  let pumps = ref 0 in
  while
    (not (caught_up t))
    && !pumps < max_pumps
    && Option.is_none (Shipper.failed t.shipper)
  do
    pump t;
    incr pumps
  done;
  caught_up t

let failover t = Replica.promote t.replica

let reconnect t =
  Channel.reconnect t.down;
  Channel.reconnect t.up;
  Shipper.reset t.shipper;
  set_clock t (t.clock + 1);
  Replica.hello t.replica ~now:t.clock

let replace_replica ?io ?store t =
  let io = Option.value io ~default:t.replica_io in
  let r =
    Replica.create ~io ~dir:t.replica_dir
      ~group_commit:t.config.replica_group_commit
      ~checkpoint_every:t.config.checkpoint_every ?store ~inbox:t.down
      ~outbox:t.up ()
  in
  t.replica <- r;
  set_clock t (t.clock + 1);
  Replica.hello r ~now:t.clock;
  r
