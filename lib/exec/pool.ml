(* A fixed-size domain pool with a single-slot task queue.

   The pool runs one job at a time.  A job is an array of tasks;
   participants (the submitting domain plus every worker domain) claim
   the next task index with one [Atomic.fetch_and_add] on a shared
   cursor, so no task is ever run twice and load balancing falls out of
   claim order.  The submitting domain always participates, which keeps
   the serial fallback and the parallel path on the same code shape and
   means a pool of size 1 never blocks on a condition variable. *)

type job = {
  j_id : int;
  j_n : int;
  j_next : int Atomic.t;     (* next unclaimed task index *)
  j_pending : int Atomic.t;  (* tasks not yet finished *)
  j_run : int -> unit;
  mutable j_failure : exn option;  (* first failure wins; guarded by [mu] *)
}

type t = {
  pool_size : int;
  mu : Mutex.t;
  work : Condition.t;      (* workers wait here for a fresh job *)
  finished : Condition.t;  (* the submitter waits here for completion *)
  mutable current : job option;
  mutable next_job_id : int;
  mutable stopping : bool;
  mutable domains : unit Domain.t list;
  (* Stats, guarded by [mu]. *)
  mutable jobs : int;
  mutable inline_jobs : int;
  mutable claims : int;
}

type stats = {
  size : int;
  parallel_jobs : int;
  serial_jobs : int;
  claim_ops : int;
  claim_adaptations : int;
}

(* Claim and run tasks of [job] until the cursor passes the last one.
   Called by the submitter and by any worker that saw the job; whoever
   finishes the last task wakes the submitter. *)
let run_tasks t job =
  let rec loop () =
    let i = Atomic.fetch_and_add job.j_next 1 in
    if i < job.j_n then begin
      (match job.j_failure with
      | Some _ -> ()  (* racy peek; worst case we run a doomed task *)
      | None -> (
        try job.j_run i
        with e ->
          Mutex.lock t.mu;
          (match job.j_failure with
          | None -> job.j_failure <- Some e
          | Some _ -> ());
          Mutex.unlock t.mu));
      if Atomic.fetch_and_add job.j_pending (-1) = 1 then begin
        Mutex.lock t.mu;
        Condition.broadcast t.finished;
        Mutex.unlock t.mu
      end;
      loop ()
    end
  in
  loop ()

let worker t =
  let last = ref (-1) in
  Mutex.lock t.mu;
  let rec loop () =
    if t.stopping then Mutex.unlock t.mu
    else
      match t.current with
      | Some job when not (job.j_id = !last) ->
        last := job.j_id;
        Mutex.unlock t.mu;
        run_tasks t job;
        Mutex.lock t.mu;
        loop ()
      | _ ->
        Condition.wait t.work t.mu;
        loop ()
  in
  loop ()

let create ~size =
  if size < 1 then invalid_arg "Pool.create: size must be >= 1";
  let t =
    { pool_size = size;
      mu = Mutex.create ();
      work = Condition.create ();
      finished = Condition.create ();
      current = None;
      next_job_id = 0;
      stopping = false;
      domains = [];
      jobs = 0;
      inline_jobs = 0;
      claims = 0 }
  in
  t.domains <-
    List.init (size - 1) (fun _ -> Domain.spawn (fun () -> worker t));
  Ltree_obs.Span.note ~kind:"exec"
    ~attrs:[ ("size", string_of_int size) ]
    "pool_created";
  t

let shutdown t =
  Mutex.lock t.mu;
  t.stopping <- true;
  Condition.broadcast t.work;
  Mutex.unlock t.mu;
  List.iter Domain.join t.domains;
  t.domains <- [];
  Ltree_obs.Span.note ~kind:"exec"
    ~attrs:[ ("jobs", string_of_int t.jobs) ]
    "pool_shutdown"

let with_pool ~size f =
  let t = create ~size in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let stats t =
  Mutex.lock t.mu;
  let s =
    { size = t.pool_size;
      parallel_jobs = t.jobs;
      serial_jobs = t.inline_jobs;
      claim_ops = t.claims;
      claim_adaptations = 0 }
  in
  Mutex.unlock t.mu;
  s

let serial_map t f arr =
  Mutex.lock t.mu;
  t.inline_jobs <- t.inline_jobs + 1;
  Mutex.unlock t.mu;
  Array.map f arr

let map t f arr =
  let n = Array.length arr in
  if n = 0 then [||]
  else if t.pool_size = 1 || n = 1 then serial_map t f arr
  else begin
    Mutex.lock t.mu;
    if t.stopping || Option.is_some t.current then begin
      (* After shutdown, or a re-entrant submission from inside a
         running task: run inline rather than deadlock on the job slot. *)
      Mutex.unlock t.mu;
      serial_map t f arr
    end
    else begin
      let out = Array.make n None in
      let job =
        { j_id = t.next_job_id;
          j_n = n;
          j_next = Atomic.make 0;
          j_pending = Atomic.make n;
          j_run = (fun i -> out.(i) <- Some (f arr.(i)));
          j_failure = None }
      in
      t.next_job_id <- t.next_job_id + 1;
      t.current <- Some job;
      Condition.broadcast t.work;
      Mutex.unlock t.mu;
      run_tasks t job;
      Mutex.lock t.mu;
      while Atomic.get job.j_pending > 0 do
        Condition.wait t.finished t.mu
      done;
      t.current <- None;
      t.jobs <- t.jobs + 1;
      t.claims <- t.claims + n;
      Mutex.unlock t.mu;
      (* One claim per task, for [exec_pool_claims_per_job]: a
         traced-only point written by the submitting domain. *)
      if Ltree_obs.Span.enabled () then
        Ltree_obs.Span.event ~attrs:[ ("claims", string_of_int n) ] "pool.job";
      (match job.j_failure with Some e -> raise e | None -> ());
      Array.map (function Some v -> v | None -> assert false) out
    end
  end

let default_size () =
  match Sys.getenv_opt "LTREE_DOMAINS" with
  | None -> 1
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some k when k >= 1 -> Int.min k 64
    | Some _ | None -> 1)
