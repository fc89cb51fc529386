(* A fixed-size domain pool with a single-slot chunked job queue.

   The pool runs one job at a time.  A job is a half-open index range
   [lo, hi) cut into fixed-size chunks; participants (the submitting
   domain plus every worker domain) claim chunks with a single
   [Atomic.fetch_and_add] on a shared cursor, so no chunk is ever run
   twice and load balancing falls out of claim order.  The submitting
   domain always participates, which keeps the serial fallback and the
   parallel path on the same code shape and means a pool of size 1
   never blocks on a condition variable. *)

type job = {
  j_id : int;
  j_hi : int;
  j_chunk : int;
  j_k : int Atomic.t;        (* chunks claimed per cursor bump — adaptive *)
  j_next : int Atomic.t;     (* next un-claimed span start *)
  j_pending : int Atomic.t;  (* chunks not yet finished *)
  j_claims : int Atomic.t;   (* claim (fetch_and_add) operations issued *)
  j_adapts : int Atomic.t;   (* times the claim size was halved (skew) *)
  j_span_us : int Atomic.t;  (* wall time of completed spans, microseconds *)
  j_spans : int Atomic.t;    (* completed spans *)
  j_body : int -> int -> unit;
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
  (* Stats, guarded by [mu] except [worker_tasks] whose slot [k] is
     only ever written by participant [k]. *)
  mutable jobs : int;
  mutable inline_jobs : int;
  mutable tasks : int;
  mutable claims : int;
  mutable adapts : int;
  worker_tasks : int array;  (* per participant; slot 0 = submitter *)
}

type stats = {
  size : int;
  parallel_jobs : int;
  serial_jobs : int;
  chunk_tasks : int;
  claim_ops : int;
  claim_adaptations : int;
  per_worker : int array;
}

(* A span must run this long (µs) before it may count as "dominating":
   the skew detector compares span wall times, and without an absolute
   floor the sub-µs jitter of trivially fast spans (mean rounding to 0)
   would read as domination and thrash the claim size. *)
let adapt_floor_us = 1000

(* Halve the job's claim size once: a participant discovered that its
   span dominates wall time, so future claims should be finer-grained
   and the tail can rebalance across the other participants. *)
let halve_claim job =
  let cur = Atomic.get job.j_k in
  if cur > 1 && Atomic.compare_and_set job.j_k cur (Int.max 1 (cur / 2)) then
    Atomic.incr job.j_adapts

(* [elapsed] µs into a span: does it dominate the completed spans'
   mean?  Only meaningful once at least one other span has finished. *)
let span_dominates job elapsed_us =
  elapsed_us > adapt_floor_us
  &&
  let spans = Atomic.get job.j_spans in
  spans > 0 && elapsed_us > 2 * (Atomic.get job.j_span_us / spans)

(* Run chunks of [job] until the claim cursor is exhausted.  Called by
   the submitter (slot 0) and by any worker that saw the job.  Each
   cursor bump claims a span of [j_k * j_chunk] indices — K whole
   chunks — and the span is then run chunk by chunk on aligned
   boundaries, so bodies still see exactly the chunk grid the submitter
   described while paying 1/K of the atomic traffic.

   K is adaptive: spans are wall-timed (only while K > 1), and a
   participant whose span dominates the completed-span mean halves the
   shared K — the fixed nchunks/(4·pool) batching regresses skewed
   workloads where one chunk holds all the hot rows, so once skew shows
   up the remaining range is claimed at finer grain.  The halving is
   checked between chunks (mid-span, so the straggler shrinks claims
   while it is still running) and once more at span end. *)
let run_chunks t job ~slot =
  let rec loop () =
    let k = Atomic.get job.j_k in
    let claim = k * job.j_chunk in
    let start = Atomic.fetch_and_add job.j_next claim in
    if start < job.j_hi then begin
      Atomic.incr job.j_claims;
      let span_stop = Int.min job.j_hi (start + claim) in
      let timed = k > 1 in
      let t0 = if timed then Unix.gettimeofday () else 0.0 in
      let halved = ref false in
      let pos = ref start in
      let ran = ref 0 in
      while !pos < span_stop do
        let stop = Int.min job.j_hi (!pos + job.j_chunk) in
        (match job.j_failure with
        | Some _ -> ()  (* racy peek; worst case we run a doomed chunk *)
        | None -> (
          try job.j_body !pos stop
          with e ->
            Mutex.lock t.mu;
            (match job.j_failure with
            | None -> job.j_failure <- Some e
            | Some _ -> ());
            Mutex.unlock t.mu));
        t.worker_tasks.(slot) <- t.worker_tasks.(slot) + 1;
        incr ran;
        pos := !pos + job.j_chunk;
        if timed && not !halved && !pos < span_stop then begin
          let us =
            int_of_float ((Unix.gettimeofday () -. t0) *. 1e6)
          in
          if span_dominates job us then begin
            halve_claim job;
            halved := true
          end
        end
      done;
      if timed then begin
        let us = int_of_float ((Unix.gettimeofday () -. t0) *. 1e6) in
        if (not !halved) && span_dominates job us then halve_claim job;
        ignore (Atomic.fetch_and_add job.j_span_us us);
        Atomic.incr job.j_spans
      end;
      let left = Atomic.fetch_and_add job.j_pending (- !ran) - !ran in
      if left = 0 then begin
        Mutex.lock t.mu;
        (match t.current with
        | Some j when j.j_id = job.j_id -> t.current <- None
        | _ -> ());
        Condition.broadcast t.finished;
        Mutex.unlock t.mu
      end;
      loop ()
    end
  in
  loop ()

let worker t ~slot =
  let last = ref (-1) in
  Mutex.lock t.mu;
  let rec loop () =
    if t.stopping then Mutex.unlock t.mu
    else
      match t.current with
      | Some job when not (job.j_id = !last) ->
        last := job.j_id;
        Mutex.unlock t.mu;
        run_chunks t job ~slot;
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
      tasks = 0;
      claims = 0;
      adapts = 0;
      worker_tasks = Array.make size 0 }
  in
  t.domains <-
    List.init (size - 1) (fun i -> Domain.spawn (fun () -> worker t ~slot:(i + 1)));
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
      chunk_tasks = t.tasks;
      claim_ops = t.claims;
      claim_adaptations = t.adapts;
      per_worker = Array.copy t.worker_tasks }
  in
  Mutex.unlock t.mu;
  s

let note_job t ~nchunks ~claims ~adapts =
  Mutex.lock t.mu;
  t.jobs <- t.jobs + 1;
  t.tasks <- t.tasks + nchunks;
  t.claims <- t.claims + claims;
  t.adapts <- t.adapts + adapts;
  Mutex.unlock t.mu;
  (* The job's claims, for [exec_pool_claims_per_job]: a traced-only
     point written by the submitting domain. *)
  if Ltree_obs.Span.enabled () then
    Ltree_obs.Span.event
      ~attrs:[ ("claims", string_of_int claims) ]
      "pool.job"

let serial_run t body lo hi =
  Mutex.lock t.mu;
  t.inline_jobs <- t.inline_jobs + 1;
  Mutex.unlock t.mu;
  body lo hi

let parallel_for ?chunk t ~lo ~hi body =
  let n = hi - lo in
  if n > 0 then begin
    let chunk =
      match chunk with
      | Some c when c > 0 -> c
      | _ ->
        (* about four chunks per participant, so stragglers rebalance *)
        Int.max 1 ((n + (4 * t.pool_size) - 1) / (4 * t.pool_size))
    in
    if t.pool_size = 1 || n <= chunk then serial_run t body lo hi
    else begin
      Mutex.lock t.mu;
      if t.stopping then begin
        Mutex.unlock t.mu;
        serial_run t body lo hi
      end
      else
        match t.current with
        | Some _ ->
          (* Re-entrant submission from inside a running task: run
             inline rather than deadlock on the single job slot. *)
          Mutex.unlock t.mu;
          serial_run t body lo hi
        | None ->
          let nchunks = (n + chunk - 1) / chunk in
          (* Claim K chunks per atomic bump — enough spans for about
             four claims per participant so the tail still rebalances,
             while big ranges stop hammering the cursor. *)
          let k = Int.max 1 (nchunks / (4 * t.pool_size)) in
          let job =
            { j_id = t.next_job_id;
              j_hi = hi;
              j_chunk = chunk;
              j_k = Atomic.make k;
              j_next = Atomic.make lo;
              j_pending = Atomic.make nchunks;
              j_claims = Atomic.make 0;
              j_adapts = Atomic.make 0;
              j_span_us = Atomic.make 0;
              j_spans = Atomic.make 0;
              j_body = body;
              j_failure = None }
          in
          t.next_job_id <- t.next_job_id + 1;
          t.current <- Some job;
          Condition.broadcast t.work;
          Mutex.unlock t.mu;
          run_chunks t job ~slot:0;
          Mutex.lock t.mu;
          while Atomic.get job.j_pending > 0 do
            Condition.wait t.finished t.mu
          done;
          Mutex.unlock t.mu;
          note_job t ~nchunks ~claims:(Atomic.get job.j_claims)
            ~adapts:(Atomic.get job.j_adapts);
          (match job.j_failure with Some e -> raise e | None -> ())
    end
  end

let map ?chunk t f arr =
  let n = Array.length arr in
  let out = Array.make n None in
  parallel_for ?chunk t ~lo:0 ~hi:n (fun lo hi ->
      for i = lo to hi - 1 do
        out.(i) <- Some (f arr.(i))
      done);
  Array.map (function Some v -> v | None -> assert false) out

let default_size () =
  match Sys.getenv_opt "LTREE_DOMAINS" with
  | None -> 1
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some k when k >= 1 -> Int.min k 64
    | Some _ | None -> 1)
