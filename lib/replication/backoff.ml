type policy = {
  base : int;
  factor : int;
  cap : int;
  max_attempts : int;
  deadline : int;
}

let default_policy =
  { base = 1; factor = 2; cap = 16; max_attempts = 8; deadline = 200 }

type error =
  | Exhausted of { attempts : int }
  | Deadline_exceeded of { waited : int; deadline : int }

let pp_error ppf = function
  | Exhausted { attempts } ->
    Format.fprintf ppf "retries exhausted after %d attempts" attempts
  | Deadline_exceeded { waited; deadline } ->
    Format.fprintf ppf "send deadline exceeded (%d ticks waited, deadline %d)"
      waited deadline

let delay p ~attempt =
  if attempt <= 0 then invalid_arg "Backoff.delay: attempt must be >= 1";
  (* base * factor^(attempt-1), capped — computed with an explicit loop
     that stops at the cap so large attempt counts cannot overflow. *)
  let d = ref p.base in
  let i = ref 1 in
  while !i < attempt && !d < p.cap do
    d := !d * p.factor;
    incr i
  done;
  Int.min !d p.cap

let check p ~attempt ~waited =
  if waited > p.deadline then
    Error (Deadline_exceeded { waited; deadline = p.deadline })
  else if attempt >= p.max_attempts then Error (Exhausted { attempts = attempt })
  else Ok (delay p ~attempt:(attempt + 1))
