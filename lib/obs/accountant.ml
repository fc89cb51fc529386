type breach = {
  window_start : int;
  window_len : int;
  mean_relabels : float;
  bound : float;
  n : int;
}

exception Budget_exceeded of breach

let breach_to_string b =
  Printf.sprintf
    "amortized relabel budget exceeded: window of %d insertions starting at \
     #%d averaged %.2f relabels/insertion, bound %.2f (c*log2 n at n=%d)"
    b.window_len b.window_start b.mean_relabels b.bound b.n

(* The paper's Section 3.2 closed form gives the amortized update cost
   per insertion as h*(1 + 2f/(s-1)) + f with h = log_m n and m = f/s.
   Rewriting against log2 n and folding the +f constant (log2 n >= 1 for
   n >= 2) yields a per-insertion relabel budget of c * log2 n with

     c = (1 + 2f/(s-1)) / log2 (f/s) + f

   [default_c] computes that constant from the tree parameters; callers
   hand it the same (f, s) their tree uses so the invariant tracks the
   bound the analysis actually proves. *)
let default_c ~f ~s =
  let f = float_of_int f and s = float_of_int s in
  if Float.compare s 1. <= 0 || Float.compare (f /. s) 2. < 0 then
    invalid_arg "Accountant.default_c: need s > 1 and f/s >= 2";
  ((1. +. (2. *. f /. (s -. 1.))) /. (Float.log (f /. s) /. Float.log 2.)) +. f

type t = {
  c : float;
  window : int;
  mutable insertions : int;  (* total insertions noted *)
  mutable window_relabels : int;
  mutable window_count : int;
  mutable last_n : int;
  mutable breaches : breach list;  (* newest first *)
}

let create ?(c = 16.5) ?(window = 64) () =
  if window < 1 then invalid_arg "Accountant.create: window must be >= 1";
  if Float.compare c 0. <= 0 then
    invalid_arg "Accountant.create: c must be > 0";
  { c;
    window;
    insertions = 0;
    window_relabels = 0;
    window_count = 0;
    last_n = 0;
    breaches = [] }

let c t = t.c
let window t = t.window
let insertions t = t.insertions
let breaches t = List.rev t.breaches

let bound t ~n =
  let n = Int.max 2 n in
  t.c *. (Float.log (float_of_int n) /. Float.log 2.)

let close_window t =
  if t.window_count > 0 then begin
    let mean =
      float_of_int t.window_relabels /. float_of_int t.window_count
    in
    let bound = bound t ~n:t.last_n in
    if Float.compare mean bound > 0 then
      t.breaches <-
        { window_start = t.insertions - t.window_count;
          window_len = t.window_count;
          mean_relabels = mean;
          bound;
          n = t.last_n }
        :: t.breaches
  end;
  t.window_relabels <- 0;
  t.window_count <- 0

let note_batch t ~n ~count ~relabels =
  if relabels < 0 then invalid_arg "Accountant.note: negative relabels";
  if count < 1 then invalid_arg "Accountant.note_batch: count must be >= 1";
  t.insertions <- t.insertions + count;
  t.window_relabels <- t.window_relabels + relabels;
  t.window_count <- t.window_count + count;
  t.last_n <- n;
  if t.window_count >= t.window then close_window t

let note t ~n ~relabels = note_batch t ~n ~count:1 ~relabels

(* Judge a partial window only when it holds at least half a window's
   insertions: the bound is amortized, and a fragment dominated by one
   legitimately expensive insertion (a root grow relabels O(n) nodes)
   would breach spuriously.  Smaller fragments are discarded unjudged. *)
let flush t =
  if t.window_count * 2 >= t.window then close_window t
  else begin
    t.window_relabels <- 0;
    t.window_count <- 0
  end

let check t =
  flush t;
  match t.breaches with
  | [] -> ()
  | newest :: _ -> raise (Budget_exceeded newest)

let ok t =
  flush t;
  match t.breaches with [] -> true | _ :: _ -> false
