(** Amortized-cost accountant for relabelings per insertion.

    The paper (Section 3.1) bounds the amortized update cost of an
    insertion by h*(1 + 2f/(s-1)) + f with h = log_m n, i.e. O(log n)
    relabelings amortized.  The accountant tracks observed per-insertion
    relabel counts in fixed-size windows and flags any window whose mean
    exceeds [c * log2 n] -- a typed alert that the harness surfaces as
    the [obs.amortized-bound] invariant. *)

type breach = {
  window_start : int;  (** index of the first insertion in the window *)
  window_len : int;
  mean_relabels : float;
  bound : float;  (** [c * log2 n] at the window's last [n] *)
  n : int;  (** tree size when the window closed *)
}

exception Budget_exceeded of breach

val breach_to_string : breach -> string

(** [default_c ~f ~s] derives the budget constant from the tree
    parameters via the Section 3.1 closed form:
    [(1 + 2f/(s-1)) / log2 (f/s) + f].  Raises [Invalid_argument]
    unless [s > 1] and [f/s >= 2]. *)
val default_c : f:int -> s:int -> float

type t

(** [create ?c ?window ()] -- [c] defaults to [16.5] (the [default_c]
    of the harness parameters f=8, s=2, rounded up); [window] is the
    number of insertions per accounting window (default 64). *)
val create : ?c:float -> ?window:int -> unit -> t

val c : t -> float
val window : t -> int

(** Total insertions noted so far. *)
val insertions : t -> int

(** [bound t ~n] is [c * log2 (max 2 n)]. *)
val bound : t -> n:int -> float

(** [note t ~n ~relabels] records one insertion into a tree of [n]
    leaves that performed [relabels] relabelings.  Closes and judges the
    current window when it reaches [window] insertions. *)
val note : t -> n:int -> relabels:int -> unit

(** [note_batch t ~n ~count ~relabels] records [count] insertions that
    together performed [relabels] relabelings (a batch insert). *)
val note_batch : t -> n:int -> count:int -> relabels:int -> unit

(** All breaches of the windows closed so far, oldest first.  Unlike
    {!check} and {!ok} it does not flush: a partial window is not
    judged. *)
val breaches : t -> breach list

(** [check t] flushes and raises [Budget_exceeded] with the most recent
    breach, if any. *)
val check : t -> unit

(** [ok t] is [true] iff no window has breached (flushes first). *)
val ok : t -> bool
