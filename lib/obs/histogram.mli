(** Fixed-bucket histograms: bucket counts, [count] and [sum].

    Buckets are defined by a strictly increasing array of upper bounds
    plus an implicit final +Inf bucket, matching the Prometheus
    histogram model.  A histogram is a local value: {!Exposition} builds
    one per series while it folds the event ring, so it takes no lock
    and keeps no observation beyond its bucket counts. *)

type t

(** Raises [Invalid_argument] on empty or non-increasing [bounds], or
    on a label with an empty or reserved ([le]) key.  [labels] name one
    series of the metric [name] (e.g. [("shard", "2")]); they are kept
    sorted by key and rendered inside the exposition braces before
    [le]. *)
val create :
  name:string ->
  help:string ->
  ?labels:(string * string) list ->
  bounds:float array ->
  unit ->
  t

val name : t -> string
val help : t -> string

(** Label pairs sorted by key; [[]] for an unlabeled histogram. *)
val labels : t -> (string * string) list

val bounds : t -> float array

(** [add t x] counts one observation [x] into its bucket, [count] and
    [sum]. *)
val add : t -> float -> unit

val count : t -> int
val sum : t -> float

(** Cumulative counts as exposed in Prometheus [_bucket{le=...}] lines:
    entry [i] counts observations at or below bound [i]; the final entry
    equals [count]. *)
val cumulative : t -> int array


(** {1 Bucket layouts} *)

(** [log2_bounds ~start ~count] is [start; 2*start; 4*start; ...] --
    log-bucketed, for latencies. *)
val log2_bounds : start:float -> count:int -> float array

(** [linear_bounds ~start ~step ~count] is [start; start+step; ...] --
    linear, for small-integer costs like relabel counts. *)
val linear_bounds : start:float -> step:float -> count:int -> float array
