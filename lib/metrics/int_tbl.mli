(** The project's one int-keyed hash table.

    The generic [Hashtbl] compares int keys with the polymorphic
    [caml_compare]; this instance compares them with [Int.equal].  Its
    hash is [Hashtbl.hash], the generic table's own (unseeded) hash, so
    a table converted from the generic one keeps its bucket layout and
    its iteration order byte for byte — row ids and replay orders that
    follow a table's iteration do not move.  It lives in the metrics
    library because every other library already links that one. *)

include Hashtbl.S with type key = int
