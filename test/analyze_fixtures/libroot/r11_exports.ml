(* R11 fixture: [self_only] is referenced here and nowhere else; [dead]
   is referenced nowhere; [from_include] comes from [include S] in the
   interface and is never checked. *)
module type S = sig
  val from_include : int -> int
end

let from_include x = x + 1
let self_only x = x + 5
let used x = self_only x + 2
let via_alias x = x + 3
let via_let_module x = x + 7
let tested x = x + 4
let dead x = x + 6
