(* R11 fixture: a non-test user of [R11_exports], directly, through a
   module alias and through a local [let module] alias. *)
module E = R11_exports

let run x = R11_exports.used x + E.via_alias x

let run_local x =
  let module L = R11_exports in
  L.via_let_module x
