(* R11 fixture: reported under test/, so [tested] lands in the
   test-only section. *)
let run () = R11_exports.tested 0
