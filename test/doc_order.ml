(* A label plan's answer against an id-sorted oracle: the same set,
   listed in document order (start labels strictly increasing). *)

let agrees ldoc got want =
  List.equal Int.equal (List.sort Int.compare got) want
  && Ltree_doc.Labeled_doc.in_document_order ldoc got

let check what ldoc want got =
  Alcotest.(check (list int)) what want (List.sort Int.compare got);
  Alcotest.(check bool) (what ^ ": document order") true
    (Ltree_doc.Labeled_doc.in_document_order ldoc got)
