(* XPath subset: parser round-trips, reference answers on handcrafted
   documents, and DOM-vs-label evaluator equivalence on generated ones. *)

open Ltree_xml
open Ltree_xpath
module Labeled_doc = Ltree_doc.Labeled_doc
module Xml_gen = Ltree_workload.Xml_gen
module Prng = Ltree_workload.Prng

let case = Alcotest.test_case

let parse_roundtrip () =
  List.iter
    (fun src ->
      let ast = Xpath_parser.parse src in
      Alcotest.(check string) ("round-trip " ^ src) src (Ast.to_string ast);
      Alcotest.(check bool) "reparse" true
        (Ast.equal ast (Xpath_parser.parse (Ast.to_string ast))))
    [ "/a"; "//a"; "/a/b"; "/a//b"; "a//b"; "//a/*"; "//a/text()";
      "/a[@x]"; "/a[@x='1']/b[2]"; "//item[name]/listitem";
      "/a/ancestor::b"; "//a/ancestor-or-self::*"; "/a/self::a";
      "/a/parent::*"; "//b/following::c"; "//b/preceding::*[2]";
      "//b/following-sibling::c"; "//b/preceding-sibling::text()";
      "descendant::a/b";
      (* The predicate language. *)
      "/a[last()]"; "/a[@x!='1']"; "//a[b and @c]"; "//a[b or c or d]";
      "//a[not(@x)]"; "//a[not(b and c)]"; "//a[b/c]"; "//a[b//text()]";
      "//a[ancestor::b]"; "//a[following-sibling::b[@x]]";
      "//a[(b or c) and @x]"; "//a[1 or last()]" ]

let parse_abbreviations () =
  let norm s = Ast.to_string (Xpath_parser.parse s) in
  Alcotest.(check string) ".. is parent" "/a/parent::*" (norm "/a/..");
  Alcotest.(check string) ". is self" "/a/self::*" (norm "/a/.");
  Alcotest.(check string) "child explicit" "/a/b" (norm "/child::a/child::b")

let parse_errors () =
  List.iter
    (fun src ->
      Alcotest.(check bool) ("rejects " ^ src) true
        (try
           ignore (Xpath_parser.parse src);
           false
         with Xpath_parser.Error _ -> true))
    [ ""; "/"; "//"; "/a["; "/a[]"; "/a[@]"; "/a[0]"; "/a[@x=1]"; "a b";
      "//ancestor::a"; "//.."; "/a/unknown::b"; "/a/::b" ]

let doc_src =
  "<book id=\"1\"><chapter><title>One</title><section><title>Sub</title>\
   </section></chapter><chapter kind=\"appendix\"><title>Two</title>\
   </chapter><title>Main</title></book>"

let eval_names doc path =
  List.map
    (fun n -> match Dom.kind n with Dom.Element e -> e | _ -> "#text")
    (Dom_eval.eval doc (Xpath_parser.parse path))

let dom_eval_known () =
  let doc = Parser.parse_string doc_src in
  let count path = List.length (Dom_eval.eval doc (Xpath_parser.parse path)) in
  (* The paper's motivating query shape. *)
  Alcotest.(check int) "book//title" 4 (count "book//title");
  Alcotest.(check int) "/book/title" 1 (count "/book/title");
  Alcotest.(check int) "//chapter//title" 3 (count "//chapter//title");
  Alcotest.(check int) "//chapter/title" 2 (count "//chapter/title");
  Alcotest.(check int) "//section" 1 (count "//section");
  Alcotest.(check int) "//chapter[@kind='appendix']" 1
    (count "//chapter[@kind='appendix']");
  Alcotest.(check int) "//chapter[@kind]" 1 (count "//chapter[@kind]");
  Alcotest.(check int) "//chapter[section]" 1 (count "//chapter[section]");
  Alcotest.(check int) "//chapter[2]" 1 (count "//chapter[2]");
  Alcotest.(check int) "//title/text()" 4 (count "//title/text()");
  Alcotest.(check int) "/nosuch" 0 (count "/nosuch");
  Alcotest.(check int) "//*" 8 (count "//*");
  Alcotest.(check (list string)) "doc order" [ "title"; "title"; "title"; "title" ]
    (eval_names doc "book//title")

let label_eval_known () =
  let doc = Parser.parse_string doc_src in
  let ldoc = Labeled_doc.of_document doc in
  let engine = Label_eval.create ldoc in
  let count path = List.length (Label_eval.eval_string engine path) in
  Alcotest.(check int) "book//title" 4 (count "book//title");
  Alcotest.(check int) "//chapter/title" 2 (count "//chapter/title");
  Alcotest.(check int) "//chapter[2]" 1 (count "//chapter[2]");
  Alcotest.(check int) "//title/text()" 4 (count "//title/text()");
  (* Document order must match label order. *)
  let titles = Label_eval.eval_string engine "book//title" in
  let dom_titles = Dom_eval.eval doc (Xpath_parser.parse "book//title") in
  Alcotest.(check (list int)) "same nodes in same order"
    (List.map Dom.id dom_titles)
    (List.map Dom.id titles)

let axes_known () =
  let doc = Parser.parse_string doc_src in
  let ldoc = Labeled_doc.of_document doc in
  let engine = Label_eval.create ldoc in
  let both path =
    let ast = Xpath_parser.parse path in
    let d = List.map Dom.id (Dom_eval.eval doc ast) in
    let l = List.map Dom.id (Label_eval.eval engine ast) in
    Alcotest.(check (list int)) ("engines agree on " ^ path) d l;
    List.length d
  in
  Alcotest.(check int) "title ancestors" 3 (both "//section/title/ancestor::*");
  Alcotest.(check int) "ancestor-or-self" 4
    (both "//section/title/ancestor-or-self::*");
  Alcotest.(check int) "nearest chapter ancestor" 1
    (both "//section/title/ancestor::chapter[1]");
  (* Reverse-axis proximity: position 1 on ancestor::* is the parent, not
     the root (regression: Dom_eval once returned farthest-first). *)
  (match Dom_eval.eval doc (Xpath_parser.parse "//section/title/ancestor::*[1]") with
   | [ n ] -> Alcotest.(check string) "nearest ancestor is section" "section"
                (Dom.name n)
   | _ -> Alcotest.fail "expected exactly one nearest ancestor");
  Alcotest.(check int) "parent" 1 (both "//section/parent::chapter");
  Alcotest.(check int) "self keeps" 1 (both "//section/self::section");
  Alcotest.(check int) "self filters" 0 (both "//section/self::title");
  Alcotest.(check int) "following" 2 (both "//section/following::title");
  Alcotest.(check int) "preceding titles" 1 (both "//section/preceding::title");
  Alcotest.(check int) "following-sibling" 2
    (both "/book/chapter[1]/following-sibling::*");
  Alcotest.(check int) "preceding-sibling" 2
    (both "/book/title/preceding-sibling::chapter");
  Alcotest.(check int) "dotdot" 1 (both "//section/..");
  Alcotest.(check int) "dot" 1 (both "//section/.");
  Alcotest.(check int) "last()" 1 (both "/book/chapter[last()][@kind]");
  Alcotest.(check int) "attr neq" 1 (both "//chapter[@kind!='x']");
  Alcotest.(check int) "attr neq absent attr" 0 (both "//chapter[@nope!='x']");
  Alcotest.(check int) "and" 1 (both "//chapter[title and section]");
  Alcotest.(check int) "or" 2 (both "//chapter[section or @kind]");
  Alcotest.(check int) "not" 1 (both "//chapter[not(section)]");
  Alcotest.(check int) "path predicate" 1 (both "//chapter[section/title]");
  Alcotest.(check int) "deep path predicate" 1 (both "/book[chapter//title]");
  Alcotest.(check int) "axis in predicate" 3
    (both "//title[ancestor::chapter]");
  Alcotest.(check int) "parens" 2 (both "//chapter[(section or @kind) and title]");
  Alcotest.(check int) "position or last" 2
    (both "//chapter[1 or last()]");
  (* following/preceding partition the document around a node's subtree
     (minus ancestors). *)
  let all = both "//*" in
  let f = both "//section/following::*" in
  let p = both "//section/preceding::*" in
  let within = both "//section/descendant::*" + both "//section/self::*" in
  let ancs = both "//section/ancestor::*" in
  Alcotest.(check int) "partition" all (f + p + within + ancs)

(* Generate random paths over the generator's vocabulary and check both
   engines agree on generated documents. *)
let axes =
  [| "child"; "descendant"; "self"; "parent"; "ancestor"; "ancestor-or-self";
     "following"; "preceding"; "following-sibling"; "preceding-sibling" |]

let random_path prng tags =
  let step ~allow_axis =
    let test =
      match Prng.int prng 6 with
      | 0 -> "*"
      | 1 -> "text()"
      | _ -> tags.(Prng.int prng (Array.length tags))
    in
    let axis =
      if allow_axis && Prng.int prng 3 = 0 then
        axes.(Prng.int prng (Array.length axes)) ^ "::"
      else ""
    in
    let tag () = tags.(Prng.int prng (Array.length tags)) in
    let atom () =
      match Prng.int prng 5 with
      | 0 -> string_of_int (1 + Prng.int prng 3)
      | 1 -> tag ()
      | 2 -> "last()"
      | 3 -> Printf.sprintf "%s//%s" (tag ()) (tag ())
      | _ -> Printf.sprintf "not(%s)" (tag ())
    in
    let pred =
      match Prng.int prng 8 with
      | 0 -> Printf.sprintf "[%s]" (atom ())
      | 1 -> Printf.sprintf "[%s and %s]" (atom ()) (atom ())
      | 2 -> Printf.sprintf "[%s or %s]" (atom ()) (atom ())
      | _ -> ""
    in
    axis ^ test ^ pred
  in
  let steps = 1 + Prng.int prng 3 in
  let lead = match Prng.int prng 3 with 0 -> "" | 1 -> "/" | _ -> "//" in
  lead
  ^ String.concat ""
      (List.init steps (fun i ->
           if i = 0 then step ~allow_axis:(lead <> "//")
           else if Prng.bool prng then "/" ^ step ~allow_axis:true
           else "//" ^ step ~allow_axis:false))

let engines_agree_prop =
  QCheck.Test.make ~count:60 ~name:"dom and label engines agree"
    QCheck.(make Gen.(pair (int_bound 100_000) (int_range 30 400)))
    (fun (seed, size) ->
      let prng = Prng.create (seed + 7) in
      let profile = Xml_gen.default_profile ~target_nodes:size () in
      let doc = Xml_gen.generate ~seed profile in
      let ldoc = Labeled_doc.of_document doc in
      let engine = Label_eval.create ldoc in
      let tags = Array.append [| "site" |] profile.Xml_gen.tags in
      let ok = ref true in
      for _ = 1 to 15 do
        let path =
          try Some (Xpath_parser.parse (random_path prng tags))
          with Xpath_parser.Error _ -> None
        in
        match path with
        | None -> ()
        | Some path ->
          let a = List.map Dom.id (Dom_eval.eval doc path) in
          let b = List.map Dom.id (Label_eval.eval engine path) in
          if a <> b then begin
            Printf.printf "path %s diverged: dom=%d label=%d\n"
              (Ast.to_string path) (List.length a) (List.length b);
            ok := false
          end
      done;
      !ok)

(* One long-lived engine over random insert/delete/move/compact
   schedules: after every batch both engines must agree on random paths,
   the label engine's tag index must pass its check (before the queries
   repair it and after) and the labeled document must pass its own
   check.  Half the schedules call [refresh] after each edit, half
   leave it to [eval].  Paths run before the first edit too, so index
   entries exist to be kept current. *)
let engines_agree_under_edits_prop =
  QCheck.Test.make ~count:60 ~name:"dom and label engines agree under edits"
    QCheck.(make Gen.(triple (int_bound 100_000) (int_range 30 200) bool))
    (fun (seed, size, explicit_refresh) ->
      let prng = Prng.create (seed + 11) in
      let profile = Xml_gen.default_profile ~target_nodes:size () in
      let doc = Xml_gen.generate ~seed profile in
      let ldoc = Labeled_doc.of_document doc in
      let engine = Label_eval.create ldoc in
      let tags = Array.append [| "site" |] profile.Xml_gen.tags in
      let root = Option.get doc.root in
      let tag () = tags.(Prng.int prng (Array.length tags)) in
      let fragment () =
        let a = tag () and b = tag () in
        Parser.parse_fragment
          (Printf.sprintf "<%s>w<%s/><%s>v</%s></%s>" a b a a a)
      in
      let edit () =
        let elements = List.filter Dom.is_element (Dom.descendants root) in
        let pick () =
          List.nth elements (Prng.int prng (List.length elements))
        in
        match Prng.int prng 8 with
        | 0 | 1 ->
          let n = pick () in
          if n != root then Labeled_doc.delete_subtree ldoc n
        | 2 ->
          let node = pick () and parent = pick () in
          let rec inside p =
            p == node
            || match Dom.parent p with None -> false | Some q -> inside q
          in
          if node != root && not (inside parent) then begin
            let slots =
              Dom.child_count parent
              - match Dom.parent node with
                | Some p when p == parent -> 1
                | Some _ | None -> 0
            in
            (* a move: tombstone the subtree, label it again *)
            Labeled_doc.delete_subtree ldoc node;
            Labeled_doc.insert_subtree ldoc ~parent
              ~index:(Prng.int prng (slots + 1)) node
          end
        | 3 -> Labeled_doc.compact ldoc
        | _ ->
          let parent = pick () in
          Labeled_doc.insert_subtree ldoc ~parent
            ~index:(Prng.int prng (Dom.child_count parent + 1))
            (fragment ())
      in
      let ok = ref true in
      let agree () =
        for _ = 1 to 8 do
          match
            try Some (Xpath_parser.parse (random_path prng tags))
            with Xpath_parser.Error _ -> None
          with
          | None -> ()
          | Some path ->
            let a = List.map Dom.id (Dom_eval.eval doc path) in
            let b = List.map Dom.id (Label_eval.eval engine path) in
            if a <> b then begin
              Printf.printf "after edits, path %s diverged: dom=%d label=%d\n"
                (Ast.to_string path) (List.length a) (List.length b);
              ok := false
            end
        done
      in
      agree ();
      for _ = 1 to 8 do
        for _ = 1 to 1 + Prng.int prng 4 do
          edit ();
          if explicit_refresh then Label_eval.refresh engine
        done;
        Label_eval.check engine;
        agree ();
        Label_eval.check engine;
        Labeled_doc.check ldoc
      done;
      !ok)

let leading_step_corners () =
  let doc = Parser.parse_string doc_src in
  let ldoc = Labeled_doc.of_document doc in
  let engine = Label_eval.create ldoc in
  let both path =
    let ast = Xpath_parser.parse path in
    let d = List.map Dom.id (Dom_eval.eval doc ast) in
    let l = List.map Dom.id (Label_eval.eval engine ast) in
    Alcotest.(check (list int)) ("engines agree on " ^ path) d l;
    List.length d
  in
  (* Leading explicit axes from the document node. *)
  Alcotest.(check int) "descendant:: leading" 8 (both "descendant::*");
  Alcotest.(check int) "self on root name" 1 (both "/book");
  Alcotest.(check int) "leading reverse axis is empty" 0
    (both "/parent::*");
  Alcotest.(check int) "leading following is empty" 0 (both "/following::*");
  (* Predicates on the first step. *)
  Alcotest.(check int) "first-step predicate" 1 (both "/book[chapter]");
  Alcotest.(check int) "first-step position" 1 (both "//chapter[1]/title");
  (* text() as leading descendant step. *)
  Alcotest.(check int) "leading text()" 4 (both "//text()");
  (* A path that ends on a reverse axis after //; results dedup. *)
  Alcotest.(check int) "// then ancestor" 2
    (both "//title/ancestor::chapter")

(* The evaluator's label ranges at their edges, reverse-axis proximity,
   and predicates whose nested steps reuse the workspace while the
   enclosing step still has context groups to read. *)
let range_doc_src =
  "<r><a><b><c/><c>x</c></b><b><c/><c><d/></c></b><e/></a>\
   <a><b><c><d/></c></b><b/><b><c/><c><d/></c></b></a><a><f/></a></r>"

let range_edges () =
  let doc = Parser.parse_string range_doc_src in
  let engine = Label_eval.create (Labeled_doc.of_document doc) in
  let both path want =
    let ast = Xpath_parser.parse path in
    let d = List.map Dom.id (Dom_eval.eval doc ast) in
    let l = List.map Dom.id (Label_eval.eval engine ast) in
    Alcotest.(check (list int)) ("engines agree on " ^ path) d l;
    Alcotest.(check int) ("answer size of " ^ path) want (List.length d)
  in
  (* first and last child *)
  both "/r/a[1]/b[1]/following-sibling::*" 2;
  both "/r/a[1]/b[1]/preceding-sibling::*" 0;
  both "/r/a[1]/e/following-sibling::*" 0;
  both "/r/a[1]/e/preceding-sibling::*" 2;
  both "/r/a[1]/b[1]/c[1]/preceding::*" 0;
  both "/r/a[3]/f/following::*" 0;
  (* the root as context *)
  both "/r/following-sibling::*" 0;
  both "/r/preceding-sibling::*" 0;
  both "/r/following::*" 0;
  both "/r/preceding::*" 0;
  both "/r/parent::*" 0;
  both "/r/ancestor::*" 0;
  both "/r/ancestor-or-self::r" 1;
  both "/r/self::r" 1;
  (* a parent with one child *)
  both "/r/a[3]/f/following-sibling::*" 0;
  both "/r/a[3]/f/preceding-sibling::*" 0;
  both "/r/a[3]/f/parent::a" 1;
  both "//f/preceding::a" 2;
  (* empty results *)
  both "//a/b[4]" 0;
  both "//d/following-sibling::*" 0;
  both "//f/following::b" 0;
  both "//c/following::text()" 1;
  both "//d/preceding::text()" 1;
  (* reverse-axis proximity *)
  both "//d/preceding::*[1]" 3;
  both "//c/preceding-sibling::*[2]" 0;
  both "//b/preceding-sibling::*[2]" 1;
  both "//e/preceding-sibling::*[2]" 1;
  both "//d/ancestor::*[last()]" 1;
  both "//d/ancestor::*[2]" 3;
  both "//c/preceding::*[last()]" 3;
  both "//b/following-sibling::*[1]" 4;
  both "//c/following::*[2]" 7;
  (* Nested predicates, with positions at both levels.  Their steps
     reuse the workspace and both step entries, so the enclosing step
     must have read all its groups first: its INL pairs in
     [//a/b[c[2]/d[1]]], its context rows in [//a/b/self::*[c/d[1]]]. *)
  both "//a[b[2]/c[1]]" 1;
  both "//a[b[3]/c[2]/d[1]]" 1;
  both "//a/b[c[2]/d[1]]" 2;
  both "//a/b[c[1]][2]" 2;
  both "/r/a/b[c[2]][1]" 2;
  both "//a[b[c[2]][2]]" 1;
  both "//b[following-sibling::*[1]/c[2]]" 2;
  both "//a/b/following-sibling::*[c[2]/d[1]]" 2;
  both "//a/b/following-sibling::*[c/d]" 2;
  both "//a/b/preceding-sibling::*[c/d][1]" 1;
  both "//c/parent::*[c/d]" 3;
  both "//a/b/ancestor::*[b/c][1]" 2;
  both "//a/b/self::*[c/d[1]]" 3

let engines_agree_after_updates () =
  let doc = Parser.parse_string doc_src in
  let ldoc = Labeled_doc.of_document doc in
  let engine = Label_eval.create ldoc in
  let root = Option.get doc.root in
  let chapter = List.nth (Dom.children root) 0 in
  let sub = Parser.parse_fragment "<chapter><title>Three</title></chapter>" in
  Labeled_doc.insert_subtree ldoc ~parent:root
    ~index:(Dom.index_in_parent chapter + 1) sub;
  Label_eval.refresh engine;
  let count path = List.length (Label_eval.eval_string engine path) in
  Alcotest.(check int) "new chapter visible" 3 (count "//chapter");
  Alcotest.(check int) "new title visible" 5 (count "book//title");
  Labeled_doc.delete_subtree ldoc sub;
  Label_eval.refresh engine;
  Alcotest.(check int) "chapter gone" 2 (count "//chapter");
  Alcotest.(check int) "title gone" 4 (count "book//title")

let suite =
  ( "xpath",
    [ case "parser round-trips" `Quick parse_roundtrip;
      case "parser abbreviations" `Quick parse_abbreviations;
      case "parser errors" `Quick parse_errors;
      case "dom eval reference answers" `Quick dom_eval_known;
      case "label eval reference answers" `Quick label_eval_known;
      case "all axes: engines agree on known answers" `Quick axes_known;
      case "leading-step corners" `Quick leading_step_corners;
      case "label ranges at their edges" `Quick range_edges;
      case "engines agree after updates" `Quick engines_agree_after_updates;
      QCheck_alcotest.to_alcotest engines_agree_prop;
      QCheck_alcotest.to_alcotest engines_agree_under_edits_prop ] )
