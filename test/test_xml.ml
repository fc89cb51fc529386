(* XML substrate: lexer, parser, DOM mutation, serializer round-trips. *)

open Ltree_xml

let case = Alcotest.test_case

let tokens_of s = List.map (fun (t : Token.spanned) -> t.token) (Lexer.tokenize s)

let lex_basic () =
  match tokens_of "<a x=\"1\" y='two'><b/>text</a>" with
  | [ Token.Start_tag { name = "a"; attrs; self_closing = false };
      Token.Start_tag { name = "b"; attrs = []; self_closing = true };
      Token.Text "text"; Token.End_tag "a" ] ->
    Alcotest.(check (list (pair string string)))
      "attrs" [ ("x", "1"); ("y", "two") ] attrs
  | ts ->
    Alcotest.failf "unexpected tokens: %s"
      (String.concat " " (List.map (Format.asprintf "%a" Token.pp) ts))

let lex_entities () =
  (match tokens_of "<a>&lt;&amp;&gt;&apos;&quot;&#65;&#x42;</a>" with
   | [ _; Token.Text t; _ ] ->
     Alcotest.(check string) "decoded" "<&>'\"AB" t
   | _ -> Alcotest.fail "bad token shape");
  match tokens_of "<a x=\"a&lt;b\"/>" with
  | [ Token.Start_tag { attrs = [ ("x", v) ]; _ } ] ->
    Alcotest.(check string) "attribute value" "a<b" v
  | _ -> Alcotest.fail "bad token shape"

let lex_cdata_comment_pi () =
  match tokens_of "<a><![CDATA[<raw>&amp;]]><!-- note --><?php echo?></a>" with
  | [ _; Token.Cdata c; Token.Comment m; Token.Pi { target; data }; _ ] ->
    Alcotest.(check string) "cdata verbatim" "<raw>&amp;" c;
    Alcotest.(check string) "comment" " note " m;
    Alcotest.(check string) "pi target" "php" target;
    Alcotest.(check string) "pi data" "echo" data
  | _ -> Alcotest.fail "bad token shape"

let lex_decl_doctype () =
  match tokens_of "<?xml version=\"1.0\"?><!DOCTYPE book [<!ENTITY x \"y\">]><book/>" with
  | [ Token.Xml_decl attrs; Token.Doctype d; Token.Start_tag _ ] ->
    Alcotest.(check (list (pair string string)))
      "decl" [ ("version", "1.0") ] attrs;
    Alcotest.(check bool) "doctype body kept" true
      (String.length d > 0 && String.sub d 0 4 = "book")
  | _ -> Alcotest.fail "bad token shape"

let lex_errors () =
  let fails s =
    Alcotest.(check bool) ("rejects " ^ s) true
      (try
         ignore (Lexer.tokenize s);
         false
       with Lexer.Error _ -> true)
  in
  fails "<a x=1></a>";
  fails "<a><!-- unterminated";
  fails "<a>&unknown;</a>";
  fails "<a>&#xZZ;</a>";
  fails "<a x='1' x='2'/>";
  fails "< a/>"

let error_position () =
  try
    ignore (Lexer.tokenize "<a>\n<b x=1/>\n</a>");
    Alcotest.fail "should reject"
  with Lexer.Error (_, pos) ->
    Alcotest.(check int) "line" 2 pos.Token.line

let parse_wellformed () =
  let doc = Parser.parse_string "<a><b><c/></b><b/>tail</a>" in
  match doc.root with
  | Some root ->
    Alcotest.(check string) "root" "a" (Dom.name root);
    Alcotest.(check int) "children" 3 (Dom.child_count root);
    Alcotest.(check int) "size" 5 (Dom.size root)
  | None -> Alcotest.fail "no root"

let parse_errors () =
  let fails s =
    Alcotest.(check bool) ("rejects " ^ s) true
      (try
         ignore (Parser.parse_string s);
         false
       with Parser.Error _ -> true)
  in
  fails "<a></b>";
  fails "<a><b></a></b>";
  fails "<a/><b/>";
  fails "text only";
  fails "<a>";
  fails "</a>";
  fails ""

let dom_mutation () =
  let root = Parser.parse_fragment "<r><a/><c/></r>" in
  let a = List.nth (Dom.children root) 0 in
  let b = Dom.element "b" in
  Dom.insert_after ~anchor:a b;
  Alcotest.(check (list string)) "insert_after"
    [ "a"; "b"; "c" ]
    (List.map Dom.name (Dom.children root));
  Dom.remove b;
  Alcotest.(check int) "removed" 2 (Dom.child_count root);
  Alcotest.(check bool) "detached" true (Dom.parent b = None);
  Dom.insert_child root ~index:0 b;
  Alcotest.(check (list string)) "insert at 0"
    [ "b"; "a"; "c" ]
    (List.map Dom.name (Dom.children root));
  Alcotest.(check int) "index_in_parent" 1 (Dom.index_in_parent a);
  Alcotest.(check bool) "double attach rejected" true
    (try
       Dom.append_child root b;
       false
     with Invalid_argument _ -> true)

let dom_elements_by_name () =
  let root =
    Parser.parse_fragment
      "<r><x i=\"1\"><x i=\"2\"/>t</x><y><x i=\"3\"/></y><!--x--></r>"
  in
  let ids nodes = List.map (fun n -> List.assoc "i" (Dom.attrs n)) nodes in
  Alcotest.(check (list string)) "descendants in document order"
    [ "1"; "2"; "3" ]
    (ids (Dom.elements_by_name root "x"));
  let x1 = List.hd (Dom.children root) in
  Alcotest.(check (list string)) "the node itself counts" [ "1"; "2" ]
    (ids (Dom.elements_by_name x1 "x"));
  Alcotest.(check int) "text and comments never match" 0
    (List.length (Dom.elements_by_name root "t"));
  Alcotest.(check int) "no such tag" 0
    (List.length (Dom.elements_by_name root "z"))

let dom_events () =
  let root = Parser.parse_fragment "<a><b>hi</b><c/></a>" in
  let names =
    List.map
      (function
        | Dom.E_start n -> "<" ^ Dom.name n
        | Dom.E_end n -> "/" ^ Dom.name n
        | Dom.E_atom _ -> "#")
      (Dom.events root)
  in
  Alcotest.(check (list string)) "event shape"
    [ "<a"; "<b"; "#"; "/b"; "<c"; "/c"; "/a" ]
    names;
  Alcotest.(check int) "event_count" 7 (Dom.event_count root)

let attr_ops () =
  let e = Dom.element ~attrs:[ ("k", "v") ] "x" in
  Alcotest.(check (option string)) "attr" (Some "v") (Dom.attr e "k");
  Alcotest.(check (option string)) "absent attr" None (Dom.attr e "n");
  let txt = Dom.text "old" in
  Dom.set_text txt "new";
  Alcotest.(check string) "set_text" "new" (Serializer.node_to_string txt);
  Alcotest.(check bool) "set_text rejects elements" true
    (try
       Dom.set_text (Dom.element "x") "v";
       false
     with Invalid_argument _ -> true)

let roundtrip_cases =
  [ "<a/>";
    "<a x=\"1\"><b>text</b><c/></a>";
    "<a>&lt;escaped&gt; &amp; &quot;quoted&quot;</a>";
    "<r><one/>mixed<two>deep<three/></two>tail</r>";
    "<ns:a ns:attr=\"v\"><ns:b/></ns:a>" ]

let roundtrip () =
  List.iter
    (fun src ->
      let doc = Parser.parse_string src in
      let out = Serializer.to_string doc in
      let doc2 = Parser.parse_string out in
      match (doc.root, doc2.root) with
      | Some a, Some b ->
        if not (Dom.equal_structure a b) then
          Alcotest.failf "round-trip diverged for %s -> %s" src out
      | _ -> Alcotest.fail "missing root")
    roundtrip_cases

let roundtrip_generated =
  QCheck.Test.make ~count:40 ~name:"round-trip on generated documents"
    QCheck.(make Gen.(pair (int_bound 10000) (int_range 2 300)))
    (fun (seed, size) ->
      let profile = Ltree_workload.Xml_gen.default_profile ~target_nodes:size () in
      let doc = Ltree_workload.Xml_gen.generate ~seed profile in
      let out = Serializer.to_string doc in
      let doc2 = Parser.parse_string out in
      match (doc.root, doc2.root) with
      | Some a, Some b -> Dom.equal_structure a b
      | _ -> false)

let escaping () =
  Alcotest.(check string) "text" "a&amp;b&lt;c&gt;"
    (Serializer.node_to_string (Dom.text "a&b<c>"));
  Alcotest.(check string) "attr" "<x a=\"&quot;x&quot;\"/>"
    (Serializer.node_to_string (Dom.element ~attrs:[ ("a", "\"x\"") ] "x"));
  (* Serialized attributes with quotes survive. *)
  let e = Dom.element ~attrs:[ ("a", "say \"hi\" & <bye>") ] "x" in
  let doc = Parser.parse_string (Serializer.node_to_string e) in
  match doc.root with
  | Some r ->
    Alcotest.(check (option string)) "quote round-trip"
      (Some "say \"hi\" & <bye>") (Dom.attr r "a")
  | None -> Alcotest.fail "no root"

(* The lexer must terminate with a token list or a positioned error on
   arbitrary input — never crash or hang. *)
let lexer_total =
  QCheck.Test.make ~count:300 ~name:"lexer total on arbitrary input"
    QCheck.(string_of_size Gen.(int_range 0 200))
    (fun s ->
      match Lexer.tokenize s with
      | _ -> true
      | exception Lexer.Error (_, pos) ->
        pos.Token.line >= 1 && pos.Token.offset >= 0
      | exception _ -> false)

let parser_total =
  QCheck.Test.make ~count:300 ~name:"parser total on arbitrary input"
    QCheck.(string_of_size Gen.(int_range 0 200))
    (fun s ->
      match Parser.parse_string s with
      | _ -> true
      | exception Parser.Error _ -> true
      | exception _ -> false)

let suite =
  ( "xml",
    [ case "lexer basics" `Quick lex_basic;
      case "entities" `Quick lex_entities;
      case "cdata/comment/pi" `Quick lex_cdata_comment_pi;
      case "xml decl + doctype" `Quick lex_decl_doctype;
      case "lexer errors" `Quick lex_errors;
      case "error positions" `Quick error_position;
      case "parser well-formedness" `Quick parse_wellformed;
      case "parser errors" `Quick parse_errors;
      case "dom mutation" `Quick dom_mutation;
      case "dom elements_by_name" `Quick dom_elements_by_name;
      case "dom events" `Quick dom_events;
      case "attributes and text content" `Quick attr_ops;
      case "serializer round-trip" `Quick roundtrip;
      case "escaping" `Quick escaping;
      QCheck_alcotest.to_alcotest roundtrip_generated;
      QCheck_alcotest.to_alcotest lexer_total;
      QCheck_alcotest.to_alcotest parser_total ] )
