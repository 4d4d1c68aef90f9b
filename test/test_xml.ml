(* Tests for the XML substrate: trees, parser, printer. *)

module Tree = Axml_xml.Tree
module Parse = Axml_xml.Parse
module Print = Axml_xml.Print

let tree : Tree.t Alcotest.testable = Alcotest.testable Tree.pp Tree.equal

let e = Tree.element
let t = Tree.text

(* ------------------------------------------------------------------ *)
(* Tree basics *)

let sample =
  e "hotel"
    [ e "name" [ t "Best Western" ]; e "address" [ t "75, 2nd Av." ]; e "rating" [ t "5" ] ]

let test_size () =
  Alcotest.(check int) "size" 7 (Tree.size sample);
  Alcotest.(check int) "leaf size" 1 (Tree.size (t "x"));
  Alcotest.(check int) "empty element" 1 (Tree.size (e "a" []))

let test_depth () =
  Alcotest.(check int) "depth" 3 (Tree.depth sample);
  Alcotest.(check int) "leaf" 1 (Tree.depth (t "x"))

let test_text_content () =
  Alcotest.(check string) "concatenated" "Best Western75, 2nd Av.5" (Tree.text_content sample)

let test_accessors () =
  Alcotest.(check (option string)) "name" (Some "hotel") (Tree.name sample);
  Alcotest.(check (option string)) "text has no name" None (Tree.name (t "x"));
  let with_attr = e ~attrs:[ ("id", "7") ] "a" [] in
  Alcotest.(check (option string)) "attr" (Some "7") (Tree.attr "id" with_attr);
  Alcotest.(check (option string)) "missing attr" None (Tree.attr "x" with_attr)

let test_find_all () =
  let names = Tree.find_all (fun n -> Tree.name n = Some "name") sample in
  Alcotest.(check int) "one name element" 1 (List.length names)

let test_equal_unordered () =
  let a = e "r" [ e "a" []; e "b" [] ] in
  let b = e "r" [ e "b" []; e "a" [] ] in
  Alcotest.(check bool) "ordered differ" false (Tree.equal a b);
  Alcotest.(check bool) "unordered equal" true (Tree.equal_unordered a b);
  let c = e "r" [ e "a" []; e "a" [] ] in
  Alcotest.(check bool) "multiset sensitive" false (Tree.equal_unordered a c)

(* ------------------------------------------------------------------ *)
(* Parser *)

let test_parse_simple () =
  let got = Parse.tree "<hotel><name>Best Western</name></hotel>" in
  Alcotest.check tree "parsed" (e "hotel" [ e "name" [ t "Best Western" ] ]) got

let test_parse_attrs () =
  let got = Parse.tree {|<call name="getRating" mode='lazy'/>|} in
  Alcotest.check tree "attrs"
    (e ~attrs:[ ("name", "getRating"); ("mode", "lazy") ] "call" [])
    got

let test_parse_entities () =
  let got = Parse.tree "<a>x &amp; y &lt; z &gt; &quot;w&quot; &apos;v&apos;</a>" in
  Alcotest.check tree "entities" (e "a" [ t {|x & y < z > "w" 'v'|} ]) got

let test_parse_numeric_refs () =
  let got = Parse.tree "<a>&#65;&#x42;</a>" in
  Alcotest.check tree "numeric" (e "a" [ t "AB" ]) got

let test_parse_cdata () =
  let got = Parse.tree "<a><![CDATA[<raw> & stuff]]></a>" in
  Alcotest.check tree "cdata" (e "a" [ t "<raw> & stuff" ]) got

let test_parse_comments_pi_doctype () =
  let src =
    {|<?xml version="1.0"?><!DOCTYPE guide [<!ELEMENT a ANY>]><!-- hi --><a><!-- in --><b/></a><!-- bye -->|}
  in
  Alcotest.check tree "prolog skipped" (e "a" [ e "b" [] ]) (Parse.tree src)

let test_parse_whitespace () =
  let got = Parse.tree "<a>\n  <b/>\n  <c/>\n</a>" in
  Alcotest.check tree "inter-element space dropped" (e "a" [ e "b" []; e "c" [] ]) got;
  let mixed = Parse.tree "<a> x <b/></a>" in
  Alcotest.check tree "mixed content kept" (e "a" [ t " x "; e "b" [] ]) mixed

let test_parse_forest () =
  let got = Parse.forest "<a/><b>x</b>" in
  Alcotest.(check int) "two trees" 2 (List.length got)

let expect_error src =
  match Parse.tree src with
  | exception Parse.Error _ -> ()
  | _ -> Alcotest.failf "expected a parse error on %S" src

let test_parse_errors () =
  expect_error "<a>";
  expect_error "<a></b>";
  expect_error "<a";
  expect_error "";
  expect_error "<a/><b/>";
  expect_error "<a>&unknown;</a>";
  expect_error "<a x=5/>"

let test_error_position () =
  match Parse.tree "<a>\n<b></c>\n</a>" with
  | exception Parse.Error { line; _ } -> Alcotest.(check int) "line" 2 line
  | _ -> Alcotest.fail "expected an error"

(* Nesting is capped at [Parse.max_depth] elements: a document at the
   cap parses, one level past it is a parse error at the offending
   element (self-closing or not, through [tree] and [forest]), and a
   million levels fail at the cap instead of exhausting the stack. *)
let test_depth_cap () =
  let nested levels inner =
    String.concat "" (List.init levels (fun _ -> "<a>"))
    ^ inner
    ^ String.concat "" (List.init levels (fun _ -> "</a>"))
  in
  let at_cap = Parse.tree (nested (Parse.max_depth - 1) "<a/>") in
  Alcotest.(check int) "a document at the cap parses" Parse.max_depth (Tree.depth at_cap);
  ignore (Parse.tree (nested (Parse.max_depth - 1) "<a>x</a>"));
  let rejected what f =
    match f () with
    | _ -> Alcotest.failf "%s parsed" what
    | exception Parse.Error { line; col; message } ->
      Alcotest.(check bool) (what ^ ": says why") true
        (message = Printf.sprintf "elements nest deeper than %d levels" Parse.max_depth);
      (line, col)
  in
  let past = (1, (3 * Parse.max_depth) + 1) in
  let pos = Alcotest.(pair int int) in
  Alcotest.check pos "one level past the cap, at the offending element" past
    (rejected "one past, self-closing" (fun () -> Parse.tree (nested Parse.max_depth "<a/>")));
  Alcotest.check pos "one level past the cap, with content" past
    (rejected "one past, with content" (fun () -> Parse.tree (nested Parse.max_depth "<a>x</a>")));
  Alcotest.check pos "one level past the cap, as a forest" past
    (rejected "one past, as a forest" (fun () -> Parse.forest (nested Parse.max_depth "<a/>")));
  Alcotest.check pos "a million levels fail at the cap" past
    (rejected "a million levels" (fun () ->
         Parse.tree (String.concat "" (List.init 1_000_000 (fun _ -> "<a>")))))

(* Golden parser cases: references at the edges of a text run,
   whitespace-only runs, CDATA beside text, closing-tag forms. *)
let test_parse_golden () =
  let cases =
    [
      ("<a>&amp;x</a>", e "a" [ t "&x" ]);
      ("<a>x&lt;</a>", e "a" [ t "x<" ]);
      ("<a>x&#x41;y</a>", e "a" [ t "xAy" ]);
      ("<a>&#x41;</a>", e "a" [ t "A" ]);
      (* a reference makes the run non-blank, so it is kept whole *)
      ("<a> &#32; </a>", e "a" [ t "   " ]);
      ("<a> \n\t <b/> \r\n </a>", e "a" [ e "b" [] ]);
      ("<a>   </a>", e "a" []);
      ("<a>x<![CDATA[<y>]]>z</a>", e "a" [ t "x"; t "<y>"; t "z" ]);
      ("<a> <![CDATA[ ]]> </a>", e "a" [ t " " ]);
      ("<a></a >", e "a" []);
      ("<a x='1&amp;2' y=\"\">v</a>", e ~attrs:[ ("x", "1&2"); ("y", "") ] "a" [ t "v" ]);
    ]
  in
  List.iter (fun (src, want) -> Alcotest.check tree src want (Parse.tree src)) cases;
  let forest_cases = [ ("  <a/>  ", [ e "a" [] ]); ("x&amp;<a/>y", [ t "x&"; e "a" []; t "y" ]) ] in
  List.iter
    (fun (src, want) -> Alcotest.(check (list tree)) src want (Parse.forest src))
    forest_cases

(* Golden error messages with their line and column. *)
let test_parse_error_golden () =
  let render = function
    | Ok _ -> "parsed"
    | Error e -> Option.value (Parse.error_to_string e) ~default:(Printexc.to_string e)
  in
  let parse f src = match f src with v -> Ok v | exception e -> Error e in
  let cases =
    [
      ( "<a>\n<b>t</bb>\n</a>",
        "XML parse error at line 2, column 9: mismatched closing tag </bb> for <b>" );
      ("<a><b></a>", "XML parse error at line 1, column 10: mismatched closing tag </a> for <b>");
      ("<a>\nabc", "XML parse error at line 2, column 4: unclosed element <a>");
      ("<a x=\"1\n23", "XML parse error at line 2, column 3: unterminated attribute value");
      ("<a>x &bogus; y</a>", "XML parse error at line 1, column 13: unknown entity &bogus;");
      ("<a>\n  &#xZZ;</a>", "XML parse error at line 2, column 6: empty character reference");
      ( "<a>&#1114112;</a>",
        "XML parse error at line 1, column 14: character reference out of range" );
      ("<a>&amp</a>", "XML parse error at line 1, column 8: expected ';', found '<'");
      ("<a><![CDATA[x", "XML parse error at line 1, column 14: unterminated CDATA section");
      ("<a><!-- x", "XML parse error at line 1, column 10: unterminated comment");
      ("<a></a", "XML parse error at line 1, column 7: expected '>', found '\\000'");
      ("<a></ a>", "XML parse error at line 1, column 6: expected a name");
      ("<a x=\"<\"/>", "XML parse error at line 1, column 7: '<' in attribute value");
      ( "<a>t</a><!-- c --> x",
        "XML parse error at line 1, column 20: content after the root element" );
    ]
  in
  List.iter
    (fun (src, want) -> Alcotest.(check string) src want (render (parse Parse.tree src)))
    cases;
  Alcotest.(check string)
    "forest" "XML parse error at line 1, column 5: unexpected closing tag at top level"
    (render (parse Parse.forest "<a/></b>"))

(* ------------------------------------------------------------------ *)
(* Printer *)

let test_print_roundtrip_sample () =
  let s = Print.to_string sample in
  Alcotest.check tree "roundtrip" sample (Parse.tree s)

let test_print_escapes () =
  let tr = e ~attrs:[ ("k", {|a"b<c&|}) ] "x" [ t "1 < 2 & 3" ] in
  let s = Print.to_string tr in
  Alcotest.check tree "escape roundtrip" tr (Parse.tree s)

let test_print_indent () =
  let s = Print.to_string ~indent:2 (e "a" [ e "b" []; e "c" [ t "v" ] ]) in
  Alcotest.(check bool) "has newlines" true (String.contains s '\n');
  Alcotest.check tree "indent roundtrip" (e "a" [ e "b" []; e "c" [ t "v" ] ]) (Parse.tree s)

let test_byte_size () =
  Alcotest.(check int) "byte size" (String.length (Print.to_string sample)) (Print.byte_size sample)

(* ------------------------------------------------------------------ *)
(* Property: parse ∘ print = id on generated trees *)

(* Generators and text-merge normalization are shared with the other
   suites; see test/gen.ml. *)
let arb_tree = Gen.arb_tree
let merge_text = Gen.merge_text

let prop_roundtrip =
  QCheck.Test.make ~name:"parse (print t) = t (modulo text merging)" ~count:500 arb_tree
    (fun tr ->
      let printed = Print.to_string tr in
      Tree.equal (merge_text tr) (Parse.tree printed))

let prop_roundtrip_indented =
  QCheck.Test.make ~name:"parse (print ~indent t) = t" ~count:200 arb_tree (fun tr ->
      let printed = Print.to_string ~indent:2 tr in
      Tree.equal (merge_text tr) (Parse.tree printed))

(* The computed byte size is the length of the compact serialization. *)
let prop_byte_size =
  QCheck.Test.make ~name:"byte_size t = length (to_string t)" ~count:500 Gen.arb_escapable_tree
    (fun tr -> Print.byte_size tr = String.length (Print.to_string tr))

let prop_forest_byte_size =
  QCheck.Test.make ~name:"forest_byte_size f = length (forest_to_string f)" ~count:300
    (QCheck.make
       ~print:(Fmt.to_to_string (Fmt.Dump.list Tree.pp))
       QCheck.Gen.(list_size (int_bound 4) Gen.gen_escapable_tree))
    (fun f -> Print.forest_byte_size f = String.length (Print.forest_to_string f))

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "xml"
    [
      ( "tree",
        [
          quick "size" test_size;
          quick "depth" test_depth;
          quick "text_content" test_text_content;
          quick "accessors" test_accessors;
          quick "find_all" test_find_all;
          quick "equal_unordered" test_equal_unordered;
        ] );
      ( "parse",
        [
          quick "simple" test_parse_simple;
          quick "attributes" test_parse_attrs;
          quick "entities" test_parse_entities;
          quick "numeric refs" test_parse_numeric_refs;
          quick "cdata" test_parse_cdata;
          quick "comments/PI/doctype" test_parse_comments_pi_doctype;
          quick "whitespace" test_parse_whitespace;
          quick "forest" test_parse_forest;
          quick "errors" test_parse_errors;
          quick "error position" test_error_position;
          quick "depth cap" test_depth_cap;
          quick "golden cases" test_parse_golden;
          quick "golden errors" test_parse_error_golden;
        ] );
      ( "print",
        [
          quick "roundtrip sample" test_print_roundtrip_sample;
          quick "escapes" test_print_escapes;
          quick "indent" test_print_indent;
          quick "byte size" test_byte_size;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_roundtrip;
          QCheck_alcotest.to_alcotest prop_roundtrip_indented;
          QCheck_alcotest.to_alcotest prop_byte_size;
          QCheck_alcotest.to_alcotest prop_forest_byte_size;
        ] );
    ]
