(* Tests for the FLWR front-end. *)

module Doc = Axml_doc
module Tree = Axml_xml.Tree
module P = Axml_query.Pattern
module Eval = Axml_query.Eval
module Xquery = Axml_query.Xquery
module Lazy_eval = Axml_core.Lazy_eval
module Engine = Axml_engine.Engine
module City = Axml_workload.City

let sample_doc () =
  Doc.parse
    {|<guide>
        <hotel><name>Best Western</name><rating>5</rating>
          <nearby>
            <restaurant><name>Mama</name><address>2nd Av.</address><rating>5</rating></restaurant>
            <restaurant><name>Jo</name><address>2nd Av.</address><rating>2</rating></restaurant>
          </nearby>
        </hotel>
        <hotel><name>Pennsylvania</name><rating>5</rating>
          <nearby>
            <restaurant><name>Great</name><address>Penn St.</address><rating>5</rating></restaurant>
          </nearby>
        </hotel>
      </guide>|}

let fig4_flwr =
  {|for $h in doc()/guide/hotel,
        $r in $h/nearby//restaurant
    where $h/name = "Best Western" and $h/rating = "5" and $r/rating = "5"
    return <res>{$r/name}{$r/address}</res>|}

let forest_string forest = Axml_xml.Print.forest_to_string forest

(* ------------------------------------------------------------------ *)

let test_compile_basics () =
  let q = Xquery.compile fig4_flwr in
  Alcotest.(check (list string)) "variables" [ "h"; "r" ] (Xquery.variables q);
  let pat = Xquery.pattern q in
  Alcotest.(check int) "two result nodes" 2 (List.length (P.result_nodes pat));
  Alcotest.(check bool) "root is guide" true (pat.P.root.P.label = P.Const "guide")

let test_run () =
  let q = Xquery.compile fig4_flwr in
  let out = Xquery.run q (sample_doc ()) in
  Alcotest.(check int) "one result" 1 (List.length out);
  Alcotest.(check string) "constructed element"
    "<res><name>Mama</name><address>2nd Av.</address></res>" (forest_string out)

let test_run_without_where () =
  let q =
    Xquery.compile {|for $r in doc()/guide//restaurant return <n>{$r/name}</n>|}
  in
  let out = Xquery.run q (sample_doc ()) in
  Alcotest.(check int) "three restaurants" 3 (List.length out)

let test_text_and_nesting () =
  let q =
    Xquery.compile
      {|for $h in doc()/guide/hotel where $h/name = "Pennsylvania"
        return <card>hotel: <inner>{$h/rating}</inner></card>|}
  in
  match Xquery.run q (sample_doc ()) with
  | [ tree ] ->
    Alcotest.(check string) "shape"
      "<card>hotel: <inner><rating>5</rating></inner></card>" (forest_string [ tree ])
  | other -> Alcotest.failf "expected one element, got %d" (List.length other)

let test_join () =
  (* hotels sharing their rating with some restaurant they host *)
  let q =
    Xquery.compile
      {|for $h in doc()/guide/hotel, $r in $h/nearby/restaurant
        where $h/rating = $r/rating
        return <m>{$r/name}</m>|}
  in
  let out = Xquery.run q (sample_doc ()) in
  (* Mama (5=5) and Great (5=5), not Jo (5<>2) *)
  Alcotest.(check int) "two matches" 2 (List.length out);
  Alcotest.(check bool) "no Jo" true
    (not (List.exists (fun t -> Tree.text_content t = "Jo") out))

let test_wildcard_and_descendant () =
  let q =
    Xquery.compile {|for $n in doc()//restaurant/name return <x>{$n}</x>|}
  in
  Alcotest.(check int) "three names" 3 (List.length (Xquery.run q (sample_doc ())))

let test_errors () =
  List.iter
    (fun src ->
      match Xquery.compile src with
      | exception Xquery.Error _ -> ()
      | _ -> Alcotest.failf "expected Error on %s" src)
    [
      "";
      "for $x return <a></a>";
      "for $x in doc() return <a></a>";
      "for $x in $y/a return <a></a>";
      "for $x in doc()/a return <a>{$z}</a>";
      "for $x in doc()/a, $x in doc()/a return <a></a>";
      "for $x in doc()/a where $x = return <a></a>";
      "for $x in doc()/a return <a><b></a></b>";
      "for $x in doc()/a return no-template";
    ]

(* The FLWR front-end composes with lazy evaluation: the compiled
   pattern drives relevance detection, and the template renders the
   answers after materialization. *)
let test_lazy_integration () =
  let instance = City.figure1 () in
  let q =
    Xquery.compile
      {|for $h in doc()/guide/hotel, $r in $h/nearby//restaurant
        where $h/name = "Best Western" and $h/rating = "5" and $r/rating = "5"
        return <res>{$r/name}{$r/address}</res>|}
  in
  let report =
    Lazy_eval.run ~registry:instance.City.registry ~schema:instance.City.schema
      ~strategy:Lazy_eval.nfqa_typed (Xquery.pattern q) instance.City.doc
  in
  let out = Xquery.instantiate q report.Engine.answers in
  Alcotest.(check string) "rendered answer"
    "<res><name>Mama</name><address>75, 2nd Av.</address></res>" (forest_string out);
  Alcotest.(check bool) "lazy: fewer than naive's 11 calls" true (report.Engine.invoked < 11)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "xquery"
    [
      ( "flwr",
        [
          quick "compile" test_compile_basics;
          quick "run" test_run;
          quick "no where" test_run_without_where;
          quick "text and nesting" test_text_and_nesting;
          quick "joins" test_join;
          quick "wildcard and descendant" test_wildcard_and_descendant;
          quick "errors" test_errors;
          quick "lazy integration" test_lazy_integration;
        ] );
    ]
