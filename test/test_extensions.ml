(* Tests for the companion components: tree-pattern containment,
   document validation, termination analysis, and the evaluator options
   built on them. *)

module Doc = Axml_doc
module P = Axml_query.Pattern
module Parser = Axml_query.Parser
module Eval = Axml_query.Eval
module Containment = Axml_query.Containment
module Schema = Axml_schema.Schema
module Validate = Axml_schema.Validate
module Registry = Axml_services.Registry
module Termination = Axml_core.Termination
module Lazy_eval = Axml_core.Lazy_eval
module Engine = Axml_engine.Engine
module City = Axml_workload.City
module Goingout = Axml_workload.Goingout
module Synthetic = Axml_workload.Synthetic

let q = Parser.parse

(* ------------------------------------------------------------------ *)
(* Containment *)

let check_contained msg a b expected =
  Alcotest.(check bool) msg expected (Containment.contained (q a) (q b))

let test_containment_basics () =
  check_contained "q ⊆ q" "/a/b" "/a/b" true;
  check_contained "extra condition" "/a[b][c]" "/a[b]" true;
  check_contained "missing condition" "/a[b]" "/a[b][c]" false;
  check_contained "child ⊆ descendant" "/a/b" "/a//b" true;
  check_contained "descendant ⊄ child" "/a//b" "/a/b" false;
  check_contained "longer path under //" "/a/x/b" "/a//b" true;
  check_contained "const ⊆ wildcard" "/a/b" "/a/*" true;
  check_contained "wildcard ⊄ const" "/a/*" "/a/b" false;
  check_contained "values" {|/a[b="1"]|} "/a[b]" true;
  check_contained "distinct values" {|/a[b="1"]|} {|/a[b="2"]|} false

let test_containment_functions () =
  check_contained "named ⊆ star" "/a/f()" "/a/*()" true;
  check_contained "star ⊄ named" "/a/*()" "/a/f()" false;
  check_contained "same name" "/a/f()" "/a/f()" true;
  check_contained "different name" "/a/f()" "/a/g()" false

let test_containment_deep_descendant () =
  check_contained "nested //" "/a/b/c/d" "/a//c/d" true;
  check_contained "// to //" "/a//b//c" "/a//c" true;
  check_contained "not reversed" "/a//c" "/a//b//c" false

let test_equivalent () =
  Alcotest.(check bool) "same modulo condition order" true
    (Containment.equivalent (q "/a[b][c]") (q "/a[c][b]"));
  Alcotest.(check bool) "not equivalent" false (Containment.equivalent (q "/a[b]") (q "/a"))

let test_drop_contained () =
  let qs = [ q "/a/b"; q "/a//b"; q "/a//b[c]"; q "/x" ] in
  let kept = Containment.drop_contained qs in
  (* /a/b ⊆ /a//b and /a//b[c] ⊆ /a//b *)
  Alcotest.(check int) "two survive" 2 (List.length kept);
  let srcs = List.map P.to_string kept in
  Alcotest.(check bool) "keeps /a//b" true (List.mem (P.to_string (q "/a//b")) srcs)

(* Soundness property: if contained q q' and q has an embedding in a
   random document, then q' has one too. *)
let gen_doc_xml =
  let open QCheck.Gen in
  let name = oneofl [ "a"; "b"; "c" ] in
  let rec gen n =
    if n = 0 then map (fun v -> Axml_xml.Tree.text v) (oneofl [ "1"; "2" ])
    else
      frequency
        [
          (1, map (fun v -> Axml_xml.Tree.text v) (oneofl [ "1"; "2" ]));
          ( 4,
            map2
              (fun l cs -> Axml_xml.Tree.element l cs)
              name
              (list_size (int_bound 3) (gen (n / 2))) );
        ]
  in
  QCheck.Gen.(map (fun c -> Axml_xml.Tree.element "r" [ c ]) (sized_size (int_bound 4) gen))

let query_pool =
  [
    "/r/a"; "/r//a"; "/r/a[b]"; "/r//a[b]"; "/r//*[b][c]"; "/r/a/b"; "/r//b"; {|/r//a["1"]|};
    "/r/*"; "/r//a//b";
  ]

let prop_containment_sound =
  QCheck.Test.make ~name:"containment is sound on random documents" ~count:500
    (QCheck.make
       ~print:(fun ((a, b), x) -> a ^ " ⊆? " ^ b ^ " | " ^ Axml_xml.Print.to_string x)
       QCheck.Gen.(pair (pair (oneofl query_pool) (oneofl query_pool)) gen_doc_xml))
    (fun ((a, b), xml) ->
      let qa = q a and qb = q b in
      (not (Containment.contained qa qb))
      ||
      let d = Doc.of_xml xml in
      Eval.eval qa d = [] || Eval.eval qb d <> [])

(* ------------------------------------------------------------------ *)
(* Validation *)

let test_validate_figure1 () =
  let instance = City.figure1 () in
  Alcotest.(check (list string)) "conforms" []
    (List.map (fun i -> i.Validate.message) (Validate.document instance.City.schema instance.City.doc))

let test_validate_catches_errors () =
  let schema = Schema.of_string City.schema_src in
  let bad = Doc.parse "<guide><hotel><name>x</name></hotel></guide>" in
  let issues = Validate.document schema bad in
  Alcotest.(check bool) "missing fields caught" true (List.length issues = 1);
  let bad2 = Doc.parse {|<guide><axml:call name="getrating"><a/><b/></axml:call></guide>|} in
  let issues2 = Validate.document schema bad2 in
  (* guide content wrong AND getrating parameters wrong *)
  Alcotest.(check int) "two issues" 2 (List.length issues2)

let test_validate_unknown_names_unconstrained () =
  let schema = Schema.of_string "elements:\n a = b" in
  let d = Doc.parse "<mystery><x/><y/></mystery>" in
  Alcotest.(check bool) "unknown root unconstrained" true (Validate.conforms schema d)

let test_workloads_conform () =
  let city = City.generate { City.default_config with City.hotels = 10 } in
  Alcotest.(check bool) "city conforms" true (Validate.conforms city.City.schema city.City.doc);
  let go = Goingout.generate Goingout.default_config in
  Alcotest.(check bool) "goingout conforms" true
    (Validate.conforms go.Goingout.schema go.Goingout.doc);
  let syn = Synthetic.generate { Synthetic.default_config with Synthetic.nodes = 2000 } in
  Alcotest.(check bool) "synthetic conforms" true
    (Validate.conforms syn.Synthetic.schema syn.Synthetic.doc)

let test_materialized_workloads_conform () =
  (* service results must keep documents schema-conformant *)
  let city = City.generate { City.default_config with City.hotels = 10 } in
  ignore (Engine.naive_run city.City.registry city.City.query city.City.doc);
  Alcotest.(check (list string)) "city after naive" []
    (List.map (fun i -> i.Validate.message) (Validate.document city.City.schema city.City.doc));
  let go = Goingout.generate Goingout.default_config in
  ignore (Engine.naive_run go.Goingout.registry go.Goingout.query go.Goingout.doc);
  Alcotest.(check (list string)) "goingout after naive" []
    (List.map (fun i -> i.Validate.message) (Validate.document go.Goingout.schema go.Goingout.doc))

(* ------------------------------------------------------------------ *)
(* Termination *)

let test_termination_city () =
  let city = City.figure1 () in
  Alcotest.(check bool) "city schema terminates" true
    (Termination.analyze city.City.schema = Termination.Terminates);
  Alcotest.(check bool) "city doc terminates" true
    (Termination.analyze_doc city.City.schema city.City.doc = Termination.Terminates)

let test_termination_cycle () =
  let schema =
    Schema.of_string
      {|functions:
  f = [in: data, out: wrapper]
elements:
  wrapper = a.f?
  a = data
|}
  in
  (match Termination.analyze schema with
  | Termination.May_diverge chain ->
    Alcotest.(check bool) "cycle goes through f" true (List.mem "f" chain)
  | Termination.Terminates -> Alcotest.fail "expected May_diverge");
  (* a document without any call terminates regardless *)
  let empty = Doc.parse "<wrapper><a>1</a></wrapper>" in
  Alcotest.(check bool) "call-free doc" true
    (Termination.analyze_doc schema empty = Termination.Terminates)

let test_termination_element_recursion_ok () =
  (* recursive element types alone cannot make rewriting diverge *)
  let schema =
    Schema.of_string
      {|functions:
  getparts = [in: data, out: part*]
elements:
  part = name.part*
  name = data
|}
  in
  Alcotest.(check bool) "terminates" true (Termination.analyze schema = Termination.Terminates)

let test_termination_mutual_cycle () =
  let schema =
    Schema.of_string
      {|functions:
  f = [in: data, out: box]
  g = [in: data, out: lid]
elements:
  box = lid?.g?
  lid = f?
|}
  in
  match Termination.analyze schema with
  | Termination.May_diverge _ -> ()
  | Termination.Terminates -> Alcotest.fail "f -> g -> f should diverge"

let test_termination_unknown_service () =
  let schema = Schema.of_string "functions:\n f = [in: data, out: whatever]" in
  match Termination.analyze schema with
  | Termination.May_diverge _ -> () (* 'whatever' is unconstrained *)
  | Termination.Terminates -> Alcotest.fail "unconstrained output must be conservative"

let test_call_graph () =
  let city = City.figure1 () in
  let graph = Termination.call_graph city.City.schema in
  let targets = List.assoc "gethotels" graph in
  Alcotest.(check bool) "gethotels reaches getrating" true (List.mem "getrating" targets);
  Alcotest.(check bool) "gethotels reaches getnearbyrestos" true
    (List.mem "getnearbyrestos" targets);
  Alcotest.(check (list string)) "getrating reaches nothing" [] (List.assoc "getrating" graph)

(* ------------------------------------------------------------------ *)
(* New evaluator options *)

let tuples answers =
  List.map (fun (b : Eval.binding) -> b.Eval.vars) answers |> List.sort_uniq compare

let small_cfg = { City.default_config with City.hotels = 8; seed = 11 }

let run_strategy strategy =
  let inst = City.generate small_cfg in
  Lazy_eval.run ~registry:inst.City.registry ~schema:inst.City.schema ~strategy inst.City.query
    inst.City.doc

let test_containment_dedup_agrees () =
  let base = run_strategy Lazy_eval.nfqa in
  let dedup = run_strategy { Lazy_eval.nfqa with Lazy_eval.containment_dedup = true } in
  Alcotest.(check bool) "same answers" true
    (tuples base.Engine.answers = tuples dedup.Engine.answers);
  Alcotest.(check bool) "complete" true dedup.Engine.complete

let test_lpq_dedup_reduces_queries () =
  (* with LPQs the containment dedup removes redundant prefix queries *)
  let base = run_strategy { Lazy_eval.lpq_only with Lazy_eval.parallel = false } in
  let dedup =
    run_strategy
      { Lazy_eval.lpq_only with Lazy_eval.parallel = false; containment_dedup = true }
  in
  Alcotest.(check bool) "same answers" true
    (tuples base.Engine.answers = tuples dedup.Engine.answers);
  Alcotest.(check bool) "fewer or equal detections" true
    (dedup.Engine.relevance_evals <= base.Engine.relevance_evals)

let test_shared_contexts_agree () =
  let shared = run_strategy Lazy_eval.nfqa in
  let isolated = run_strategy { Lazy_eval.nfqa with Lazy_eval.share_contexts = false } in
  Alcotest.(check bool) "same answers" true
    (tuples shared.Engine.answers = tuples isolated.Engine.answers);
  Alcotest.(check int) "same calls" isolated.Engine.invoked shared.Engine.invoked

let test_materialize_results () =
  let go cfg strategy =
    let inst = Goingout.generate cfg in
    Lazy_eval.run ~registry:inst.Goingout.registry ~schema:inst.Goingout.schema ~strategy
      inst.Goingout.query inst.Goingout.doc
  in
  let cfg = { Goingout.default_config with Goingout.theaters = 8; target_fraction = 0.3 } in
  let plain = go cfg Lazy_eval.nfqa_typed in
  let materialized =
    go cfg { Lazy_eval.nfqa_typed with Lazy_eval.materialize_results = true }
  in
  Alcotest.(check int) "same answer count"
    (List.length plain.Engine.answers)
    (List.length materialized.Engine.answers);
  (* materialized answers contain no pending calls *)
  List.iter
    (fun (b : Eval.binding) ->
      List.iter
        (fun (_, (n : Doc.node)) ->
          let rec no_calls (m : Doc.node) =
            match m.Doc.label with
            | Doc.Call _ -> false
            | Doc.Data _ -> true
            | Doc.Elem _ -> List.for_all no_calls m.Doc.children
          in
          Alcotest.(check bool) "call-free answer" true (no_calls n))
        b.Eval.results)
    materialized.Engine.answers;
  Alcotest.(check bool) "materialization may cost extra calls" true
    (materialized.Engine.invoked >= plain.Engine.invoked)

let test_speculative_fewer_rounds () =
  let cfg =
    {
      City.default_config with
      City.hotels = 12;
      intensional_rating_fraction = 0.9;
      intensional_nearby_fraction = 0.9;
    }
  in
  let run strategy =
    let inst = City.generate cfg in
    Lazy_eval.run ~registry:inst.City.registry ~schema:inst.City.schema ~strategy
      inst.City.query inst.City.doc
  in
  let careful = run Lazy_eval.nfqa in
  let speculative = run { Lazy_eval.nfqa with Lazy_eval.speculative = true } in
  Alcotest.(check bool) "same answers" true
    (tuples careful.Engine.answers = tuples speculative.Engine.answers);
  Alcotest.(check bool) "no more rounds" true
    (speculative.Engine.rounds <= careful.Engine.rounds);
  Alcotest.(check bool) "possibly more calls" true
    (speculative.Engine.invoked >= careful.Engine.invoked)

let test_budget_exhaustion () =
  let inst = City.generate { City.default_config with City.hotels = 20 } in
  let strategy = { Lazy_eval.nfqa with Lazy_eval.max_calls = 1 } in
  let r =
    Lazy_eval.run ~registry:inst.City.registry ~schema:inst.City.schema ~strategy
      inst.City.query inst.City.doc
  in
  Alcotest.(check bool) "budget hit" false r.Engine.complete;
  Alcotest.(check int) "one call" 1 r.Engine.invoked

let test_unknown_service_propagates () =
  let doc = Doc.parse {|<guide><axml:call name="ghost">x</axml:call></guide>|} in
  let registry = Registry.create () in
  let query = Parser.parse "/guide/hotel" in
  match Lazy_eval.run ~registry query doc with
  | exception Registry.Unknown_service "ghost" -> ()
  | _ -> Alcotest.fail "expected Unknown_service"

(* Fuzz: parsers must fail only with their documented exceptions. *)
let printable_string = QCheck.Gen.(string_size ~gen:(map Char.chr (int_range 32 126)) (int_bound 60))

let fuzz name parse documented =
  QCheck.Test.make ~name ~count:1000
    (QCheck.make ~print:(Printf.sprintf "%S") printable_string)
    (fun src ->
      match parse src with
      | _ -> true
      | exception e -> documented e)

let prop_fuzz_xml =
  fuzz "XML parser fails cleanly"
    (fun s -> ignore (Axml_xml.Parse.tree s))
    (function Axml_xml.Parse.Error _ -> true | Invalid_argument _ -> true | _ -> false)

let prop_fuzz_query =
  fuzz "query parser fails cleanly"
    (fun s -> ignore (Parser.parse s))
    (function Parser.Error _ -> true | _ -> false)

let prop_fuzz_schema =
  fuzz "schema parser fails cleanly"
    (fun s -> ignore (Schema.of_string s))
    (function Schema.Parse_error _ -> true | _ -> false)

let prop_fuzz_regex =
  fuzz "regex parser fails cleanly"
    (fun s -> ignore (Axml_automata.Regex.of_string s))
    (function Failure _ -> true | _ -> false)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "extensions"
    [
      ( "containment",
        [
          quick "basics" test_containment_basics;
          quick "function nodes" test_containment_functions;
          quick "deep descendants" test_containment_deep_descendant;
          quick "equivalence" test_equivalent;
          quick "drop contained" test_drop_contained;
          QCheck_alcotest.to_alcotest prop_containment_sound;
        ] );
      ( "validation",
        [
          quick "figure1 conforms" test_validate_figure1;
          quick "catches errors" test_validate_catches_errors;
          quick "unknown unconstrained" test_validate_unknown_names_unconstrained;
          quick "workloads conform" test_workloads_conform;
          quick "materialized workloads conform" test_materialized_workloads_conform;
        ] );
      ( "termination",
        [
          quick "city terminates" test_termination_city;
          quick "direct cycle" test_termination_cycle;
          quick "element recursion ok" test_termination_element_recursion_ok;
          quick "mutual cycle" test_termination_mutual_cycle;
          quick "unknown service" test_termination_unknown_service;
          quick "call graph" test_call_graph;
        ] );
      ( "evaluator options",
        [
          quick "containment dedup agrees" test_containment_dedup_agrees;
          quick "lpq dedup reduces queries" test_lpq_dedup_reduces_queries;
          quick "shared contexts agree" test_shared_contexts_agree;
          quick "materialize results" test_materialize_results;
          quick "speculative parallelism" test_speculative_fewer_rounds;
          quick "budget exhaustion" test_budget_exhaustion;
          quick "unknown service" test_unknown_service_propagates;
        ] );
      ( "fuzz",
        [
          QCheck_alcotest.to_alcotest prop_fuzz_xml;
          QCheck_alcotest.to_alcotest prop_fuzz_query;
          QCheck_alcotest.to_alcotest prop_fuzz_schema;
          QCheck_alcotest.to_alcotest prop_fuzz_regex;
        ] );
    ]
