(* Tests for type-based document projection (lib/project): unit cases
   for the call-keeping rules, the projected≡full differential on
   schema-aware generated instances and on seeded faulty workloads
   (report ≡ metrics reconciliation included). *)

module Tree = Axml_xml.Tree
module Print = Axml_xml.Print
module Doc = Axml_doc
module P = Axml_query.Pattern
module Eval = Axml_query.Eval
module Parser = Axml_query.Parser
module Schema = Axml_schema.Schema
module Validate = Axml_schema.Validate
module Project = Axml_project.Project
module Engine = Axml_engine.Engine
module Lazy_eval = Axml_core.Lazy_eval
module Registry = Axml_services.Registry
module Faults = Axml_services.Faults
module City = Axml_workload.City
module Adversary = Axml_workload.Adversary
module Obs = Axml_obs.Obs

let e = Tree.element
let txt = Tree.text
let call_e name params = Tree.element Doc.call_elem_name ~attrs:[ ("name", name) ] params
let render tr = Print.to_string tr

(* ------------------------------------------------------------------ *)
(* Unit cases: a relevant call deep inside an otherwise-droppable
   subtree must keep its spine; an irrelevant call must not. *)

(* [getp] can produce a payload, so a <sec> holding only filler and a
   getp call stays alive through the call's output type. *)
let getp_schema =
  Schema.of_string
    {|functions:
  getp = [in: data, out: payload]
elements:
  r = (junk | sec)*
  junk = data
  sec = (filler | getp)*
  filler = data
  payload = data
|}

(* [noise] can only ever produce filler: the same <sec> shape is dead. *)
let noise_schema =
  Schema.of_string
    {|functions:
  noise = [in: data, out: filler]
elements:
  r = (junk | sec)*
  junk = data
  sec = (filler | noise)*
  filler = data
  payload = data
|}

let test_keep_relevant_call () =
  let q = Parser.parse "/r//payload!" in
  let doc =
    e "r" [ e "junk" [ txt "j" ]; e "sec" [ e "filler" [ txt "f" ]; call_e "getp" [ txt "x" ] ] ]
  in
  let p = Project.compile ~schema:getp_schema q in
  let projected, st = Project.tree p doc in
  Alcotest.(check string) "sec kept only for its call"
    (render (e "r" [ e "sec" [ call_e "getp" [ txt "x" ] ] ]))
    (render projected);
  Alcotest.(check bool) "bytes were saved" true (st.Project.bytes_saved > 0);
  Alcotest.(check int) "accounting: full = projected + saved"
    (Print.byte_size doc)
    (Print.byte_size projected + st.Project.bytes_saved)

let test_drop_irrelevant_call () =
  let q = Parser.parse "/r//payload!" in
  let doc =
    e "r"
      [ e "junk" [ txt "j" ]; e "sec" [ e "filler" [ txt "f" ]; call_e "noise" [ txt "x" ] ] ]
  in
  let p = Project.compile ~schema:noise_schema q in
  let projected, _ = Project.tree p doc in
  Alcotest.(check string) "sec is dead: only the root shell survives" (render (e "r" []))
    (render projected)

let test_keeps_call_rules () =
  let q = Parser.parse "/r//payload!" in
  let doc =
    Doc.of_xml (e "r" [ e "sec" [ call_e "getp" [ txt "x" ] ] ])
  in
  let sec =
    match (Doc.root doc).Doc.children with [ s ] -> s | _ -> Alcotest.fail "no sec"
  in
  let p_getp = Project.compile ~schema:getp_schema q in
  let p_noise = Project.compile ~schema:noise_schema q in
  Alcotest.(check bool) "getp is kept" true
    (Project.keeps_call p_getp doc ~fname:"getp" ~parent:sec);
  Alcotest.(check bool) "an undeclared function is kept" true
    (Project.keeps_call p_getp doc ~fname:"mystery" ~parent:sec);
  Alcotest.(check bool) "noise is dropped even in a live position" false
    (Project.keeps_call p_noise doc ~fname:"noise" ~parent:(Doc.root doc))

(* Without a schema every call is kept and liveness degrades to NFA
   reachability — weaker, still sound. *)
let test_no_schema_keeps_calls () =
  let q = Parser.parse "/r//payload!" in
  let doc = e "r" [ e "sec" [ call_e "noise" [ txt "x" ] ]; e "junk" [ txt "j" ] ] in
  let p = Project.compile q in
  let projected, _ = Project.tree p doc in
  (* the text leaf under junk is still soundly dropped: a Const label
     never matches a Data node, so no pattern needs it *)
  Alcotest.(check string) "calls survive schemaless projection"
    (render (e "r" [ e "sec" [ call_e "noise" [ txt "x" ] ]; e "junk" [] ]))
    (render projected)

(* A subtree under a result image is the answer serialization: kept
   verbatim, junk included. *)
let test_result_subtree_verbatim () =
  let q = Parser.parse "/r/sec!" in
  let doc = e "r" [ e "sec" [ e "junk" [ txt "j" ]; e "deep" [ e "more" [] ] ] ] in
  let p = Project.compile ~schema:getp_schema q in
  let projected, _ = Project.tree p doc in
  Alcotest.(check string) "result subtree untouched" (render doc) (render projected)

(* The determinized automata: (hit, result) state counts. A [*] step
   after a [//] step doubles the hit automaton — the exponential worst
   case documented in project.mli. *)
let test_determinized_sizes () =
  let states ?schema src = Project.states (Project.compile ?schema (Parser.parse src)) in
  let city = City.generate City.default_config in
  Alcotest.(check (pair int int)) "city" (20, 13)
    (Project.states (Project.compile ~schema:city.City.schema city.City.query));
  let adv = Adversary.generate Adversary.default_config in
  Alcotest.(check (pair int int)) "adversary" (9, 6)
    (Project.states (Project.compile ~schema:adv.Adversary.schema adv.Adversary.query));
  List.iter
    (fun (src, n) -> Alcotest.(check (pair int int)) src (n, n) (states src))
    [ ("/a//b/*/c!", 9); ("/a//b/*/*/c!", 15); ("/a//b/*/*/*/c!", 27); ("/a//b/*/*/*/*/c!", 51) ];
  Alcotest.(check (pair int int)) "no result node" (5, 1) (states "/r//payload")

(* ------------------------------------------------------------------ *)
(* Projected ≡ full on schema-aware generated instances: the generator
   (test/gen.ml) only produces trees conforming to their schema, which
   is the projection soundness precondition. *)

let query_pool =
  [ "/r//p!"; "/r/s!"; "/r//u[p!]"; "/r//s[k][p!]"; {|/r//s[p=$X!]|}; "/r//k!" ]

let prop_projected_answers_equal =
  let gen = QCheck.Gen.pair Gen.gen_schema_case (QCheck.Gen.oneofl query_pool) in
  QCheck.Test.make ~name:"projected ≡ full (snapshot answers)" ~count:400
    (QCheck.make ~print:(fun (c, q) -> Gen.print_schema_case c ^ " | " ^ q) gen)
    (fun (c, q_src) ->
      let schema = Gen.schema_of_case c in
      let tree = Gen.conforming_tree schema ~seed:c.Gen.tree_seed in
      if Validate.tree schema tree <> [] then
        QCheck.Test.fail_report "generated tree does not conform to its schema";
      let q = Parser.parse q_src in
      let p = Project.compile ~schema q in
      let projected, st = Project.tree p tree in
      if Print.byte_size tree <> Print.byte_size projected + st.Project.bytes_saved then
        QCheck.Test.fail_report "byte accounting does not add up";
      if st.Project.kept_nodes > st.Project.full_nodes then
        QCheck.Test.fail_report "kept more nodes than examined";
      let full = Gen.tuples (Eval.eval q (Doc.of_xml tree)) in
      let proj = Gen.tuples (Eval.eval q (Doc.of_xml projected)) in
      full = proj)

(* ------------------------------------------------------------------ *)
(* Seeded faulty differentials over whole evaluations: projection must
   not change what a run can answer, complete-flag semantics included,
   and the projection counters must reconcile with the metrics sink. *)

let reconcile_projection (obs : Obs.t) (r : Engine.report) =
  Alcotest.(check (list string))
    "report = metrics" []
    (List.map
       (fun (x : Engine.mismatch) -> x.Engine.field)
       (Engine.reconcile r obs.Obs.metrics))

let adversary_arm ~project ?obs (cfg : Adversary.config) ~budget ~lazy_strategy =
  let inst = Adversary.generate cfg in
  let projector =
    if project then
      Some (Project.compile ~schema:inst.Adversary.schema inst.Adversary.query)
    else None
  in
  if lazy_strategy then
    Lazy_eval.run
      ~strategy:{ Lazy_eval.nfqa with Lazy_eval.max_calls = budget }
      ?obs ?projector ~registry:inst.Adversary.registry inst.Adversary.query
      inst.Adversary.doc
  else
    Engine.naive_run ~max_calls:budget ?obs ?projector inst.Adversary.registry
      inst.Adversary.query inst.Adversary.doc

let test_adversary_differential () =
  List.iter
    (fun family ->
      for seed = 1 to 8 do
        let cfg =
          {
            Adversary.family;
            seed;
            scale = 16 + (4 * seed);
            memoize = seed mod 2 = 0;
            fault_rate = (if seed mod 3 = 0 then 0.0 else 0.3);
            fault_permanent = seed mod 5 = 0;
            fault_seed = seed lxor 0x9e37;
            max_retries = 2;
          }
        in
        let budget = 24 + seed in
        let lazy_strategy = seed mod 2 = 1 in
        let reference =
          Gen.tuples
            (adversary_arm ~project:false
               { cfg with Adversary.fault_rate = 0.0; fault_permanent = false }
               ~budget:100_000 ~lazy_strategy:false)
              .Engine.answers
        in
        let rf = adversary_arm ~project:false cfg ~budget ~lazy_strategy in
        let obs = Obs.create () in
        let rp = adversary_arm ~project:true ~obs cfg ~budget ~lazy_strategy in
        let ctx = Printf.sprintf "%s seed %d" (Adversary.family_name family) seed in
        reconcile_projection obs rp;
        Alcotest.(check bool) (ctx ^ ": projection ran") true (rp.Engine.full_nodes > 0);
        Alcotest.(check bool)
          (ctx ^ ": projected answers within the fault-free reference")
          true
          (Gen.subset (Gen.tuples rp.Engine.answers) reference);
        if rf.Engine.complete then begin
          Alcotest.(check bool) (ctx ^ ": full complete => projected complete") true
            rp.Engine.complete;
          Alcotest.(check bool) (ctx ^ ": both complete => equal tuples") true
            (Gen.tuples rp.Engine.answers = Gen.tuples rf.Engine.answers);
          Alcotest.(check bool) (ctx ^ ": projection never invokes more") true
            (rp.Engine.invoked <= rf.Engine.invoked)
        end;
        if rp.Engine.complete then
          Alcotest.(check bool) (ctx ^ ": projected complete => reference answers") true
            (Gen.tuples rp.Engine.answers = reference)
      done)
    [ Adversary.Skewed_fanout; Adversary.Bounded_recursion; Adversary.Push_drop_all ]

let test_city_differential () =
  for seed = 1 to 6 do
    let cfg = { City.default_config with City.hotels = 6 + seed; seed } in
    let arm ~project =
      let inst = City.generate cfg in
      Registry.inject_faults inst.City.registry ~seed [ Faults.Flaky 0.25 ];
      let projector =
        if project then Some (Project.compile ~schema:inst.City.schema inst.City.query)
        else None
      in
      Lazy_eval.run ~schema:inst.City.schema ~registry:inst.City.registry
        ~strategy:Lazy_eval.nfqa_typed ?projector inst.City.query inst.City.doc
    in
    let rf = arm ~project:false in
    let rp = arm ~project:true in
    let ctx = Printf.sprintf "city seed %d" seed in
    Alcotest.(check bool) (ctx ^ ": projection ran") true (rp.Engine.full_nodes > 0);
    Alcotest.(check bool) (ctx ^ ": complete flags agree") rf.Engine.complete
      rp.Engine.complete;
    if rf.Engine.complete then
      Alcotest.(check bool) (ctx ^ ": equal tuples") true
        (Gen.tuples rp.Engine.answers = Gen.tuples rf.Engine.answers)
  done

(* ------------------------------------------------------------------ *)
(* Golden projection statistics at fixed seeds: [Project.doc] on the
   fresh document, [Project.tree] on its serialization,
   [spliced_forest] of every call's result against its parent, and the
   report of a projected naive run (document plus every spliced
   result). Any change to the projector's decisions or to the
   byte accounting shows here as a changed number. *)

module Goingout = Axml_workload.Goingout
module Synthetic = Axml_workload.Synthetic

type golden_instance = {
  g_doc : Doc.t;
  g_registry : Registry.t;
  g_schema : Schema.t;
  g_query : P.t;
}

let golden_instances =
  let city () =
    let i = City.generate City.default_config in
    {
      g_doc = i.City.doc;
      g_registry = i.City.registry;
      g_schema = i.City.schema;
      g_query = i.City.query;
    }
  in
  let goingout () =
    let i = Goingout.generate Goingout.default_config in
    {
      g_doc = i.Goingout.doc;
      g_registry = i.Goingout.registry;
      g_schema = i.Goingout.schema;
      g_query = i.Goingout.query;
    }
  in
  let synthetic () =
    let i = Synthetic.generate { Synthetic.default_config with Synthetic.nodes = 2000 } in
    {
      g_doc = i.Synthetic.doc;
      g_registry = i.Synthetic.registry;
      g_schema = i.Synthetic.schema;
      g_query = i.Synthetic.query;
    }
  in
  let adversary family () =
    let i =
      Adversary.generate { Adversary.default_config with Adversary.family; seed = 5; scale = 24 }
    in
    {
      g_doc = i.Adversary.doc;
      g_registry = i.Adversary.registry;
      g_schema = i.Adversary.schema;
      g_query = i.Adversary.query;
    }
  in
  [ ("city", city); ("goingout", goingout); ("synthetic", synthetic) ]
  @ List.map (fun (name, f) -> ("adversary/" ^ name, adversary f)) Adversary.families

let show_stats (st : Project.stats) =
  Printf.sprintf "full=%d kept=%d saved=%d" st.Project.full_nodes st.Project.kept_nodes
    st.Project.bytes_saved

let golden_stats make =
  let projector g = Project.compile ~schema:g.g_schema g.g_query in
  let doc_stats =
    let g = make () in
    Project.doc (projector g) g.g_doc
  in
  let tree_stats =
    let g = make () in
    snd (Project.tree (projector g) (Doc.to_xml g.g_doc))
  in
  let spliced_stats =
    let g = make () in
    let p = projector g in
    List.fold_left
      (fun acc (call : Doc.node) ->
        match (call.Doc.parent, Doc.call_name call) with
        | Some parent, Some name ->
          let params = List.map Doc.node_to_xml call.Doc.children in
          let result, _ = Registry.invoke g.g_registry ~name ~params () in
          Project.add_stats acc (snd (Project.spliced_forest p ~parent result))
        | _ -> acc)
      Project.zero_stats (Doc.function_nodes g.g_doc)
  in
  let run_stats =
    let g = make () in
    let r =
      Engine.naive_run ~max_calls:200 ~projector:(projector g) g.g_registry g.g_query g.g_doc
    in
    {
      Project.full_nodes = r.Engine.full_nodes;
      kept_nodes = r.Engine.projected_nodes;
      bytes_saved = r.Engine.projected_bytes_saved;
    }
  in
  (show_stats doc_stats, show_stats tree_stats, show_stats spliced_stats, show_stats run_stats)

let golden_expected =
  [
    ( "city",
      ( "full=375 kept=239 saved=6847",
        "full=375 kept=239 saved=6847",
        "full=722 kept=486 saved=17479",
        "full=1219 kept=867 saved=28790" ) );
    ( "goingout",
      ( "full=307 kept=246 saved=1257",
        "full=307 kept=246 saved=1257",
        "full=185 kept=115 saved=1200",
        "full=429 kept=368 saved=1257" ) );
    ( "synthetic",
      ( "full=2012 kept=678 saved=12690",
        "full=2012 kept=678 saved=12690",
        "full=102 kept=80 saved=242",
        "full=2092 kept=758 saved=12690" ) );
    ( "adversary/bounded-recursion",
      ( "full=22 kept=22 saved=0",
        "full=22 kept=22 saved=0",
        "full=9 kept=9 saved=0",
        "full=64 kept=64 saved=0" ) );
    ( "adversary/unbounded-recursion",
      ( "full=5 kept=5 saved=0",
        "full=5 kept=5 saved=0",
        "full=8 kept=8 saved=0",
        "full=1605 kept=1605 saved=0" ) );
    ( "adversary/skewed-fanout",
      ( "full=131 kept=125 saved=73",
        "full=131 kept=125 saved=73",
        "full=44 kept=42 saved=33",
        "full=173 kept=167 saved=73" ) );
    ( "adversary/push-keep-all",
      ( "full=19 kept=19 saved=0",
        "full=19 kept=19 saved=0",
        "full=30 kept=30 saved=0",
        "full=49 kept=49 saved=0" ) );
    ( "adversary/push-drop-all",
      ( "full=13 kept=13 saved=0",
        "full=13 kept=13 saved=0",
        "full=34 kept=30 saved=1058",
        "full=47 kept=43 saved=1058" ) );
    ( "adversary/deep-nesting",
      ( "full=296 kept=296 saved=0",
        "full=296 kept=296 saved=0",
        "full=2 kept=2 saved=0",
        "full=298 kept=298 saved=0" ) );
  ]

let test_golden_stats () =
  List.iter
    (fun (name, make) ->
      let doc, tree, spliced, run = golden_stats make in
      let edoc, etree, espliced, erun = List.assoc name golden_expected in
      Alcotest.(check string) (name ^ ": Project.doc") edoc doc;
      Alcotest.(check string) (name ^ ": Project.tree") etree tree;
      Alcotest.(check string) (name ^ ": spliced_forest") espliced spliced;
      Alcotest.(check string) (name ^ ": projected naive run") erun run)
    golden_instances

(* ------------------------------------------------------------------ *)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "project"
    [
      ( "units",
        [
          quick "relevant call kept through its output type" test_keep_relevant_call;
          quick "irrelevant call dropped with its spine" test_drop_irrelevant_call;
          quick "keeps_call rules" test_keeps_call_rules;
          quick "schemaless projection keeps calls" test_no_schema_keeps_calls;
          quick "result subtrees kept verbatim" test_result_subtree_verbatim;
          quick "determinized state counts" test_determinized_sizes;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_projected_answers_equal ]);
      ( "differential",
        [
          quick "adversary: projected ≡ full under faults" test_adversary_differential;
          quick "city: projected ≡ full under faults" test_city_differential;
        ] );
      ("golden", [ quick "projection stats at fixed seeds" test_golden_stats ]);
    ]
