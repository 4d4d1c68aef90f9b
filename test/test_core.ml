(* Integration tests for the AXML core: NFQ/LPQ generation, relevance on
   the paper's running example, layering, F-guides, typing, pushing, and
   the lazy-vs-naive equivalence. *)

module Doc = Axml_doc
module P = Axml_query.Pattern
module Eval = Axml_query.Eval
module Schema = Axml_schema.Schema
module Registry = Axml_services.Registry
module Relevance = Axml_core.Relevance
module Nfq = Axml_core.Nfq
module Lpq = Axml_core.Lpq
module Influence = Axml_core.Influence
module Typing = Axml_core.Typing
module Fguide = Axml_core.Fguide
module Naive = Axml_core.Naive
module Lazy_eval = Axml_core.Lazy_eval
module City = Axml_workload.City

let call_ids nodes =
  List.filter_map
    (fun (n : Doc.node) ->
      match n.Doc.label with Doc.Call { call_id; _ } -> Some call_id | _ -> None)
    nodes
  |> List.sort_uniq compare

let nfq_relevant_ids ?typing ?known (instance : City.t) =
  let rqs = Nfq.of_query instance.City.query in
  let rqs =
    match typing with
    | None -> rqs
    | Some mode ->
      let ty = Typing.create ~mode instance.City.schema instance.City.query in
      let known_functions =
        match known with None -> Schema.function_names instance.City.schema | Some k -> k
      in
      List.filter_map (Typing.refine ty ~known_functions) rqs
  in
  List.concat_map (fun rq -> Relevance.relevant_calls rq instance.City.doc) rqs |> call_ids

(* Answers normalized to their variable assignments. *)
let tuples answers =
  List.map (fun (b : Eval.binding) -> b.Eval.vars) answers |> List.sort_uniq compare

let check_tuples = Alcotest.(check (list (list (pair string string))))

(* ------------------------------------------------------------------ *)
(* §2/§3: relevance on the Fig. 1 document *)

let test_figure1_nfq_relevance () =
  let instance = City.figure1 () in
  (* Without type information, NFQs also retrieve the museum calls 2 and
     5 (Prop. 1 assumes arbitrary output types); calls 6-9 are excluded
     by their hotels' names, as §2 explains. *)
  Alcotest.(check (list int))
    "untyped NFQ set" [ 1; 2; 3; 4; 5; 10 ]
    (nfq_relevant_ids instance)

let test_figure1_typed_relevance () =
  let instance = City.figure1 () in
  (* §5: output types rule out the museum calls, leaving exactly the set
     the paper gives: 1, 3, 4, 10. *)
  Alcotest.(check (list int))
    "typed NFQ set" City.figure1_relevant_calls
    (nfq_relevant_ids ~typing:Axml_schema.Sat.Exact instance);
  Alcotest.(check (list int))
    "lenient typing agrees here" City.figure1_relevant_calls
    (nfq_relevant_ids ~typing:Axml_schema.Sat.Lenient instance)

let test_figure1_lpq_superset () =
  let instance = City.figure1 () in
  let lpq_ids =
    List.concat_map
      (fun rq -> Relevance.relevant_calls rq instance.City.doc)
      (Lpq.of_query instance.City.query)
    |> call_ids
  in
  let nfq_ids = nfq_relevant_ids (City.figure1 ()) in
  List.iter
    (fun id -> Alcotest.(check bool) (Printf.sprintf "call %d in LPQ set" id) true (List.mem id lpq_ids))
    nfq_ids;
  (* §3.1: the LPQs select, among others, the getrating and
     getnearbyrestos of the "Pennsylvania" (calls 8 and 9). *)
  Alcotest.(check bool) "call 8 (Pennsylvania rating)" true (List.mem 8 lpq_ids);
  Alcotest.(check bool) "call 9 (Pennsylvania restos)" true (List.mem 9 lpq_ids)

(* ------------------------------------------------------------------ *)
(* §4: sequencing *)

let test_figure1_layers () =
  let instance = City.figure1 () in
  let rqs = Nfq.of_query instance.City.query in
  let layers = Influence.layers rqs in
  Alcotest.(check bool) "several layers" true (List.length layers >= 4);
  (* The first layer is the root-position NFQ (empty linear part: it may
     influence everything). *)
  (match layers with
  | first :: _ ->
    Alcotest.(check int) "first layer is the root NFQ" 1 (List.length first);
    Alcotest.(check bool) "its lin is empty" true
      ((List.hd first).Relevance.lin = [])
  | [] -> Alcotest.fail "no layers");
  (* Every NFQ appears in exactly one layer. *)
  Alcotest.(check int) "partition" (List.length rqs)
    (List.length (List.concat layers))

let test_layer_order_respects_influence () =
  let instance = City.figure1 () in
  let rqs = Nfq.of_query instance.City.query in
  let layers = Influence.layers rqs in
  (* If q may influence q' and they are in different layers, q's layer
     comes first. *)
  let position rq =
    let rec find i = function
      | [] -> -1
      | layer :: rest ->
        if List.exists (fun r -> r.Relevance.source = rq.Relevance.source) layer then i
        else find (i + 1) rest
    in
    find 0 layers
  in
  List.iter
    (fun q ->
      List.iter
        (fun q' ->
          if position q <> position q' && Influence.may_influence q q' then
            Alcotest.(check bool) "order" true (position q < position q'))
        rqs)
    rqs

let test_independence () =
  (* //a and //b in the same layer are both independent (§4.4's example);
     here: two NFQs with disjoint path languages. *)
  let q = Axml_query.Parser.parse "/r[a/f()][b/g()]" in
  let rqs = Nfq.of_query q in
  let a_nfq =
    List.find
      (fun rq -> rq.Relevance.lin = [ (P.Child, P.Const "r"); (P.Child, P.Const "a") ])
      rqs
  in
  let layers = Influence.layers rqs in
  let layer_of rq =
    List.find (fun l -> List.exists (fun r -> r.Relevance.source = rq.Relevance.source) l) layers
  in
  Alcotest.(check bool) "a is independent in its layer" true
    (Influence.independent_in_layer a_nfq (layer_of a_nfq))

(* ------------------------------------------------------------------ *)
(* The lazy evaluator on the running example *)

let expected_figure1_answer = [ [ ("X", "Mama"); ("Y", "75, 2nd Av.") ] ]

let test_figure1_lazy () =
  let instance = City.figure1 () in
  let report =
    Lazy_eval.run ~registry:instance.City.registry ~schema:instance.City.schema
      ~strategy:Lazy_eval.nfqa_typed instance.City.query instance.City.doc
  in
  check_tuples "answer" expected_figure1_answer (tuples report.Lazy_eval.answers);
  Alcotest.(check bool) "complete" true report.Lazy_eval.complete;
  (* The relevant calls are 1, 3, 10 plus the follow-up call 11 from the
     result of call 1; call 4 may be spared when call 3 runs first. *)
  Alcotest.(check bool) "between 3 and 6 calls" true
    (report.Lazy_eval.invoked >= 3 && report.Lazy_eval.invoked <= 6)

let test_figure1_naive_agrees () =
  let lazy_instance = City.figure1 () in
  let naive_instance = City.figure1 () in
  let lazy_report =
    Lazy_eval.run ~registry:lazy_instance.City.registry ~schema:lazy_instance.City.schema
      ~strategy:Lazy_eval.nfqa_typed lazy_instance.City.query lazy_instance.City.doc
  in
  let naive_report =
    Naive.run naive_instance.City.registry naive_instance.City.query naive_instance.City.doc
  in
  check_tuples "same answers" (tuples naive_report.Naive.answers)
    (tuples lazy_report.Lazy_eval.answers);
  (* Naive materializes all 10 initial calls plus the one brought by the
     first getnearbyrestos. *)
  Alcotest.(check int) "naive invokes everything" 11 naive_report.Naive.invoked;
  Alcotest.(check bool) "lazy invokes fewer" true
    (lazy_report.Lazy_eval.invoked < naive_report.Naive.invoked)

(* Runs the same query under a strategy on a fresh generated instance and
   checks the answers against naive materialization. *)
let run_strategy cfg strategy =
  let instance = City.generate cfg in
  Lazy_eval.run ~registry:instance.City.registry ~schema:instance.City.schema ~strategy
    instance.City.query instance.City.doc

let naive_tuples cfg =
  let instance = City.generate cfg in
  tuples (Naive.run instance.City.registry instance.City.query instance.City.doc).Naive.answers

let small_cfg = { City.default_config with City.hotels = 8; seed = 7 }

let strategies =
  [
    ("nfqa", Lazy_eval.nfqa);
    ("nfqa+types", Lazy_eval.nfqa_typed);
    ("nfqa+lenient", Lazy_eval.nfqa_lenient);
    ("lpq", Lazy_eval.lpq_only);
    ("nfqa+fguide", Lazy_eval.with_fguide Lazy_eval.nfqa);
    ("lpq+fguide", Lazy_eval.with_fguide Lazy_eval.lpq_only);
    ("nfqa+push", Lazy_eval.with_push Lazy_eval.nfqa);
    ("nfqa+types+push+fguide", Lazy_eval.with_push (Lazy_eval.with_fguide Lazy_eval.nfqa_typed));
    ("no-layering", { Lazy_eval.nfqa with Lazy_eval.layering = false });
    ("no-parallel", { Lazy_eval.nfqa with Lazy_eval.parallel = false });
    ("simplify", { Lazy_eval.nfqa with Lazy_eval.simplify_after_layer = true });
    ("speculative", { Lazy_eval.nfqa with Lazy_eval.speculative = true });
    ("dedup", { Lazy_eval.nfqa with Lazy_eval.containment_dedup = true });
    ("no-shared-ctx", { Lazy_eval.nfqa with Lazy_eval.share_contexts = false });
    ("materialize", { Lazy_eval.nfqa with Lazy_eval.materialize_results = true });
  ]

let test_strategies_agree_with_naive () =
  let expected = naive_tuples small_cfg in
  List.iter
    (fun (name, strategy) ->
      let report = run_strategy small_cfg strategy in
      check_tuples name expected (tuples report.Lazy_eval.answers);
      Alcotest.(check bool) (name ^ " complete") true report.Lazy_eval.complete)
    strategies

let test_lazy_invokes_fewer_than_naive () =
  let instance = City.generate small_cfg in
  let naive_report =
    Naive.run instance.City.registry instance.City.query instance.City.doc
  in
  let report = run_strategy small_cfg Lazy_eval.nfqa_typed in
  Alcotest.(check bool) "strictly fewer calls" true
    (report.Lazy_eval.invoked < naive_report.Naive.invoked)

let test_typing_reduces_calls () =
  let untyped = run_strategy small_cfg Lazy_eval.nfqa in
  let typed = run_strategy small_cfg Lazy_eval.nfqa_typed in
  Alcotest.(check bool) "typed <= untyped" true
    (typed.Lazy_eval.invoked <= untyped.Lazy_eval.invoked)

let test_nfq_beats_lpq_on_calls () =
  let lpq = run_strategy small_cfg Lazy_eval.lpq_only in
  let nfq = run_strategy small_cfg Lazy_eval.nfqa in
  Alcotest.(check bool) "nfq <= lpq calls" true
    (nfq.Lazy_eval.invoked <= lpq.Lazy_eval.invoked)

let test_push_saves_bytes () =
  let plain = run_strategy small_cfg Lazy_eval.nfqa in
  let pushed = run_strategy small_cfg (Lazy_eval.with_push Lazy_eval.nfqa) in
  Alcotest.(check bool) "pushed some calls" true (pushed.Lazy_eval.pushed > 0);
  Alcotest.(check bool) "fewer bytes" true
    (pushed.Lazy_eval.bytes_transferred < plain.Lazy_eval.bytes_transferred)

(* A query the relevance constructions reject (an OR node, which only
   the wire codec produces) fails before the run touches anything: the
   document is not projected and no span is opened. *)
let test_unsupported_query_rejected_first () =
  let inst = City.generate small_cfg in
  let doc = inst.City.doc in
  let before = Doc.size doc in
  let q =
    P.query
      (P.make (P.Const "guide")
         [ P.make P.Or [ P.make ~result:true (P.Const "hotel") []; P.make (P.Const "nearby") [] ] ])
  in
  let obs = Axml_obs.Obs.create () in
  let projector = Axml_project.Project.compile ~schema:inst.City.schema q in
  match Lazy_eval.run ~obs ~projector ~registry:inst.City.registry q doc with
  | exception Invalid_argument _ ->
    Alcotest.(check int) "document not projected" before (Doc.size doc);
    Alcotest.(check int) "no span opened" 0
      (List.length (Axml_obs.Trace.events obs.Axml_obs.Obs.trace))
  | _ -> Alcotest.fail "an OR query must be rejected"

(* ------------------------------------------------------------------ *)
(* §6.2: F-guides *)

let test_fguide_matches_lpq () =
  let instance = City.generate small_cfg in
  let guide = Fguide.build instance.City.doc in
  List.iter
    (fun rq ->
      let on_doc =
        Relevance.relevant_calls rq instance.City.doc
        |> List.map (fun (n : Doc.node) -> n.Doc.id)
        |> List.sort compare
      in
      let on_guide =
        Fguide.candidates guide (Relevance.guide_steps rq)
        |> List.map (fun (n : Doc.node) -> n.Doc.id)
        |> List.sort compare
      in
      Alcotest.(check (list int)) "same calls" on_doc on_guide)
    (Lpq.of_query instance.City.query)

let test_fguide_updates () =
  let instance = City.figure1 () in
  let d = instance.City.doc in
  let guide = Fguide.build d in
  let before = Fguide.call_count guide in
  (* attach a new subtree containing a call, as a document update *)
  let hotel =
    Doc.forest_of_xml d
      (Axml_xml.Parse.forest
         {|<hotel><name>New</name><nearby><axml:call name="getnearbyrestos">x</axml:call></nearby></hotel>|})
  in
  (match hotel with
  | [ h ] ->
    Doc.append_child d (Doc.root d) h;
    Fguide.add_subtree guide h;
    Alcotest.(check int) "one more call" (before + 1) (Fguide.call_count guide);
    (* and remove it again *)
    Fguide.remove_subtree guide h;
    Doc.remove_node d h;
    Alcotest.(check int) "back to before" before (Fguide.call_count guide);
    (* candidates equal a fresh rebuild *)
    let fresh = Fguide.build d in
    List.iter
      (fun rq ->
        let ids g =
          Fguide.candidates g (Relevance.guide_steps rq)
          |> List.map (fun (n : Doc.node) -> n.Doc.id)
          |> List.sort compare
        in
        Alcotest.(check (list int)) "same candidates" (ids fresh) (ids guide))
      (Lpq.of_query instance.City.query)
  | _ -> Alcotest.fail "expected one hotel")

let test_goingout_integration () =
  let cfg = { Axml_workload.Goingout.default_config with Axml_workload.Goingout.theaters = 8 } in
  let naive_inst = Axml_workload.Goingout.generate cfg in
  let open Axml_workload in
  let naive =
    Naive.run naive_inst.Goingout.registry naive_inst.Goingout.query naive_inst.Goingout.doc
  in
  let lazy_inst = Goingout.generate cfg in
  let report =
    Lazy_eval.run ~registry:lazy_inst.Goingout.registry ~schema:lazy_inst.Goingout.schema
      ~strategy:Lazy_eval.nfqa_typed lazy_inst.Goingout.query lazy_inst.Goingout.doc
  in
  Alcotest.(check int) "same answer count"
    (List.length naive.Naive.answers)
    (List.length report.Lazy_eval.answers);
  (* type pruning must keep reviews and restaurants untouched *)
  let invoked_services =
    List.map
      (fun (i : Registry.invocation) -> i.Registry.service)
      (Registry.history lazy_inst.Goingout.registry)
    |> List.sort_uniq compare
  in
  Alcotest.(check bool) "no getreviews" false (List.mem "getreviews" invoked_services);
  Alcotest.(check bool) "no getrestaurants" false (List.mem "getrestaurants" invoked_services)

let test_synthetic_integration () =
  let open Axml_workload in
  let cfg = { Synthetic.default_config with Synthetic.nodes = 3_000 } in
  let naive_inst = Synthetic.generate cfg in
  let naive =
    Naive.run naive_inst.Synthetic.registry naive_inst.Synthetic.query naive_inst.Synthetic.doc
  in
  let lazy_inst = Synthetic.generate cfg in
  let report =
    Lazy_eval.run ~registry:lazy_inst.Synthetic.registry ~schema:lazy_inst.Synthetic.schema
      ~strategy:(Lazy_eval.with_fguide Lazy_eval.nfqa_typed) lazy_inst.Synthetic.query
      lazy_inst.Synthetic.doc
  in
  Alcotest.(check int) "same answer count"
    (List.length naive.Naive.answers)
    (List.length report.Lazy_eval.answers);
  Alcotest.(check bool) "fewer calls" true (report.Lazy_eval.invoked <= naive.Naive.invoked);
  (* noise calls never fire *)
  let noise =
    List.filter
      (fun (i : Registry.invocation) -> i.Registry.service = "noise")
      (Registry.history lazy_inst.Synthetic.registry)
  in
  Alcotest.(check int) "no noise calls" 0 (List.length noise)

let test_fguide_to_xml () =
  let instance = City.figure1 () in
  let guide = Fguide.build instance.City.doc in
  let xml = Fguide.to_xml guide in
  (* round-trips through the XML layer *)
  let reparsed = Axml_xml.Parse.tree (Axml_xml.Print.to_string xml) in
  Alcotest.(check bool) "serializable" true (Axml_xml.Tree.equal xml reparsed);
  (* extent counts sum to the call count *)
  let total =
    Axml_xml.Tree.fold
      (fun acc n ->
        match Axml_xml.Tree.attr "calls" n with
        | Some c -> acc + int_of_string c
        | None -> acc)
      0 xml
  in
  Alcotest.(check int) "counts sum to calls" (Fguide.call_count guide) total

let test_fguide_maintenance () =
  let instance = City.figure1 () in
  let guide = Fguide.build instance.City.doc in
  Alcotest.(check int) "ten calls initially" 10 (Fguide.call_count guide);
  (* Invoke call 1; the guide loses it and gains the getrating brought by
     the result (call 11). *)
  let call1 = List.hd (Doc.visible_function_nodes instance.City.doc) in
  let result, _ =
    Registry.invoke instance.City.registry ~name:"getnearbyrestos"
      ~params:(Naive.call_params call1) ()
  in
  let added = Doc.replace_call instance.City.doc call1 result in
  Fguide.update_after_replace guide ~invoked:call1 ~added;
  Alcotest.(check int) "still ten calls (−1 +1)" 10 (Fguide.call_count guide);
  (* Rebuilding from scratch gives the same candidate sets. *)
  let fresh = Fguide.build instance.City.doc in
  List.iter
    (fun rq ->
      let ids g =
        Fguide.candidates g (Relevance.guide_steps rq)
        |> List.map (fun (n : Doc.node) -> n.Doc.id)
        |> List.sort compare
      in
      Alcotest.(check (list int)) "maintained = rebuilt" (ids fresh) (ids guide))
    (Lpq.of_query instance.City.query)

(* ------------------------------------------------------------------ *)
(* Typing refinement mechanics *)

let test_refine_names_functions () =
  let instance = City.figure1 () in
  let ty = Typing.create instance.City.schema instance.City.query in
  let rqs = Nfq.of_query instance.City.query in
  let known_functions = Schema.function_names instance.City.schema in
  let refined = List.filter_map (Typing.refine ty ~known_functions) rqs in
  (* Refinement never produces star function nodes. *)
  List.iter
    (fun rq ->
      List.iter
        (fun (n : P.node) ->
          match n.P.label with
          | P.Fun P.Any_fun -> Alcotest.fail "star function left after refinement"
          | _ -> ())
        (P.nodes rq.Relevance.query))
    refined;
  (* The NFQ whose target is the restaurant node only accepts
     getnearbyrestos. *)
  let restaurant_rq =
    List.find
      (fun rq ->
        match List.rev rq.Relevance.lin with
        | (_, P.Const "nearby") :: _ -> rq.Relevance.target_axis = P.Descendant
        | _ -> false)
      refined
  in
  match P.find restaurant_rq.Relevance.query restaurant_rq.Relevance.target with
  | Some n ->
    Alcotest.(check bool) "target restricted" true
      (n.P.label = P.Fun (P.Named [ "getnearbyrestos" ]))
  | None -> Alcotest.fail "target not found"

(* ------------------------------------------------------------------ *)
(* Properties: strategy equivalence over random configurations *)

let gen_cfg =
  QCheck.Gen.(
    map2
      (fun seed hotels ->
        {
          City.default_config with
          City.seed;
          hotels;
          extensional_fraction = 0.4;
          intensional_rating_fraction = 0.6;
          intensional_nearby_fraction = 0.6;
          blurb_bytes = 16;
        })
      (int_bound 1000) (int_range 1 6))

let arb_cfg =
  QCheck.make ~print:(fun c -> Printf.sprintf "seed=%d hotels=%d" c.City.seed c.City.hotels) gen_cfg

let prop_all_strategies_equal_naive =
  QCheck.Test.make ~name:"every strategy = naive materialization" ~count:25 arb_cfg (fun cfg ->
      let expected = naive_tuples cfg in
      List.for_all
        (fun (_, strategy) ->
          let report = run_strategy cfg strategy in
          tuples report.Lazy_eval.answers = expected && report.Lazy_eval.complete)
        strategies)

let prop_lazy_never_more_calls =
  QCheck.Test.make ~name:"lazy never invokes more than naive" ~count:25 arb_cfg (fun cfg ->
      let instance = City.generate cfg in
      let naive_report =
        Naive.run instance.City.registry instance.City.query instance.City.doc
      in
      let report = run_strategy cfg Lazy_eval.nfqa_typed in
      report.Lazy_eval.invoked <= naive_report.Naive.invoked)

let node_ids nodes = List.map (fun (n : Doc.node) -> n.Doc.id) nodes |> List.sort_uniq compare

let prop_nfq_subset_of_lpq =
  QCheck.Test.make ~name:"NFQ calls ⊆ LPQ calls" ~count:40 arb_cfg (fun cfg ->
      let instance = City.generate cfg in
      let nfq_ids =
        List.concat_map
          (fun rq -> Relevance.relevant_calls rq instance.City.doc)
          (Nfq.of_query instance.City.query)
        |> node_ids
      in
      let lpq_ids =
        List.concat_map
          (fun rq -> Relevance.relevant_calls rq instance.City.doc)
          (Lpq.of_query instance.City.query)
        |> node_ids
      in
      List.for_all (fun id -> List.mem id lpq_ids) nfq_ids)

let prop_refined_subset_of_unrefined =
  QCheck.Test.make ~name:"refined NFQ calls ⊆ unrefined" ~count:40 arb_cfg (fun cfg ->
      let instance = City.generate cfg in
      let rqs = Nfq.of_query instance.City.query in
      let plain =
        List.concat_map (fun rq -> Relevance.relevant_calls rq instance.City.doc) rqs
        |> node_ids
      in
      let ty = Typing.create instance.City.schema instance.City.query in
      let known_functions = Schema.function_names instance.City.schema in
      let refined =
        List.filter_map (Typing.refine ty ~known_functions) rqs
        |> List.concat_map (fun rq -> Relevance.relevant_calls rq instance.City.doc)
        |> node_ids
      in
      List.for_all (fun id -> List.mem id plain) refined)

let gen_query_src =
  QCheck.Gen.oneofl
    [
      "/a/b/c";
      "/a//c[d]";
      {|/a[b="1"]//c[d=$X!]|};
      "/a[b][c]/d//e";
      "/a/*/b[c][d]";
      "/a//b//c[d][e]";
    ]

let prop_layers_partition_and_order =
  QCheck.Test.make ~name:"layers partition NFQs and respect influence" ~count:50
    (QCheck.make ~print:Fun.id gen_query_src)
    (fun src ->
      let q = Axml_query.Parser.parse src in
      let rqs = Nfq.of_query q in
      let layers = Influence.layers rqs in
      let flattened = List.concat layers in
      let position rq =
        let rec find i = function
          | [] -> -1
          | layer :: rest ->
            if List.exists (fun r -> r.Relevance.source = rq.Relevance.source) layer then i
            else find (i + 1) rest
        in
        find 0 layers
      in
      List.length flattened = List.length rqs
      && List.for_all
           (fun a ->
             List.for_all
               (fun b ->
                 position a = position b
                 || (not (Influence.may_influence a b))
                 || position a < position b)
               rqs)
           rqs)

(* [Influence.plan] decides every pair on automata shared by all the
   queries; it must agree with the pairwise definitions: same layer iff
   mutually may-influencing (transitively), ★ flags as
   [independent_in_layer], and one layer of everything without
   layering. *)
let test_plan_matches_pairwise () =
  let sources =
    [
      "/a/b/c";
      "/a//c[d]";
      {|/a[b="1"]//c[d=$X!]|};
      "/a//b//c[d][e]";
      "/r[a/f()][b/g()]";
      City.query_src;
      Axml_workload.Adversary.query_src;
    ]
  in
  List.iter
    (fun src ->
      let q = Axml_query.Parser.parse src in
      List.iter
        (fun rqs ->
          let qs = Array.of_list rqs in
          let n = Array.length qs in
          let reach =
            Array.init n (fun i ->
                Array.init n (fun j -> i = j || Influence.may_influence qs.(i) qs.(j)))
          in
          for k = 0 to n - 1 do
            for i = 0 to n - 1 do
              for j = 0 to n - 1 do
                if reach.(i).(k) && reach.(k).(j) then reach.(i).(j) <- true
              done
            done
          done;
          let index rq =
            let rec find i = if qs.(i) == rq then i else find (i + 1) in
            find 0
          in
          let layered = Influence.plan ~layering:true rqs in
          let layer_of = Array.make n (-1) in
          List.iteri
            (fun l layer -> List.iter (fun (rq, _) -> layer_of.(index rq) <- l) layer)
            layered;
          Alcotest.(check bool) (src ^ ": partition") true (Array.for_all (fun l -> l >= 0) layer_of);
          Alcotest.(check int) (src ^ ": partition size") n
            (List.length (List.concat layered));
          for i = 0 to n - 1 do
            for j = 0 to n - 1 do
              Alcotest.(check bool) (src ^ ": same layer iff mutually reachable")
                (reach.(i).(j) && reach.(j).(i))
                (layer_of.(i) = layer_of.(j));
              if reach.(i).(j) then
                Alcotest.(check bool) (src ^ ": order") true (layer_of.(i) <= layer_of.(j))
            done
          done;
          Alcotest.(check (list (list int))) (src ^ ": layers = Influence.layers")
            (List.map (List.map index) (Influence.layers rqs))
            (List.map (List.map (fun (rq, _) -> index rq)) layered);
          let check_flags layers =
            List.iter
              (fun layer ->
                let members = List.map fst layer in
                List.iter
                  (fun (rq, independent) ->
                    Alcotest.(check bool) (src ^ ": ★ flag")
                      (Influence.independent_in_layer rq members) independent)
                  layer)
              layers
          in
          check_flags layered;
          let flat = Influence.plan ~layering:false rqs in
          Alcotest.(check (list (list int))) (src ^ ": one layer without layering") [ List.init n Fun.id ]
            (List.map (List.map (fun (rq, _) -> index rq)) flat);
          check_flags flat)
        [ Nfq.of_query q; Lpq.of_query q ])
    sources

let prop_anchored_equals_topdown_for_nfqs =
  QCheck.Test.make ~name:"anchored NFQ check = top-down on workloads" ~count:20 arb_cfg
    (fun cfg ->
      let instance = City.generate cfg in
      let calls = Doc.visible_function_nodes instance.City.doc in
      List.for_all
        (fun rq ->
          let top = node_ids (Relevance.relevant_calls rq instance.City.doc) in
          List.for_all
            (fun c -> Relevance.retrieves rq instance.City.doc c = List.mem c.Doc.id top)
            calls)
        (Nfq.of_query instance.City.query))

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "core"
    [
      ( "relevance",
        [
          quick "figure1 untyped NFQs" test_figure1_nfq_relevance;
          quick "figure1 typed NFQs" test_figure1_typed_relevance;
          quick "figure1 LPQ superset" test_figure1_lpq_superset;
        ] );
      ( "sequencing",
        [
          quick "figure1 layers" test_figure1_layers;
          quick "layer order" test_layer_order_respects_influence;
          quick "independence" test_independence;
        ] );
      ( "lazy evaluation",
        [
          quick "figure1 lazy run" test_figure1_lazy;
          quick "figure1 naive agreement" test_figure1_naive_agrees;
          quick "all strategies agree with naive" test_strategies_agree_with_naive;
          quick "lazy < naive calls" test_lazy_invokes_fewer_than_naive;
          quick "typing reduces calls" test_typing_reduces_calls;
          quick "nfq <= lpq calls" test_nfq_beats_lpq_on_calls;
          quick "push saves bytes" test_push_saves_bytes;
          quick "unsupported query rejected first" test_unsupported_query_rejected_first;
        ] );
      ( "fguide",
        [
          quick "guide = document for LPQs" test_fguide_matches_lpq;
          quick "maintenance" test_fguide_maintenance;
          quick "document updates" test_fguide_updates;
          quick "xml serialization" test_fguide_to_xml;
        ] );
      ("typing", [ quick "refinement names functions" test_refine_names_functions ]);
      ( "workloads",
        [
          quick "goingout integration" test_goingout_integration;
          quick "synthetic integration" test_synthetic_integration;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_all_strategies_equal_naive;
          QCheck_alcotest.to_alcotest prop_lazy_never_more_calls;
          QCheck_alcotest.to_alcotest prop_nfq_subset_of_lpq;
          QCheck_alcotest.to_alcotest prop_refined_subset_of_unrefined;
          QCheck_alcotest.to_alcotest prop_layers_partition_and_order;
          quick "Influence.plan = pairwise definitions" test_plan_matches_pairwise;
          QCheck_alcotest.to_alcotest prop_anchored_equals_topdown_for_nfqs;
        ] );
    ]
