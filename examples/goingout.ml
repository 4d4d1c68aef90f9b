(* The introduction's motivating scenario: a night-life site with movies
   and restaurants, queried for the schedule of one show. Demonstrates the
   two kinds of pruning from §1:
   - position: calls under /goingout/restaurants are never invoked;
   - types: review services under /goingout/movies are never invoked.

     dune exec examples/goingout.exe *)

module Registry = Axml_services.Registry
module Lazy_eval = Axml_core.Lazy_eval
module Engine = Axml_engine.Engine
module Goingout = Axml_workload.Goingout

let invoked_services registry =
  List.map (fun (i : Registry.invocation) -> i.Registry.service) (Registry.history registry)
  |> List.sort_uniq compare

let count_by registry name =
  List.length
    (List.filter
       (fun (i : Registry.invocation) -> i.Registry.service = name)
       (Registry.history registry))

let () =
  Printf.printf "Query: %s\n\n" Goingout.query_src;

  let cfg = { Goingout.default_config with Goingout.theaters = 12 } in

  (* Naive: everything gets invoked, including the restaurant guides and
     the review services. *)
  let naive_inst = Goingout.generate cfg in
  let naive =
    Engine.naive_run naive_inst.Goingout.registry naive_inst.Goingout.query naive_inst.Goingout.doc
  in
  Printf.printf "naive:     %3d calls  services: %s\n" naive.Engine.invoked
    (String.concat ", " (invoked_services naive_inst.Goingout.registry));

  (* Lazy without types: restaurants are skipped (wrong position), but
     reviews are still fetched — a call under a theater might, for all the
     evaluator knows, return shows. *)
  let untyped_inst = Goingout.generate cfg in
  let untyped =
    Lazy_eval.run ~registry:untyped_inst.Goingout.registry ~schema:untyped_inst.Goingout.schema
      ~strategy:Lazy_eval.nfqa untyped_inst.Goingout.query untyped_inst.Goingout.doc
  in
  Printf.printf "lazy:      %3d calls  services: %s\n" untyped.Engine.invoked
    (String.concat ", " (invoked_services untyped_inst.Goingout.registry));
  assert (count_by untyped_inst.Goingout.registry "getrestaurants" = 0);

  (* Lazy with types: the review services are pruned too. *)
  let typed_inst = Goingout.generate cfg in
  let typed =
    Lazy_eval.run ~registry:typed_inst.Goingout.registry ~schema:typed_inst.Goingout.schema
      ~strategy:Lazy_eval.nfqa_typed typed_inst.Goingout.query typed_inst.Goingout.doc
  in
  Printf.printf "lazy+types:%3d calls  services: %s\n\n" typed.Engine.invoked
    (String.concat ", " (invoked_services typed_inst.Goingout.registry));
  assert (count_by typed_inst.Goingout.registry "getreviews" = 0);
  assert (count_by typed_inst.Goingout.registry "getrestaurants" = 0);

  (* §2: the full result may be returned "possibly intensionally" — a
     schedule that still contains a pending call contributes to the
     answer without being invoked, because the call's output would sit
     below the matched node and so cannot change the embedding. *)
  Printf.printf "The Hours plays at:\n";
  List.iter
    (fun (b : Axml_query.Eval.binding) ->
      List.iter
        (fun (_, (n : Axml_doc.node)) ->
          match List.filter Axml_doc.is_call n.Axml_doc.children with
          | [] ->
            Printf.printf "  %s\n" (Axml_xml.Tree.text_content (Axml_doc.node_to_xml n))
          | _ -> Printf.printf "  (still intensional: a getschedule call is pending)\n")
        b.Axml_query.Eval.results)
    typed.Engine.answers;
  assert (typed.Engine.answers <> [] = (naive.Engine.answers <> []))
