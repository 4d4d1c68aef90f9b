(* The paper's running example, end to end: the Fig. 1 city-guide
   document, the Fig. 4 query, relevant-call detection (§2–§3), layers
   (§4), and the lazy-vs-naive comparison.

     dune exec examples/cityguide.exe *)

module Doc = Axml_doc
module P = Axml_query.Pattern
module Relevance = Axml_core.Relevance
module Nfq = Axml_core.Nfq
module Lpq = Axml_core.Lpq
module Influence = Axml_core.Influence
module Typing = Axml_core.Typing
module Engine = Axml_engine.Engine
module Lazy_eval = Axml_core.Lazy_eval
module Schema = Axml_schema.Schema
module City = Axml_workload.City

let call_ids calls =
  List.filter_map
    (fun (n : Doc.node) ->
      match n.Doc.label with Doc.Call { call_id; _ } -> Some call_id | _ -> None)
    calls
  |> List.sort_uniq compare

let show_ids ids = String.concat ", " (List.map string_of_int ids)

let () =
  let instance = City.figure1 () in
  print_endline "The Fig. 1 document (calls numbered as in the paper):";
  Format.printf "%a@.@." Doc.pp instance.City.doc;

  Printf.printf "Query (Fig. 4): %s\n\n" City.query_src;

  (* Relevant calls, without and with type information. *)
  let rqs = Nfq.of_query instance.City.query in
  let untyped =
    List.concat_map (fun rq -> Relevance.relevant_calls rq instance.City.doc) rqs |> call_ids
  in
  Printf.printf "NFQ-relevant calls (no type info):   %s\n" (show_ids untyped);
  let ty = Typing.create instance.City.schema instance.City.query in
  let known_functions = Schema.function_names instance.City.schema in
  let typed =
    List.filter_map (Typing.refine ty ~known_functions) rqs
    |> List.concat_map (fun rq -> Relevance.relevant_calls rq instance.City.doc)
    |> call_ids
  in
  Printf.printf "NFQ-relevant calls (typed, §5):      %s   <- the paper's {1,3,4,10}\n" (show_ids typed);
  let lpq =
    List.concat_map (fun rq -> Relevance.relevant_calls rq instance.City.doc)
      (Lpq.of_query instance.City.query)
    |> call_ids
  in
  Printf.printf "LPQ candidates (relaxed, §3.1):      %s\n\n" (show_ids lpq);

  (* Fig. 6: three of the NFQs — for the restaurant node (b) and the
     hotel-rating value (c); (a) is the hotel-position NFQ. *)
  print_endline "Three node-focused queries (Fig. 6):";
  let find_nfq pred = List.find pred rqs in
  let hotel_nfq =
    find_nfq (fun rq -> rq.Relevance.lin = [ (P.Child, P.Const "guide") ])
  in
  let restaurant_nfq =
    find_nfq (fun rq ->
        rq.Relevance.target_axis = P.Descendant
        &&
        match List.rev rq.Relevance.lin with
        | (_, P.Const "nearby") :: _ -> true
        | _ -> false)
  in
  let rating_value_nfq =
    find_nfq (fun rq ->
        match List.rev rq.Relevance.lin with
        | (_, P.Const "rating") :: (_, P.Const "hotel") :: _ -> true
        | _ -> false)
  in
  Format.printf "  (a) hotels:      %a@." P.pp hotel_nfq.Relevance.query;
  Format.printf "  (b) restaurants: %a@." P.pp restaurant_nfq.Relevance.query;
  Format.printf "  (c) ratings:     %a@.@." P.pp rating_value_nfq.Relevance.query;

  (* Fig. 7: the refined version of NFQ (c), with concrete service names
     in place of the star function nodes. *)
  (match Typing.refine ty ~known_functions rating_value_nfq with
  | Some refined ->
    Format.printf "Refined NFQ (Fig. 7):@.  %a@.@." P.pp refined.Relevance.query
  | None -> print_endline "(refined NFQ is empty)");

  (* Fig. 8: the function-call guide of the document. *)
  let guide = Axml_core.Fguide.build instance.City.doc in
  Printf.printf "Function-call guide (Fig. 8): %d calls under %d paths\n"
    (Axml_core.Fguide.call_count guide)
    (List.length (Axml_core.Fguide.paths guide));
  List.iter
    (fun path -> Printf.printf "  /%s\n" (String.concat "/" path))
    (Axml_core.Fguide.paths guide);
  print_newline ();

  (* Layers. *)
  let layers = Influence.layers rqs in
  Printf.printf "NFQ layers (processed in this order):\n";
  List.iteri
    (fun i layer ->
      Printf.printf "  layer %d: %s\n" i
        (String.concat "; "
           (List.map
              (fun rq ->
                let lin =
                  String.concat "/"
                    (List.map
                       (fun (_, l) -> Format.asprintf "%a" P.pp_label l)
                       rq.Relevance.lin)
                in
                if lin = "" then "(root)" else lin)
              layer)))
    layers;
  print_newline ();

  (* Lazy vs naive. *)
  let lazy_report =
    Lazy_eval.run ~registry:instance.City.registry ~schema:instance.City.schema
      ~strategy:Lazy_eval.nfqa_typed instance.City.query instance.City.doc
  in
  let naive_instance = City.figure1 () in
  let naive_report =
    Engine.naive_run naive_instance.City.registry naive_instance.City.query naive_instance.City.doc
  in
  Printf.printf "lazy:  %d calls invoked, answers: " lazy_report.Engine.invoked;
  List.iter
    (fun (b : Axml_query.Eval.binding) ->
      List.iter (fun (x, v) -> Printf.printf "%s=%S " x v) b.Axml_query.Eval.vars)
    lazy_report.Engine.answers;
  Printf.printf "\nnaive: %d calls invoked, answers: " naive_report.Engine.invoked;
  List.iter
    (fun (b : Axml_query.Eval.binding) ->
      List.iter (fun (x, v) -> Printf.printf "%s=%S " x v) b.Axml_query.Eval.vars)
    naive_report.Engine.answers;
  print_newline ()
