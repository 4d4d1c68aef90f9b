(* Quickstart: build an Active XML document, register a service, run a
   query lazily.

     dune exec examples/quickstart.exe *)

module Doc = Axml_doc
module Tree = Axml_xml.Tree
module Parser = Axml_query.Parser
module Registry = Axml_services.Registry
module Lazy_eval = Axml_core.Lazy_eval
module Engine = Axml_engine.Engine

let () =
  (* 1. An AXML document: a weather page whose forecast is intensional —
     the <axml:call> element is a pending call to the "forecast"
     service, with one parameter. *)
  let doc =
    Doc.parse
      {|<weather>
          <city>Paris</city>
          <today><sky>cloudy</sky></today>
          <tomorrow><axml:call name="forecast">Paris</axml:call></tomorrow>
        </weather>|}
  in
  Printf.printf "Document before evaluation:\n%s\n\n" (Doc.to_string ~indent:2 doc);

  (* 2. A simulated Web service. Results are plain XML forests and may
     themselves contain further calls. *)
  let registry = Registry.create () in
  Registry.register registry ~name:"forecast" (fun _params ->
      [ Tree.element "sky" [ Tree.text "sunny" ] ]);
  Registry.register registry ~name:"mood" (fun _params -> [ Tree.text "n/a" ]);

  (* 3. A tree-pattern query: tomorrow's sky. The '!' marks the result
     node. *)
  let query = Parser.parse "/weather/tomorrow/sky!" in

  (* 4. Lazy evaluation: only calls that can contribute to the query are
     invoked. *)
  let report = Lazy_eval.run ~registry query doc in
  Printf.printf "Invoked %d call(s); document after evaluation:\n%s\n\n"
    report.Engine.invoked
    (Doc.to_string ~indent:2 doc);
  List.iter
    (fun (b : Axml_query.Eval.binding) ->
      List.iter
        (fun (_, n) -> Printf.printf "answer: %s\n" (Axml_xml.Print.to_string (Doc.node_to_xml n)))
        b.Axml_query.Eval.results)
    report.Engine.answers;

  (* A query about today would have invoked nothing. *)
  let doc2 =
    Doc.parse
      {|<weather><today><sky>cloudy</sky></today>
        <tomorrow><axml:call name="forecast">Paris</axml:call></tomorrow></weather>|}
  in
  let report2 = Lazy_eval.run ~registry (Parser.parse "/weather/today/sky!") doc2 in
  Printf.printf "\nQuery about today invoked %d call(s).\n" report2.Engine.invoked
