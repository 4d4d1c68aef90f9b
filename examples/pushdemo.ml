(* Query pushing (§7): when a service's full result is much larger than
   the part the query needs, the evaluator ships the relevant subquery
   with the call and the provider returns only witnesses.

     dune exec examples/pushdemo.exe *)

module Tree = Axml_xml.Tree
module Registry = Axml_services.Registry
module Witness = Axml_services.Witness
module Nfq = Axml_core.Nfq
module Lazy_eval = Axml_core.Lazy_eval
module Engine = Axml_engine.Engine
module City = Axml_workload.City

let () =
  (* First, the witness pruning itself, on a small forest. *)
  let forest =
    Axml_xml.Parse.forest
      {|<restaurant><name>In Delis</name><address>2nd Ave.</address><rating>5</rating>
          <review>long blurb, long blurb, long blurb, long blurb</review></restaurant>
        <restaurant><name>The Capital</name><address>2nd Ave.</address><rating>5</rating>
          <review>another long blurb that nobody asked for</review></restaurant>
        <restaurant><name>Chez Bof</name><address>3rd Ave.</address><rating>2</rating>
          <review>meh</review></restaurant>|}
  in
  let pattern =
    Nfq.optimistic
      (Axml_query.Parser.parse {|/restaurant[name=$X!][address=$Y!][rating="5"]|}).Axml_query.Pattern.root
  in
  let pruned = Witness.prune pattern forest in
  Printf.printf "Full result:   %d bytes, %d trees\n"
    (Axml_xml.Print.forest_byte_size forest)
    (List.length forest);
  Printf.printf "Pushed result: %d bytes, %d trees\n%s\n\n"
    (Axml_xml.Print.forest_byte_size pruned)
    (List.length pruned)
    (Axml_xml.Print.forest_to_string ~indent:2 pruned);

  (* Then end to end, on the city guide with fat review blurbs. *)
  let cfg = { City.default_config with City.hotels = 30; blurb_bytes = 2048 } in
  let run strategy =
    let inst = City.generate cfg in
    Lazy_eval.run ~registry:inst.City.registry ~schema:inst.City.schema ~strategy inst.City.query
      inst.City.doc
  in
  let plain = run Lazy_eval.nfqa_typed in
  let pushed = run (Lazy_eval.with_push Lazy_eval.nfqa_typed) in
  Printf.printf "without push: %7d bytes transferred, %.3f s simulated\n"
    plain.Engine.bytes_transferred plain.Engine.simulated_seconds;
  Printf.printf "with push:    %7d bytes transferred, %.3f s simulated (%d pushed calls)\n"
    pushed.Engine.bytes_transferred pushed.Engine.simulated_seconds
    pushed.Engine.pushed;
  assert (List.length plain.Engine.answers = List.length pushed.Engine.answers);
  Printf.printf "same %d answers either way\n" (List.length pushed.Engine.answers)
