(* Tests for the simulated-services substrate: registry, cost model,
   witness pruning. *)

module Tree = Axml_xml.Tree
module Registry = Axml_services.Registry
module Witness = Axml_services.Witness
module Parser = Axml_query.Parser
module P = Axml_query.Pattern
module Nfq = Axml_core.Nfq

let e = Tree.element
let t = Tree.text

(* ------------------------------------------------------------------ *)
(* Registry *)

let test_register_invoke () =
  let r = Registry.create () in
  Registry.register r ~name:"echo" (fun params -> params);
  Alcotest.(check bool) "registered" true (Registry.is_registered r "echo");
  Alcotest.(check (list string)) "names" [ "echo" ] (Registry.names r);
  let result, inv = Registry.invoke r ~name:"echo" ~params:[ t "hi" ] () in
  Alcotest.(check int) "result" 1 (List.length result);
  Alcotest.(check string) "service" "echo" inv.Registry.service;
  Alcotest.(check bool) "not pushed" false inv.Registry.pushed

let test_unknown_service () =
  let r = Registry.create () in
  match Registry.invoke r ~name:"nope" ~params:[] () with
  | exception Registry.Unknown_service "nope" -> ()
  | _ -> Alcotest.fail "expected Unknown_service"

let test_cost_model () =
  let r = Registry.create () in
  Registry.register r ~name:"s" ~cost:{ Registry.latency = 1.0; per_byte = 0.5 } (fun _ ->
      [ t "abcd" ]);
  let _, inv = Registry.invoke r ~name:"s" ~params:[ t "xy" ] () in
  Alcotest.(check int) "request bytes" 2 inv.Registry.request_bytes;
  Alcotest.(check int) "response bytes" 4 inv.Registry.response_bytes;
  Alcotest.(check (float 1e-9)) "cost = 1 + 0.5*6" 4.0 inv.Registry.cost

let test_history () =
  let r = Registry.create () in
  Registry.register r ~name:"a" (fun _ -> []);
  Registry.register r ~name:"b" (fun _ -> [ t "12345" ]);
  ignore (Registry.invoke r ~name:"a" ~params:[] ());
  ignore (Registry.invoke r ~name:"b" ~params:[] ());
  ignore (Registry.invoke r ~name:"a" ~params:[] ());
  Alcotest.(check int) "count" 3 (Registry.invocation_count r);
  Alcotest.(check (list string)) "order" [ "a"; "b"; "a" ]
    (List.map (fun (i : Registry.invocation) -> i.Registry.service) (Registry.history r));
  Alcotest.(check int) "bytes" 5 (Registry.total_bytes r);
  Registry.reset_history r;
  Alcotest.(check int) "reset" 0 (Registry.invocation_count r)

let test_memoization () =
  let r = Registry.create () in
  let hits = ref 0 in
  Registry.register r ~name:"m" ~memoize:true (fun _ ->
      incr hits;
      [ t "result" ]);
  let _, first = Registry.invoke r ~name:"m" ~params:[ t "k" ] () in
  let second_result, second = Registry.invoke r ~name:"m" ~params:[ t "k" ] () in
  Alcotest.(check int) "behavior ran once" 1 !hits;
  Alcotest.(check bool) "first not cached" false first.Registry.cached;
  Alcotest.(check bool) "second cached" true second.Registry.cached;
  Alcotest.(check bool) "cache hit is not a push" false second.Registry.pushed;
  Alcotest.(check (float 1e-9)) "cache hit is free" 0.0 second.Registry.cost;
  Alcotest.(check int) "cache hit retries nothing" 0 second.Registry.retries;
  Alcotest.(check bool) "same result" true (second_result = [ Tree.Text "result" ]);
  (* different parameters miss the cache *)
  ignore (Registry.invoke r ~name:"m" ~params:[ t "other" ] ());
  Alcotest.(check int) "second key computed" 2 !hits

let test_memoized_push_still_prunes () =
  let r = Registry.create () in
  Registry.register r ~name:"m" ~memoize:true (fun _ ->
      [ e "item" [ e "k" [ t "yes" ] ]; e "item" [ e "k" [ t "no" ] ] ]);
  ignore (Registry.invoke r ~name:"m" ~params:[] ());
  let push = (Parser.parse {|/item[k="yes"]|}).P.root in
  let pruned, inv = Registry.invoke r ~name:"m" ~params:[] ~push () in
  Alcotest.(check bool) "cached" true inv.Registry.cached;
  Alcotest.(check bool) "pushed even on a cache hit" true inv.Registry.pushed;
  Alcotest.(check int) "pruned from cache" 1 (List.length pruned)

let test_memoized_flaky_service () =
  (* cache × retry interaction: a first success populates the cache, and
     every later identical call is answered locally — zero cost, zero
     retries, no fault exposure, regardless of how flaky the wire is *)
  let r = Registry.create () in
  Registry.register r ~name:"m" ~memoize:true ~faults:[ Axml_services.Faults.Flaky 0.95 ]
    ~retry:
      {
        Registry.default_policy with
        Registry.max_retries = 200;
        base_backoff = 0.001;
        max_backoff = 0.001;
      }
    (fun _ -> [ t "v" ]);
  let _, first = Registry.invoke r ~name:"m" ~params:[ t "k" ] () in
  Alcotest.(check bool) "first went over the wire" false first.Registry.cached;
  let exposures_after_first = Registry.fault_exposures r in
  for _ = 1 to 5 do
    let result, inv = Registry.invoke r ~name:"m" ~params:[ t "k" ] () in
    Alcotest.(check bool) "hit" true inv.Registry.cached;
    Alcotest.(check int) "no retries on a hit" 0 inv.Registry.retries;
    Alcotest.(check (float 1e-9)) "free" 0.0 inv.Registry.cost;
    Alcotest.(check bool) "served" true (result = [ Tree.Text "v" ])
  done;
  Alcotest.(check int) "hits drew no faults" exposures_after_first (Registry.fault_exposures r)

let test_reregister_overrides () =
  let r = Registry.create () in
  Registry.register r ~name:"s" (fun _ -> [ t "old" ]);
  Registry.register r ~name:"s" (fun _ -> [ t "new" ]);
  let result, _ = Registry.invoke r ~name:"s" ~params:[] () in
  Alcotest.(check bool) "new behavior" true (result = [ Tree.Text "new" ]);
  Alcotest.(check (list string)) "no duplicate name" [ "s" ] (Registry.names r)

(* ------------------------------------------------------------------ *)
(* Pushing at the registry level *)

let push_pattern src = (Parser.parse src).P.root

let test_push_prunes () =
  let r = Registry.create () in
  Registry.register r ~name:"s" (fun _ ->
      [ e "item" [ e "k" [ t "yes" ] ]; e "item" [ e "k" [ t "no" ] ] ]);
  let push = push_pattern {|/item[k="yes"]|} in
  let full, _ = Registry.invoke r ~name:"s" ~params:[] () in
  let pruned, inv = Registry.invoke r ~name:"s" ~params:[] ~push () in
  Alcotest.(check bool) "pushed flag" true inv.Registry.pushed;
  Alcotest.(check int) "full has 2" 2 (List.length full);
  Alcotest.(check int) "pruned has 1" 1 (List.length pruned)

(* One <r> holding [n] x and [n] y children: /r[x!][y] has n * n
   embeddings there, but only 2n + 1 witnesses. *)
let wide_forest n =
  [ e "r" (List.init n (fun _ -> e "x" []) @ List.init n (fun _ -> e "y" [])) ]

let count_named name forest =
  List.fold_left
    (fun acc tr -> acc + List.length (Tree.find_all (fun n -> Tree.name n = Some name) tr))
    0 forest

let test_push_ships_every_witness () =
  let r = Registry.create () in
  Registry.register r ~name:"s" (fun _ -> wide_forest 200);
  let full, _ = Registry.invoke r ~name:"s" ~params:[] () in
  let pruned, inv = Registry.invoke r ~name:"s" ~params:[] ~push:(push_pattern "/r[x!][y]") () in
  Alcotest.(check bool) "pushed flag" true inv.Registry.pushed;
  Alcotest.(check int) "full has 200 x" 200 (count_named "x" full);
  Alcotest.(check int) "every x ships" (count_named "x" full) (count_named "x" pruned)

let test_push_incapable_provider () =
  let r = Registry.create () in
  Registry.register r ~name:"s" ~push_capable:false (fun _ -> [ e "item" [] ]);
  let result, inv =
    Registry.invoke r ~name:"s" ~params:[] ~push:(push_pattern "/nothing") ()
  in
  Alcotest.(check bool) "not pushed" false inv.Registry.pushed;
  Alcotest.(check int) "full result" 1 (List.length result)

(* ------------------------------------------------------------------ *)
(* Declarative service specs *)

module Spec = Axml_services.Spec

let weather_spec =
  {|<services>
      <service name="forecast" latency="0.1" per-byte="0" memoize="true">
        <case key="Paris"><sky>sunny</sky></case>
        <case key="London"><sky>rain</sky></case>
        <default><sky>unknown</sky></default>
      </service>
      <service name="mute" push="false"><default/></service>
    </services>|}

let test_spec_load_and_dispatch () =
  let r = Registry.create () in
  let names = Spec.load_string r weather_spec in
  Alcotest.(check (list string)) "names" [ "forecast"; "mute" ] names;
  let result, inv = Registry.invoke r ~name:"forecast" ~params:[ t "Paris" ] () in
  Alcotest.(check bool) "paris" true
    (result = [ e "sky" [ t "sunny" ] ]);
  Alcotest.(check (float 1e-9)) "latency attr" 0.1 inv.Registry.cost;
  let result2, _ = Registry.invoke r ~name:"forecast" ~params:[ t "Oslo" ] () in
  Alcotest.(check bool) "default" true (result2 = [ e "sky" [ t "unknown" ] ]);
  (* memoize attribute honored *)
  let _, again = Registry.invoke r ~name:"forecast" ~params:[ t "Paris" ] () in
  Alcotest.(check bool) "cached" true again.Registry.cached;
  (* push attribute honored *)
  let push = (Parser.parse "/anything").P.root in
  let _, mute_inv = Registry.invoke r ~name:"mute" ~params:[] ~push () in
  Alcotest.(check bool) "push declined" false mute_inv.Registry.pushed

let test_spec_key_matches_nested_text () =
  let r = Registry.create () in
  ignore (Spec.load_string r weather_spec);
  (* the key is the first text anywhere in the parameter forest *)
  let result, _ =
    Registry.invoke r ~name:"forecast" ~params:[ e "loc" [ e "city" [ t "London" ] ] ] ()
  in
  Alcotest.(check bool) "nested key" true (result = [ e "sky" [ t "rain" ] ])

let test_spec_errors () =
  List.iter
    (fun src ->
      let r = Registry.create () in
      match Spec.load_string r src with
      | exception Spec.Error _ -> ()
      | _ -> Alcotest.failf "expected Spec.Error on %s" src)
    [
      "<nope/>";
      "<services><service/></services>";
      {|<services><service name="s"><case>x</case></service></services>|};
      {|<services><service name="s" memoize="maybe"/></services>|};
      {|<services><service name="s" latency="fast"/></services>|};
      {|<services><wat/></services>|};
    ]

(* ------------------------------------------------------------------ *)
(* Witness pruning *)

let test_witness_keeps_contributors () =
  let forest =
    Axml_xml.Parse.forest
      {|<r><keep><deep>1</deep></keep><drop>x</drop></r><r><drop>y</drop></r>|}
  in
  let pruned = Witness.prune (push_pattern "/r[keep]") forest in
  (* only the first tree matches; its keep subtree survives whole, the
     drop sibling goes *)
  Alcotest.(check int) "one tree" 1 (List.length pruned);
  match pruned with
  | [ tr ] ->
    Alcotest.(check bool) "keep survives with subtree" true
      (Tree.find_all (fun n -> Tree.name n = Some "deep") tr <> []);
    Alcotest.(check bool) "drop pruned" true
      (Tree.find_all (fun n -> Tree.name n = Some "drop") tr = [])
  | _ -> Alcotest.fail "unexpected shape"

let test_witness_result_subtrees_ship_whole () =
  let forest = Axml_xml.Parse.forest {|<r><v><big><inner/></big></v></r>|} in
  let pruned = Witness.prune (push_pattern "/r/v!") forest in
  match pruned with
  | [ tr ] ->
    Alcotest.(check bool) "inner shipped" true
      (Tree.find_all (fun n -> Tree.name n = Some "inner") tr <> [])
  | _ -> Alcotest.fail "expected one tree"

let test_witness_empty_when_nothing_matches () =
  let forest = Axml_xml.Parse.forest "<a/><b/>" in
  Alcotest.(check int) "empty" 0 (List.length (Witness.prune (push_pattern "/c") forest))

let test_witness_optimistic_keeps_calls () =
  (* with the optimistic pattern, a tree whose condition is still a
     pending call must survive *)
  let forest =
    Axml_xml.Parse.forest
      {|<hotel><rating><axml:call name="getrating">k</axml:call></rating></hotel>
        <hotel><rating>2</rating></hotel>|}
  in
  let optimistic = Nfq.optimistic (push_pattern {|/hotel[rating="5"]|}) in
  let pruned = Witness.prune optimistic forest in
  Alcotest.(check int) "only the undecided hotel" 1 (List.length pruned);
  match pruned with
  | [ tr ] ->
    Alcotest.(check bool) "call shipped with parameters" true
      (Tree.find_all (fun n -> Tree.name n = Some Axml_doc.call_elem_name) tr <> [])
  | _ -> Alcotest.fail "unexpected shape"

let test_witness_plain_pattern_drops_undecided () =
  let forest =
    Axml_xml.Parse.forest
      {|<hotel><rating><axml:call name="getrating">k</axml:call></rating></hotel>|}
  in
  Alcotest.(check int) "plain pattern sees no match" 0
    (List.length (Witness.prune (push_pattern {|/hotel[rating="5"]|}) forest))

let test_witness_ships_every_witness () =
  let pruned = Witness.prune (push_pattern "/r[x!][y]") (wide_forest 200) in
  Alcotest.(check int) "every x ships" 200 (count_named "x" pruned);
  Alcotest.(check int) "every y ships" 200 (count_named "y" pruned)

let test_witness_allocation_is_linear () =
  (* 100^3 embeddings, 101 witnesses *)
  let forest = [ e "r" (List.init 100 (fun _ -> e "x" [])) ] in
  let pattern = push_pattern "/r[x][x][x]" in
  let before = Gc.minor_words () in
  let pruned = Witness.prune pattern forest in
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "every x ships" 100 (count_named "x" pruned);
  if words >= 1e6 then Alcotest.failf "prune allocated %.0f minor words" words

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "services"
    [
      ( "registry",
        [
          quick "register/invoke" test_register_invoke;
          quick "unknown service" test_unknown_service;
          quick "cost model" test_cost_model;
          quick "history" test_history;
          quick "memoization" test_memoization;
          quick "memoized push still prunes" test_memoized_push_still_prunes;
          quick "memoized flaky service" test_memoized_flaky_service;
          quick "re-register overrides" test_reregister_overrides;
        ] );
      ( "push",
        [
          quick "prunes" test_push_prunes;
          quick "incapable provider" test_push_incapable_provider;
          quick "ships every witness" test_push_ships_every_witness;
        ] );
      ( "spec",
        [
          quick "load and dispatch" test_spec_load_and_dispatch;
          quick "nested key" test_spec_key_matches_nested_text;
          quick "errors" test_spec_errors;
        ] );
      ( "witness",
        [
          quick "keeps contributors" test_witness_keeps_contributors;
          quick "results ship whole" test_witness_result_subtrees_ship_whole;
          quick "empty on no match" test_witness_empty_when_nothing_matches;
          quick "optimistic keeps calls" test_witness_optimistic_keeps_calls;
          quick "plain drops undecided" test_witness_plain_pattern_drops_undecided;
          quick "ships every witness" test_witness_ships_every_witness;
          quick "allocation is linear" test_witness_allocation_is_linear;
        ] );
    ]
