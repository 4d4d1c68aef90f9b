(* Tests for tree patterns: parser, printing, embedding evaluation. *)

module Doc = Axml_doc
module P = Axml_query.Pattern
module Parser = Axml_query.Parser
module Eval = Axml_query.Eval

let parse = Parser.parse

(* ------------------------------------------------------------------ *)
(* A small city-guide document in the style of Fig. 1. *)

let sample_doc () =
  let d = Doc.create () in
  let hotel name_v addr_v rating nearby =
    Doc.elem d "hotel"
      ([ Doc.elem d "name" [ Doc.data d name_v ]; Doc.elem d "address" [ Doc.data d addr_v ] ]
      @ [ rating; Doc.elem d "nearby" nearby ])
  in
  let restaurant name_v rating_v =
    Doc.elem d "restaurant"
      [
        Doc.elem d "name" [ Doc.data d name_v ];
        Doc.elem d "rating" [ Doc.data d rating_v ];
      ]
  in
  let h1 =
    hotel "Best Western" "75, 2nd Av."
      (Doc.elem d "rating" [ Doc.data d "5" ])
      [ restaurant "Mama" "5"; restaurant "Jo" "2" ]
  in
  let h2 =
    hotel "Pennsylvania" "13 Penn St."
      (Doc.elem d "rating" [ Doc.call d "getrating" [ Doc.data d "Pennsylvania" ] ])
      [ Doc.call d "getnearbyrestos" [ Doc.data d "13 Penn St." ] ]
  in
  let root = Doc.elem d "guide" [ h1; h2; Doc.call d "gethotels" [ Doc.data d "NY" ] ] in
  Doc.set_root d root;
  d

(* ------------------------------------------------------------------ *)
(* Parser *)

let test_parse_and_print () =
  List.iter
    (fun src ->
      let q = parse src in
      let printed = P.to_string q in
      (* Reparse the printed form; the two queries must have the same
         shape (pids differ). *)
      let q' = parse printed in
      Alcotest.(check string) (src ^ " stable") printed (P.to_string q'))
    [
      "/guide/hotel";
      "/guide//show";
      "//show";
      "/a/*/b";
      "/a[b][c]/d!";
      {|/movies//show[title="The Hours"]/schedule!|};
      {|/guide/hotel[name="Best Western"]/nearby//restaurant[name=$X!][rating="5"]|};
      "//rating/getrating()";
      "/a/*()";
    ]

let test_parse_structure () =
  let q = parse {|/hotel[name="Best Western"]/nearby|} in
  Alcotest.(check int) "three named nodes + value" 4 (List.length (P.nodes q));
  let root = q.P.root in
  Alcotest.(check bool) "root is hotel" true (root.P.label = P.Const "hotel");
  Alcotest.(check int) "two children" 2 (List.length root.P.children)

let test_parse_result_marks () =
  let q = parse {|/a/b!/c|} in
  let results = P.result_nodes q in
  Alcotest.(check int) "one result" 1 (List.length results);
  Alcotest.(check bool) "b marked" true
    (match results with [ n ] -> n.P.label = P.Const "b" | _ -> false)

let test_parse_eq_sugar () =
  let q1 = parse {|/a[b="5"]|} and q2 = parse {|/a[b["5"]]|} in
  Alcotest.(check string) "sugar" (P.to_string q2) (P.to_string q1);
  let q3 = parse {|/a[b/c="5"]|} and q4 = parse {|/a[b[c["5"]]]|} in
  Alcotest.(check string) "deep sugar" (P.to_string q4) (P.to_string q3)

let test_parse_variables () =
  let q = parse {|/r[a=$X][b=$X][c=$Y!]|} in
  Alcotest.(check (list string)) "vars" [ "X"; "Y" ] (P.variables q)

let test_parse_functions () =
  let q = parse "/rating/getrating()" in
  Alcotest.(check bool) "has fun node" true (P.has_function_nodes q);
  let q2 = parse "/rating/*()" in
  let fnode = List.find (fun n -> n.P.label <> P.Const "rating") (P.nodes q2) in
  Alcotest.(check bool) "star fun" true (fnode.P.label = P.Fun P.Any_fun)

let test_parse_errors () =
  List.iter
    (fun src ->
      match parse src with
      | exception Parser.Error _ -> ()
      | _ -> Alcotest.failf "expected parse error on %S" src)
    [ ""; "a"; "/a["; "/a[]"; "/a]"; "/"; "/a=$X"; "/a[b=c]" ]

(* ------------------------------------------------------------------ *)
(* Linear parts and their regexes *)

let test_linear_part () =
  let q = parse {|/guide/hotel[name="x"]/nearby//restaurant/rating|} in
  let rating =
    List.find
      (fun n -> n.P.label = P.Const "rating")
      (P.nodes q)
  in
  let lin = P.linear_part q rating in
  Alcotest.(check int) "4 steps (rating excluded)" 4 (List.length lin);
  let r = P.linear_regex lin in
  Alcotest.(check bool) "matches chain" true
    (Axml_automata.Regex.matches r [ "guide"; "hotel"; "nearby"; "x"; "restaurant" ]);
  Alcotest.(check bool) "needs restaurant last" false
    (Axml_automata.Regex.matches r [ "guide"; "hotel"; "nearby" ])

(* ------------------------------------------------------------------ *)
(* Embedding evaluation *)

let eval_count ?relax_joins src d = List.length (Eval.eval ?relax_joins (parse src) d)

let test_eval_simple () =
  let d = sample_doc () in
  Alcotest.(check int) "hotels exist" 1 (eval_count "/guide/hotel" d);
  Alcotest.(check int) "no motel" 0 (eval_count "/guide/motel" d);
  Alcotest.(check int) "root label enforced" 0 (eval_count "/hotels/hotel" d)

let test_eval_value () =
  let d = sample_doc () in
  Alcotest.(check int) "name constant" 1 (eval_count {|/guide/hotel[name="Best Western"]|} d);
  Alcotest.(check int) "absent constant" 0 (eval_count {|/guide/hotel[name="Ritz"]|} d)

let test_eval_descendant () =
  let d = sample_doc () in
  Alcotest.(check int) "descendant rating" 1 (eval_count {|/guide//rating["5"]|} d);
  (* two restaurants with distinct names *)
  let q = parse {|/guide//restaurant/name/$X!|} in
  Alcotest.(check int) "two restaurant names" 2 (List.length (Eval.eval q d))

let test_eval_result_nodes () =
  let d = sample_doc () in
  let q = parse {|/guide/hotel[name="Best Western"]/nearby/restaurant[rating="5"]/name!|} in
  match Eval.eval q d with
  | [ b ] -> (
    match b.Eval.results with
    | [ (_, n) ] ->
      let value = List.filter_map Doc.text_value n.Doc.children in
      Alcotest.(check (list string)) "Mama found" [ "Mama" ] value
    | _ -> Alcotest.fail "expected exactly one result node")
  | bs -> Alcotest.failf "expected one binding, got %d" (List.length bs)

let test_eval_variables_join () =
  let d = Doc.parse "<r><a><v>1</v></a><b><v>1</v></b><c><v>2</v></c></r>" in
  (* X must take the same value below a and b *)
  Alcotest.(check int) "join succeeds" 1 (eval_count {|/r[a/v=$X][b/v=$X]|} d);
  Alcotest.(check int) "join fails" 0 (eval_count {|/r[a/v=$X][c/v=$X]|} d);
  Alcotest.(check int) "relaxed join succeeds" 1
    (eval_count ~relax_joins:true {|/r[a/v=$X][c/v=$X]|} d)

let test_eval_homomorphism_not_injective () =
  (* Two pattern children may map to the same document node. *)
  let d = Doc.parse "<r><a/></r>" in
  Alcotest.(check int) "both a's map to one node" 1 (eval_count "/r[a][a]" d)

let test_eval_wildcard () =
  let d = sample_doc () in
  Alcotest.(check int) "wildcard step" 1 (eval_count {|/guide/*[name="Pennsylvania"]|} d)

let test_eval_function_nodes () =
  let d = sample_doc () in
  let q = parse "/guide/hotel/rating/getrating()!" in
  let target = (List.find (fun n -> n.P.result) (P.nodes q)).P.pid in
  let calls = Eval.matches_of q d ~target in
  Alcotest.(check int) "one getrating call" 1 (List.length calls);
  let q2 = parse "/guide/*()!" in
  let target2 = (List.find (fun n -> n.P.result) (P.nodes q2)).P.pid in
  Alcotest.(check int) "gethotels at guide level" 1 (List.length (Eval.matches_of q2 d ~target:target2))

let test_eval_no_match_through_calls () =
  (* Data inside a call's parameters is invisible to queries. *)
  let d = Doc.parse {|<r><axml:call name="f"><secret/></axml:call></r>|} in
  Alcotest.(check int) "not visible" 0 (eval_count "/r//secret" d);
  Alcotest.(check int) "call itself visible" 1
    (let q = parse "/r/f()!" in
     let target = (List.find (fun n -> n.P.result) (P.nodes q)).P.pid in
     List.length (Eval.matches_of q d ~target))

let test_eval_or_nodes () =
  let d = sample_doc () in
  (* rating is "5" data OR there is a getrating call under rating *)
  let alt1 = Parser.parse_relative {|"5"|} in
  let alt2 = Parser.parse_relative "getrating()" in
  let or_node = P.make P.Or (alt1 @ alt2) in
  let rating = P.make (P.Const "rating") [ or_node ] in
  let hotel = P.make ~result:true (P.Const "hotel") [ rating ] in
  let q = P.query (P.make (P.Const "guide") [ hotel ]) in
  Alcotest.(check int) "both hotels qualify" 2 (List.length (Eval.eval q d))

let test_eval_leading_descendant () =
  let d = sample_doc () in
  Alcotest.(check int) "//restaurant" 1 (eval_count {|//restaurant[name="Mama"]|} d)

(* ------------------------------------------------------------------ *)
(* Anchored matching *)

let test_anchored () =
  let d = sample_doc () in
  let q = parse {|/guide/hotel[name="Pennsylvania"]/rating/getrating()!|} in
  let target = (List.find (fun n -> n.P.result) (P.nodes q)).P.pid in
  let all_calls = Doc.function_nodes d in
  let getrating = List.find (fun n -> Doc.call_name n = Some "getrating") all_calls in
  let getrestos = List.find (fun n -> Doc.call_name n = Some "getnearbyrestos") all_calls in
  Alcotest.(check bool) "getrating matches" true (Eval.anchored_matches q ~target d getrating);
  Alcotest.(check bool) "other call does not" false (Eval.anchored_matches q ~target d getrestos);
  (* Agreement with the top-down evaluator over every call in the doc. *)
  let top_down = Eval.matches_of q d ~target in
  List.iter
    (fun c ->
      let want = List.exists (fun n -> n.Doc.id = c.Doc.id) top_down in
      Alcotest.(check bool) "agrees" want (Eval.anchored_matches q ~target d c))
    all_calls

let test_anchored_descendant () =
  let d = sample_doc () in
  let q = parse {|/guide//rating/*()!|} in
  let target = (List.find (fun n -> n.P.result) (P.nodes q)).P.pid in
  let top_down = Eval.matches_of q d ~target in
  Alcotest.(check int) "one rating call" 1 (List.length top_down);
  List.iter
    (fun c ->
      let want = List.exists (fun n -> n.Doc.id = c.Doc.id) top_down in
      Alcotest.(check bool) "agrees" want (Eval.anchored_matches q ~target d c))
    (Doc.function_nodes d)

(* The calls [q]'s result node anchors on, checked against the top-down
   evaluator on every call of [d]. *)
let anchored_agreeing src d =
  let q = parse src in
  let target = (List.find (fun n -> n.P.result) (P.nodes q)).P.pid in
  let top_down = Eval.matches_of q d ~target in
  List.filter
    (fun c ->
      let want = List.exists (fun n -> n.Doc.id = c.Doc.id) top_down in
      let got = Eval.anchored_matches q ~target d c in
      Alcotest.(check bool) (src ^ " agrees with top-down") want got;
      got)
    (Doc.function_nodes d)
  |> List.filter_map Doc.call_name

(* The label prefilter must reject only what the full check rejects. *)
let test_anchored_side_condition_fails () =
  let d = sample_doc () in
  (* guide/hotel/rating/getrating aligns on labels; the name does not *)
  Alcotest.(check (list string)) "no hotel of that name" []
    (anchored_agreeing {|/guide/hotel[name="Nowhere"]/rating/getrating()!|} d);
  Alcotest.(check (list string)) "the named hotel's call" [ "getrating" ]
    (anchored_agreeing {|/guide/hotel[name="Pennsylvania"]/rating/getrating()!|} d)

let test_anchored_chain_shorter_than_path () =
  let d = sample_doc () in
  (* every call's ancestor chain is shorter than the five-step path *)
  Alcotest.(check (list string)) "no call deep enough" []
    (anchored_agreeing {|/guide/hotel/nearby/restaurant/*()!|} d)

let test_anchored_descendant_skips_chain () =
  let d = sample_doc () in
  Alcotest.(check (list string)) "//nearby skips the hotel" [ "getnearbyrestos" ]
    (anchored_agreeing {|/guide//nearby/*()!|} d);
  Alcotest.(check (list string)) "two skipping steps, with a side condition"
    [ "getrating"; "getnearbyrestos" ]
    (anchored_agreeing {|/guide//hotel[name="Pennsylvania"]//*()!|} d);
  Alcotest.(check (list string)) "skipped nodes still need their side condition" []
    (anchored_agreeing {|/guide//hotel[name="Nowhere"]//*()!|} d)

(* ------------------------------------------------------------------ *)
(* PathStack: the streaming engine for linear chains *)

module Pathstack = Axml_query.Pathstack

let test_pathstack_linear_detection () =
  let q = parse "/a/b" in
  Alcotest.(check bool) "linear" true (Pathstack.steps_of_query q <> None);
  Alcotest.(check bool) "branching rejected" true
    (Pathstack.steps_of_query (parse "/a[b][c]") = None);
  Alcotest.(check bool) "single-predicate is a chain" true
    (Pathstack.steps_of_query (parse "/a[b]") <> None)

let ids nodes = List.sort compare (List.map (fun (n : Doc.node) -> n.Doc.id) nodes)

let pathstack_vs_eval qsrc d =
  let q = parse qsrc in
  match Pathstack.run q d with
  | None -> Alcotest.failf "%s is not linear" qsrc
  | Some got ->
    (* reference: mark the last node as result and use the tree-walker *)
    let rec last (n : P.node) = match n.P.children with [] -> n | [ c ] -> last c | _ -> assert false in
    let rec remark (n : P.node) =
      match n.P.children with
      | [] -> P.with_result n true
      | [ c ] -> P.with_children (P.with_result n false) [ remark c ]
      | _ -> assert false
    in
    let q' = P.query (remark q.P.root) in
    let target = (last q'.P.root).P.pid in
    let want = Eval.matches_of q' d ~target in
    Alcotest.(check (list int)) qsrc (ids want) (ids got)

let test_pathstack_agrees () =
  let d = sample_doc () in
  List.iter
    (fun qsrc -> pathstack_vs_eval qsrc d)
    [
      "/guide/hotel";
      "/guide//rating";
      "/guide/hotel/nearby//restaurant/name";
      "/guide//*";
      {|/guide//rating/"5"|};
      "/guide/hotel/rating/*()";
      "/guide//getrating()";
      "/guide/motel";
    ]

let test_pathstack_repeated_labels () =
  (* self-similar chains: nodes matching several steps at once *)
  let d = Doc.parse "<a><a><a><b/></a></a><b/></a>" in
  List.iter (fun qsrc -> pathstack_vs_eval qsrc d) [ "/a//a//b"; "/a/a/a"; "/a//a/b"; "//b" ]

(* ------------------------------------------------------------------ *)
(* Tuple serialization and shared contexts *)

let test_bindings_to_xml () =
  let d = sample_doc () in
  let q = parse {|/guide//restaurant[name!=$X][rating=$R]|} in
  let tuples = Eval.bindings_to_xml (Eval.eval q d) in
  Alcotest.(check int) "two tuples" 2 (List.length tuples);
  List.iter
    (fun t ->
      Alcotest.(check (option string)) "tuple element" (Some "tuple") (Axml_xml.Tree.name t);
      (* one <x> and one <r> for the variables, plus the <name> image *)
      Alcotest.(check bool) "has x child" true
        (List.exists (fun c -> Axml_xml.Tree.name c = Some "x") (Axml_xml.Tree.children t));
      Alcotest.(check bool) "has r child" true
        (List.exists (fun c -> Axml_xml.Tree.name c = Some "r") (Axml_xml.Tree.children t));
      Alcotest.(check bool) "has name image" true
        (List.exists (fun c -> Axml_xml.Tree.name c = Some "name") (Axml_xml.Tree.children t)))
    tuples

let test_shared_context_across_queries () =
  let d = sample_doc () in
  let ctx = Eval.context () in
  let q1 = parse "/guide/hotel" and q2 = parse {|/guide/hotel[name="Pennsylvania"]|} in
  (* same context reused across two different queries on one doc state *)
  Alcotest.(check int) "q1" 1 (List.length (Eval.eval_in ctx q1 d));
  Alcotest.(check int) "q2" 1 (List.length (Eval.eval_in ctx q2 d));
  (* the memo is keyed by globally-unique pids, so re-running either query
     in the same context gives the same answers *)
  Alcotest.(check int) "q1 again" 1 (List.length (Eval.eval_in ctx q1 d))

(* ------------------------------------------------------------------ *)
(* Embeddings (full homomorphisms) *)

let test_embeddings () =
  let d = Doc.parse "<r><a><b/></a><a><b/><b/></a></r>" in
  let q = parse "/r/a/b" in
  let embs = Eval.embeddings q.P.root (Doc.root d) in
  (* 3 choices of b (each with its a) *)
  Alcotest.(check int) "three homomorphisms" 3 (List.length embs);
  List.iter (fun e -> Alcotest.(check int) "3 images each" 3 (List.length e)) embs

(* ------------------------------------------------------------------ *)
(* Properties *)

let gen_doc_xml =
  (* Random small documents over a tiny vocabulary, with some calls. *)
  let open QCheck.Gen in
  let name = oneofl [ "a"; "b"; "c" ] in
  let rec gen n =
    if n = 0 then
      frequency
        [ (2, map (fun v -> Axml_xml.Tree.text v) (oneofl [ "1"; "2" ]));
          (1, return (Axml_xml.Tree.element Doc.call_elem_name ~attrs:[ ("name", "f") ] []));
        ]
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

let gen_query_src =
  QCheck.Gen.oneofl
    [
      "/r/a";
      "/r//a";
      "/r//*";
      "/r/a[b]";
      "/r//a[b][c]";
      {|/r//a["1"]|};
      "/r/*/b!";
      "/r//a/b!";
      {|/r//a[b=$X]|};
      {|/r//*[b=$X][c=$X]|};
      "/r//f()!";
      "/r/a/f()!";
    ]

(* Reference evaluator: brute-force enumeration of homomorphisms. *)
let rec all_maps (p : P.node) (n : Doc.node) : (int * int) list list =
  let label_ok =
    match p.P.label with
    | P.Or -> false (* not generated *)
    | l -> Eval.label_matches_exposed l n
  in
  if not label_ok then []
  else
    let per_child (c : P.node) =
      let candidates =
        match c.P.axis with
        | P.Child -> if Doc.is_data n then n.Doc.children else []
        | P.Descendant ->
          let rec collect acc m =
            if Doc.is_data m then
              List.fold_left (fun acc ch -> collect (ch :: acc) ch) acc m.Doc.children
            else acc
          in
          List.rev (collect [] n)
      in
      List.concat_map (all_maps c) candidates
    in
    let children_choices = List.map per_child p.P.children in
    if List.exists (fun l -> l = []) children_choices then []
    else
      List.fold_left
        (fun acc choices -> List.concat_map (fun a -> List.map (fun c -> a @ c) choices) acc)
        [ [ (p.P.pid, n.Doc.id) ] ]
        children_choices

let var_consistent (q : P.t) (emb : (int * int) list) (d : Doc.t) =
  let by_id = Hashtbl.create 16 in
  Doc.iter (fun n -> Hashtbl.replace by_id n.Doc.id n) d;
  let assignments = Hashtbl.create 8 in
  List.for_all
    (fun (pid, nid) ->
      match P.find q pid with
      | Some pn -> (
        match pn.P.label with
        | P.Var x -> (
          let n = Hashtbl.find by_id nid in
          match Eval.doc_label n with
          | None -> false
          | Some l -> (
            match Hashtbl.find_opt assignments x with
            | None ->
              Hashtbl.replace assignments x l;
              true
            | Some l' -> String.equal l l'))
        | _ -> true)
      | None -> true)
    emb

let prop_eval_matches_bruteforce =
  QCheck.Test.make ~name:"evaluator agrees with brute force" ~count:300
    (QCheck.make
       ~print:(fun (x, q) -> Axml_xml.Print.to_string x ^ " | " ^ q)
       QCheck.Gen.(pair gen_doc_xml gen_query_src))
    (fun (xml, qsrc) ->
      let d = Doc.of_xml xml in
      let q = parse qsrc in
      let fast = Eval.eval q d <> [] in
      let slow =
        List.exists (fun emb -> var_consistent q emb d) (all_maps q.P.root (Doc.root d))
      in
      fast = slow)

let prop_pathstack_agrees =
  QCheck.Test.make ~name:"pathstack = tree walker on linear chains" ~count:300
    (QCheck.make
       ~print:(fun (x, q) -> Axml_xml.Print.to_string x ^ " | " ^ q)
       QCheck.Gen.(
         pair gen_doc_xml
           (oneofl
              [ "/r/a"; "/r//a"; "/r//a/b"; "/r/a//c"; "/r//*"; "/r//f()"; "/r/a/b/c"; "//a//b" ])))
    (fun (xml, qsrc) ->
      let d = Doc.of_xml xml in
      let q = parse qsrc in
      match Pathstack.run q d with
      | None -> false
      | Some got ->
        let rec last (n : P.node) =
          match n.P.children with [] -> n | [ c ] -> last c | _ -> assert false
        in
        let rec remark (n : P.node) =
          match n.P.children with
          | [] -> P.with_result n true
          | [ c ] -> P.with_children (P.with_result n false) [ remark c ]
          | _ -> assert false
        in
        let q' = P.query (remark q.P.root) in
        let target = (last q'.P.root).P.pid in
        ids (Eval.matches_of q' d ~target) = ids got)

let prop_anchored_agrees =
  QCheck.Test.make ~name:"anchored agrees with top-down on calls" ~count:300
    (QCheck.make
       ~print:(fun (x, q) -> Axml_xml.Print.to_string x ^ " | " ^ q)
       QCheck.Gen.(pair gen_doc_xml (oneofl [ "/r//f()!"; "/r/a/f()!"; "/r/*/f()!"; "/r//*[b]/f()!" ])))
    (fun (xml, qsrc) ->
      let d = Doc.of_xml xml in
      let q = parse qsrc in
      let target = (List.find (fun n -> n.P.result) (P.nodes q)).P.pid in
      let top_down = Eval.matches_of q d ~target in
      List.for_all
        (fun c ->
          let want = List.exists (fun n -> n.Doc.id = c.Doc.id) top_down in
          Eval.anchored_matches q ~target d c = want)
        (Doc.function_nodes d))

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "query"
    [
      ( "parser",
        [
          quick "parse/print stable" test_parse_and_print;
          quick "structure" test_parse_structure;
          quick "result marks" test_parse_result_marks;
          quick "eq sugar" test_parse_eq_sugar;
          quick "variables" test_parse_variables;
          quick "function tests" test_parse_functions;
          quick "errors" test_parse_errors;
        ] );
      ("linear", [ quick "linear part & regex" test_linear_part ]);
      ( "eval",
        [
          quick "simple paths" test_eval_simple;
          quick "value constants" test_eval_value;
          quick "descendant" test_eval_descendant;
          quick "result nodes" test_eval_result_nodes;
          quick "variable joins" test_eval_variables_join;
          quick "homomorphism" test_eval_homomorphism_not_injective;
          quick "wildcard" test_eval_wildcard;
          quick "function nodes" test_eval_function_nodes;
          quick "calls are opaque" test_eval_no_match_through_calls;
          quick "or nodes" test_eval_or_nodes;
          quick "leading //" test_eval_leading_descendant;
        ] );
      ( "anchored",
        [
          quick "basic" test_anchored;
          quick "descendant" test_anchored_descendant;
          quick "labels align, side condition fails" test_anchored_side_condition_fails;
          quick "chain shorter than path" test_anchored_chain_shorter_than_path;
          quick "descendant skips chain nodes" test_anchored_descendant_skips_chain;
        ] );
      ( "pathstack",
        [
          quick "linear detection" test_pathstack_linear_detection;
          quick "agrees with evaluator" test_pathstack_agrees;
          quick "repeated labels" test_pathstack_repeated_labels;
        ] );
      ("embeddings", [ quick "count" test_embeddings ]);
      ( "interchange",
        [
          quick "tuples" test_bindings_to_xml;
          quick "shared context" test_shared_context_across_queries;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_eval_matches_bruteforce;
          QCheck_alcotest.to_alcotest prop_anchored_agrees;
          QCheck_alcotest.to_alcotest prop_pathstack_agrees;
        ] );
    ]
