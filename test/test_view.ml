(* Property tests for the snapshot-view layer (lib/doc Axml_doc.View):
   round-trips, incremental splice patching (in place, in any splice
   order), parallel ≡ sequential
   matching, a match memo kept across splices ≡ a fresh one, and F-guide
   memoization on the generation counter. *)

module Doc = Axml_doc
module View = Axml_doc.View
module Tree = Axml_xml.Tree
module Parser = Axml_query.Parser
module Eval = Axml_query.Eval
module Fguide = Axml_core.Fguide
module Nfq = Axml_core.Nfq
module Relevance = Axml_core.Relevance

(* ------------------------------------------------------------------ *)
(* Generators: random trees that, unlike [Gen.gen_tree], also embed
   function calls — the splice driver needs something to invoke. *)

let gen_axml_tree =
  let open QCheck.Gen in
  let label = oneofl [ "a"; "b"; "c"; "hotel" ] in
  let text_gen = oneofl [ "x"; "1"; "v" ] in
  sized
  @@ fix (fun self n ->
         if n = 0 then map Tree.text text_gen
         else
           frequency
             [
               (1, map Tree.text text_gen);
               ( 1,
                 map
                   (fun p ->
                     Tree.element Doc.call_elem_name ~attrs:[ ("name", "f") ] [ p ])
                   (self 0) );
               ( 3,
                 map2
                   (fun name children -> Tree.element name children)
                   label
                   (list_size (int_bound 3) (self (n / 2))) );
             ])

let gen_rooted =
  QCheck.Gen.map (fun c -> Tree.element "root" [ c ]) gen_axml_tree

type splice_case = { tree : Tree.t; splice_seed : int }

let print_splice_case c =
  Printf.sprintf "seed=%d doc=%s" c.splice_seed
    (Axml_xml.Print.to_string c.tree)

let arb_splice_case =
  QCheck.make ~print:print_splice_case
    QCheck.Gen.(
      map
        (fun (tree, splice_seed) -> { tree; splice_seed })
        (pair gen_rooted (int_bound 100_000)))

(* The result-forest pool a seeded splice driver draws from; includes
   the empty forest (plain deletion) and a forest that introduces a
   fresh call. *)
let result_pool =
  [|
    [];
    [ Tree.text "5" ];
    [ Tree.element "b" []; Tree.text "y" ];
    [
      Tree.element "a"
        [ Tree.element Doc.call_elem_name ~attrs:[ ("name", "g") ] [ Tree.text "p" ] ];
    ];
  |]

(* ------------------------------------------------------------------ *)
(* Structural invariants of a view: spans nest, parents point backwards
   and enclose their children, labels mirror the underlying nodes. *)

let check_view_invariants v =
  let n = View.size v in
  for i = 0 to n - 1 do
    let e = View.subtree_end v i in
    if not (e > i && e <= n) then
      Alcotest.failf "bad span at %d: [%d,%d) of %d" i i e n;
    let p = View.parent v i in
    if i = 0 then (
      if p <> -1 then Alcotest.failf "root parent %d" p)
    else begin
      if not (p >= 0 && p < i) then Alcotest.failf "parent %d of %d" p i;
      if not (View.subtree_end v p >= e) then
        Alcotest.failf "parent span of %d does not enclose child %d" p i
    end;
    if View.label v i <> (View.node v i).Doc.label then
      Alcotest.failf "label mismatch at %d" i;
    (match View.index_of v (View.node v i) with
    | Some j when j = i -> ()
    | _ -> Alcotest.failf "index_of broken at %d" i);
    let kids = View.children v i in
    List.iter
      (fun k ->
        if View.parent v k <> i then
          Alcotest.failf "children/parent disagree at %d -> %d" i k)
      kids
  done

let check_same_xml msg d v =
  let doc_xml = Doc.to_xml d in
  let view_xml = View.materialize v in
  if not (Tree.equal doc_xml view_xml) then
    Alcotest.failf "%s: view diverged from document\n doc: %s\nview: %s" msg
      (Axml_xml.Print.to_string doc_xml)
      (Axml_xml.Print.to_string view_xml)

(* ------------------------------------------------------------------ *)
(* Properties *)

(* A fresh snapshot is a faithful pre-order index of the tree. *)
let prop_roundtrip =
  QCheck.Test.make ~count:200 ~name:"snapshot round-trips the document"
    Gen.arb_tree (fun tr ->
      let d = Doc.of_xml tr in
      let v = View.snapshot d in
      check_view_invariants v;
      check_same_xml "fresh snapshot" d v;
      Alcotest.(check int) "size" (Doc.size d) (View.size v);
      (* the ad-hoc per-node view agrees with the cached one *)
      let v' = View.of_node (Doc.root d) in
      check_view_invariants v';
      check_same_xml "of_node" d v';
      true)

(* Driving a sequence of splices keeps the incrementally-patched
   snapshot equal to a from-scratch index. The cached view is one gap
   buffer patched in place: splices in document order, reverse order and
   random order make the gap travel forward, backward and both ways; the
   pool's empty forest drops a span without refilling it, its large
   forest outgrows the gap (the initial build has no slack). Each splice
   keeps the view the same object at the document's generation, with
   every spliced-out node gone from it. *)
let big_forest =
  List.init 8 (fun _ ->
      Tree.element "a"
        [
          Tree.element "b" [ Tree.text "y" ];
          Tree.element Doc.call_elem_name ~attrs:[ ("name", "g") ] [ Tree.text "p" ];
        ])

let in_place_pool = Array.append result_pool [| big_forest |]

let subtree_nodes roots =
  let acc = ref [] in
  List.iter (Doc.iter_node (fun n -> acc := n :: !acc)) roots;
  !acc

let check_in_place order c =
  let d = Doc.of_xml c.tree in
  let rng = Random.State.make [| 0x51EE7; c.splice_seed |] in
  let v = View.snapshot d in
  let gone = ref [] in
  let steps = ref 0 in
  let continue = ref true in
  while !continue && !steps < 12 do
    match Doc.visible_function_nodes d with
    | [] -> continue := false
    | calls ->
      let call =
        match order with
        | `Document -> List.hd calls
        | `Reverse -> List.nth calls (List.length calls - 1)
        | `Random -> List.nth calls (Random.State.int rng (List.length calls))
      in
      gone := subtree_nodes [ call ] @ !gone;
      let before = Doc.view_indexed_total d in
      let added =
        Doc.replace_call d call
          in_place_pool.(Random.State.int rng (Array.length in_place_pool))
      in
      incr steps;
      if not (View.snapshot d == v) then Alcotest.fail "splice replaced the view object";
      Alcotest.(check int) "generation advanced" (Doc.generation d) (View.generation v);
      Alcotest.(check int) "indexed total counts the added nodes"
        (List.length (subtree_nodes added))
        (Doc.view_indexed_total d - before);
      List.iter
        (fun n ->
          if View.index_of v n <> None then
            Alcotest.failf "spliced-out node %d still indexed" n.Doc.id)
        !gone;
      for i = 0 to View.size v - 1 do
        let expected =
          match (View.node v i).Doc.parent with
          | None -> -1
          | Some p -> Option.get (View.index_of v p)
        in
        if View.parent v i <> expected then Alcotest.failf "parent of %d" i
      done;
      check_view_invariants v;
      check_same_xml "in place" d v;
      if not (Tree.equal (View.materialize (View.of_node (Doc.root d))) (View.materialize v))
      then Alcotest.fail "patched view differs from full rebuild"
  done

let prop_splice_consistency =
  QCheck.Test.make ~count:150 ~name:"patched snapshot survives splice sequences"
    arb_splice_case (fun c ->
      List.iter (fun order -> check_in_place order c) [ `Document; `Reverse; `Random ];
      true)

(* Parallel matching is invisible: same bindings, element for element,
   at every jobs level, across splice sequences. *)
let prop_parallel_matching =
  QCheck.Test.make ~count:100 ~name:"parallel matching ≡ sequential"
    arb_splice_case (fun c ->
      let queries =
        [ Parser.parse "//a!"; Parser.parse "/root//b!"; Parser.parse "//hotel!" ]
      in
      let d = Doc.of_xml c.tree in
      let rng = Random.State.make [| 0xFA9; c.splice_seed |] in
      let check_round () =
        List.iter
          (fun q ->
            let seq = Eval.eval q d in
            let par4 = Eval.eval ~par:(Eval.par ~jobs:4) q d in
            if Gen.tuples seq <> Gen.tuples par4 then
              Alcotest.failf "bindings diverge at jobs=4 for %s"
                (Axml_query.Pattern.to_string q);
            (* element-for-element, not just as sets *)
            if List.length seq <> List.length par4 then
              Alcotest.failf "binding multiplicity diverges for %s"
                (Axml_query.Pattern.to_string q))
          queries
      in
      check_round ();
      (match Doc.visible_function_nodes d with
      | [] -> ()
      | calls ->
        let call = List.nth calls (Random.State.int rng (List.length calls)) in
        ignore
          (Doc.replace_call d call
             result_pool.(Random.State.int rng (Array.length result_pool)));
        check_round ());
      true)

(* ------------------------------------------------------------------ *)
(* Incremental relevance detection: one long-lived context, kept in sync
   with [Eval.forget] after every splice, answers exactly as a fresh
   context does — the NFQs of every query node and the queries
   themselves, element for element, at every step. *)

let binding_ids (bs : Eval.binding list) =
  List.map
    (fun (b : Eval.binding) ->
      (List.map (fun (pid, (n : Doc.node)) -> (pid, n.Doc.id)) b.Eval.results, b.Eval.vars))
    bs

let node_ids = List.map (fun (n : Doc.node) -> n.Doc.id)

let memo_queries =
  List.map Parser.parse
    [ "//a!"; "/*//b![c]"; "//hotel[a]//b!"; "//a[b=$X]//c![a=$X]"; "//*[c]/a!" ]

let check_shared_matches_fresh shared d =
  List.iter
    (fun q ->
      let name = Axml_query.Pattern.to_string q in
      if binding_ids (Eval.eval_in shared q d) <> binding_ids (Eval.eval q d) then
        Alcotest.failf "kept context diverges from a fresh one on %s" name;
      List.iter
        (fun (rq : Relevance.t) ->
          let kept =
            Eval.matches_of_in shared rq.Relevance.query d ~target:rq.Relevance.target
          in
          let fresh = Eval.matches_of rq.Relevance.query d ~target:rq.Relevance.target in
          if node_ids kept <> node_ids fresh then
            Alcotest.failf "kept context diverges on NFQ(v=%d) of %s" rq.Relevance.source name)
        (Nfq.of_query q))
    memo_queries

let prop_kept_context =
  QCheck.Test.make ~count:150 ~name:"context kept across splices ≡ fresh context"
    arb_splice_case (fun c ->
      let d = Doc.of_xml c.tree in
      let rng = Random.State.make [| 0xC0DE; c.splice_seed |] in
      let shared = Eval.context () in
      check_shared_matches_fresh shared d;
      let steps = ref 0 in
      let continue = ref true in
      while !continue && !steps < 12 do
        match Doc.visible_function_nodes d with
        | [] -> continue := false
        | calls ->
          let call = List.nth calls (Random.State.int rng (List.length calls)) in
          let parent = Option.get call.Doc.parent in
          ignore
            (Doc.replace_call d call
               result_pool.(Random.State.int rng (Array.length result_pool)));
          Eval.forget shared parent;
          incr steps;
          check_shared_matches_fresh shared d
      done;
      true)

(* A mutation nobody reports to the context: the generation check must
   reset the memo rather than serve the entry computed before it. *)
let test_unreported_mutation_resets () =
  let d =
    Doc.parse
      {|<r><a><b>x</b></a><c><axml:call name="f">p</axml:call></c></r>|}
  in
  let q = Parser.parse "//a![b]" in
  let ctx = Eval.context () in
  let count () = List.length (Eval.eval_in ctx q d) in
  Alcotest.(check int) "a has a b" 1 (count ());
  let a = List.hd (Doc.data_children (Doc.root d)) in
  Doc.remove_node d (List.hd a.Doc.children);
  Alcotest.(check int) "unreported removal is seen" 0 (count ());
  (* in sync again; now an unreported removal followed by a reported
     splice elsewhere: [forget] advances the context by one generation,
     the document by two, so the stale entry for [a] must not survive *)
  Doc.append_child d a (Doc.elem d "b" []);
  Alcotest.(check int) "b is back" 1 (count ());
  Doc.remove_node d (List.hd a.Doc.children);
  let call = List.hd (Doc.visible_function_nodes d) in
  let parent = Option.get call.Doc.parent in
  ignore (Doc.replace_call d call [ Tree.text "5" ]);
  Eval.forget ctx parent;
  Alcotest.(check int) "stale entry not served after a reported splice" 0 (count ())

(* The same view object survives a splice, so an unreported splice must
   be caught by the generation check rather than by object identity. *)
let test_unreported_splice_resets () =
  let d =
    Doc.parse {|<r><a>x</a><c><axml:call name="f">p</axml:call></c></r>|}
  in
  let q = Parser.parse "//c![b]" in
  let ctx = Eval.context () in
  Alcotest.(check int) "no b yet" 0 (List.length (Eval.eval_in ctx q d));
  let call = List.hd (Doc.visible_function_nodes d) in
  ignore (Doc.replace_call d call [ Tree.element "b" [ Tree.text "y" ] ]);
  Alcotest.(check int) "unreported splice is seen" 1 (List.length (Eval.eval_in ctx q d))

(* ------------------------------------------------------------------ *)
(* F-guide memoization on the generation counter. *)

let fguide_doc () =
  Doc.parse
    {|<root><a><axml:call name="f">x</axml:call></a><b><axml:call name="g">y</axml:call></b></root>|}

let test_fguide_reuse () =
  let d = fguide_doc () in
  let g1, reused1 = Fguide.memoized d in
  Alcotest.(check bool) "first build is fresh" false reused1;
  let g2, reused2 = Fguide.memoized d in
  Alcotest.(check bool) "second lookup reuses" true reused2;
  Alcotest.(check bool) "same guide" true (g1 == g2)

let test_fguide_invalidated_by_mutation () =
  let d = fguide_doc () in
  let g1, _ = Fguide.memoized d in
  Doc.append_child d (Doc.root d) (Doc.elem d "c" []);
  let g2, reused = Fguide.memoized d in
  Alcotest.(check bool) "stale after mutation" false reused;
  Alcotest.(check bool) "fresh guide" true (not (g1 == g2))

let test_fguide_sync_after_maintenance () =
  let d = fguide_doc () in
  let g, _ = Fguide.memoized d in
  let call =
    List.find (fun n -> Doc.call_name n = Some "f") (Doc.visible_function_nodes d)
  in
  let added = Doc.replace_call d call [ Tree.text "5" ] in
  Fguide.update_after_replace g ~invoked:call ~added;
  Fguide.sync g d;
  let g2, reused = Fguide.memoized d in
  Alcotest.(check bool) "maintained guide stays reusable" true reused;
  Alcotest.(check bool) "same guide" true (g == g2);
  Alcotest.(check int) "one call left" 1 (Fguide.call_count g2)

let test_fguide_independent_docs () =
  let d1 = fguide_doc () in
  let d2 = fguide_doc () in
  let g1, _ = Fguide.memoized d1 in
  let g2, _ = Fguide.memoized d2 in
  Alcotest.(check bool) "distinct docs, distinct guides" true (not (g1 == g2));
  let _, r1 = Fguide.memoized d1 in
  let _, r2 = Fguide.memoized d2 in
  Alcotest.(check bool) "both cached" true (r1 && r2)

(* ------------------------------------------------------------------ *)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  let prop t = QCheck_alcotest.to_alcotest t in
  Alcotest.run "view"
    [
      ( "properties",
        [
          prop prop_roundtrip;
          prop prop_splice_consistency;
          prop prop_parallel_matching;
          prop prop_kept_context;
        ] );
      ( "kept memo",
        [
          quick "unreported mutation resets the memo" test_unreported_mutation_resets;
          quick "unreported splice resets the memo" test_unreported_splice_resets;
        ] );
      ( "fguide memo",
        [
          quick "reuse on unchanged generation" test_fguide_reuse;
          quick "invalidated by mutation" test_fguide_invalidated_by_mutation;
          quick "sync keeps maintained guide live" test_fguide_sync_after_maintenance;
          quick "independent documents" test_fguide_independent_docs;
        ] );
    ]
