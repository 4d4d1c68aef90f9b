(* Unit tests for the AXML document model (lib/doc). *)

module Doc = Axml_doc
module Tree = Axml_xml.Tree

let sample () =
  Doc.parse
    {|<guide><hotel><name>BW</name><rating><axml:call name="getrating">BW</axml:call></rating></hotel><axml:call name="gethotels">NY</axml:call></guide>|}

(* ------------------------------------------------------------------ *)

let test_builders () =
  let d = Doc.create () in
  let leaf = Doc.data d "v" in
  let c = Doc.call d "f" [ Doc.data d "p" ] in
  let e = Doc.elem d "r" [ leaf; c ] in
  Doc.set_root d e;
  Alcotest.(check int) "size" 4 (Doc.size d);
  Alcotest.(check int) "one call" 1 (Doc.count_calls d);
  Alcotest.(check bool) "parent set" true
    (match leaf.Doc.parent with Some p -> p.Doc.id = e.Doc.id | None -> false)

let test_reject_double_parent () =
  let d = Doc.create () in
  let leaf = Doc.data d "v" in
  let _ = Doc.elem d "a" [ leaf ] in
  match Doc.elem d "b" [ leaf ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let test_of_xml_roundtrip () =
  let src = {|<a x="1"><b>t</b><axml:call name="f"><c/></axml:call></a>|} in
  let d = Doc.parse src in
  let back = Axml_xml.Print.to_string (Doc.to_xml d) in
  Alcotest.(check bool) "roundtrip" true
    (Tree.equal (Axml_xml.Parse.tree src) (Axml_xml.Parse.tree back))

let test_call_without_name () =
  match Doc.parse "<a><axml:call/></a>" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let test_call_ids_in_document_order () =
  let d = sample () in
  let ids =
    List.filter_map
      (fun (n : Doc.node) ->
        match n.Doc.label with Doc.Call { call_id; _ } -> Some call_id | _ -> None)
      (Doc.function_nodes d)
  in
  Alcotest.(check (list int)) "1,2" [ 1; 2 ] ids

let test_visible_vs_all_calls () =
  let d =
    Doc.parse
      {|<r><axml:call name="outer"><axml:call name="inner">x</axml:call></axml:call></r>|}
  in
  Alcotest.(check int) "all" 2 (List.length (Doc.function_nodes d));
  let visible = Doc.visible_function_nodes d in
  Alcotest.(check int) "visible" 1 (List.length visible);
  Alcotest.(check (option string)) "outer only" (Some "outer") (Doc.call_name (List.hd visible))

let test_ancestors_and_path () =
  let d = sample () in
  let getrating =
    List.find (fun n -> Doc.call_name n = Some "getrating") (Doc.function_nodes d)
  in
  Alcotest.(check (list string)) "label path" [ "guide"; "hotel"; "rating" ]
    (Doc.label_path getrating);
  Alcotest.(check int) "three ancestors" 3 (List.length (Doc.ancestors getrating));
  (* nearest first *)
  match Doc.ancestors getrating with
  | first :: _ -> Alcotest.(check bool) "rating first" true (first.Doc.label = Doc.Elem "rating")
  | [] -> Alcotest.fail "no ancestors"

let test_replace_call () =
  let d = sample () in
  let getrating =
    List.find (fun n -> Doc.call_name n = Some "getrating") (Doc.function_nodes d)
  in
  let added = Doc.replace_call d getrating [ Tree.text "5"; Tree.element "note" [] ] in
  Alcotest.(check int) "two nodes spliced" 2 (List.length added);
  Alcotest.(check int) "one call left" 1 (Doc.count_calls d);
  (* the forest lands at the call's exact position *)
  let rating =
    List.find
      (fun (n : Doc.node) -> n.Doc.label = Doc.Elem "rating")
      (Doc.fold (fun acc n -> n :: acc) [] d)
  in
  Alcotest.(check int) "rating has two children" 2 (List.length rating.Doc.children);
  Alcotest.(check bool) "detached" true (getrating.Doc.parent = None);
  (* replacing again fails: the node is gone *)
  match Doc.replace_call d getrating [] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let test_replace_call_splice_order () =
  let d = Doc.parse {|<r><a/><axml:call name="f">p</axml:call><b/></r>|} in
  let call = List.hd (Doc.visible_function_nodes d) in
  ignore (Doc.replace_call d call [ Tree.element "x" []; Tree.element "y" [] ]);
  let labels =
    List.filter_map
      (fun (n : Doc.node) -> match n.Doc.label with Doc.Elem l -> Some l | _ -> None)
      (Doc.root d).Doc.children
  in
  Alcotest.(check (list string)) "in place" [ "a"; "x"; "y"; "b" ] labels

(* Regression: an empty result forest is a plain deletion — the call
   detaches (stale parent pointer cleared), the siblings close ranks,
   and the cached snapshot view stays consistent. *)
let test_replace_with_empty_forest () =
  let d = Doc.parse {|<r><a/><axml:call name="f">p</axml:call><b/></r>|} in
  ignore (Doc.View.snapshot d);
  let call = List.hd (Doc.visible_function_nodes d) in
  let added = Doc.replace_call d call [] in
  Alcotest.(check int) "nothing spliced" 0 (List.length added);
  Alcotest.(check bool) "stale parent cleared" true (call.Doc.parent = None);
  let labels =
    List.filter_map
      (fun (n : Doc.node) -> match n.Doc.label with Doc.Elem l -> Some l | _ -> None)
      (Doc.root d).Doc.children
  in
  Alcotest.(check (list string)) "siblings close ranks" [ "a"; "b" ] labels;
  Alcotest.(check int) "no calls left" 0 (Doc.count_calls d);
  let v = Doc.View.snapshot d in
  Alcotest.(check int) "patched view matches doc" (Doc.size d) (Doc.View.size v)

(* Regression: a failed replace must leave the document untouched — in
   particular it must not import and adopt the result forest before
   discovering the target is invalid. *)
let test_failed_replace_leaves_doc_untouched () =
  let d = sample () in
  let getrating =
    List.find (fun n -> Doc.call_name n = Some "getrating") (Doc.function_nodes d)
  in
  ignore (Doc.replace_call d getrating [ Tree.text "5" ]);
  let size = Doc.size d in
  let rating =
    List.find
      (fun (n : Doc.node) -> n.Doc.label = Doc.Elem "rating")
      (Doc.fold (fun acc n -> n :: acc) [] d)
  in
  let arity = List.length rating.Doc.children in
  (match Doc.replace_call d getrating [ Tree.element "orphan" [] ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument");
  Alcotest.(check int) "no orphans adopted" size (Doc.size d);
  Alcotest.(check int) "parent arity unchanged" arity (List.length rating.Doc.children)

let test_replace_non_call () =
  let d = sample () in
  match Doc.replace_call d (Doc.root d) [] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let test_append_remove () =
  let d = sample () in
  let extra = Doc.elem d "extra" [] in
  Doc.append_child d (Doc.root d) extra;
  Alcotest.(check int) "added" 1
    (List.length (List.filter (fun (n : Doc.node) -> n.Doc.label = Doc.Elem "extra")
                    (Doc.root d).Doc.children));
  Doc.remove_node d extra;
  Alcotest.(check bool) "removed" true (extra.Doc.parent = None);
  match Doc.remove_node d (Doc.root d) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "cannot remove the root"

let test_text_value_and_children () =
  let d = sample () in
  let name =
    List.find
      (fun (n : Doc.node) -> n.Doc.label = Doc.Elem "name")
      (Doc.fold (fun acc n -> n :: acc) [] d)
  in
  Alcotest.(check (list (option string))) "text child" [ Some "BW" ]
    (List.map Doc.text_value (Doc.data_children name));
  Alcotest.(check (option string)) "element has no text value" None (Doc.text_value name)

let test_iteration_order () =
  let d = Doc.parse "<a><b><c/></b><d/></a>" in
  let labels =
    List.rev
      (Doc.fold
         (fun acc (n : Doc.node) ->
           match n.Doc.label with Doc.Elem l -> l :: acc | _ -> acc)
         [] d)
  in
  Alcotest.(check (list string)) "preorder" [ "a"; "b"; "c"; "d" ] labels

(* ------------------------------------------------------------------ *)
(* The node counter agrees with the printed tree at every node, calls
   included. *)

let prop_byte_size =
  QCheck.Test.make ~name:"byte_size n = Print.byte_size (node_to_xml n)" ~count:300
    Gen.arb_escapable_tree (fun tr ->
      Doc.fold
        (fun ok n -> ok && Doc.byte_size n = Axml_xml.Print.byte_size (Doc.node_to_xml n))
        true (Doc.of_xml tr))

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "doc"
    [
      ( "model",
        [
          quick "builders" test_builders;
          quick "double parent rejected" test_reject_double_parent;
          quick "xml roundtrip" test_of_xml_roundtrip;
          quick "call without name" test_call_without_name;
          quick "call ids in document order" test_call_ids_in_document_order;
          quick "visible vs all calls" test_visible_vs_all_calls;
          quick "ancestors and label path" test_ancestors_and_path;
        ] );
      ( "mutation",
        [
          quick "replace_call" test_replace_call;
          quick "splice order" test_replace_call_splice_order;
          quick "empty forest is deletion" test_replace_with_empty_forest;
          quick "failed replace leaves doc untouched" test_failed_replace_leaves_doc_untouched;
          quick "replace non-call" test_replace_non_call;
          quick "append/remove" test_append_remove;
        ] );
      ( "access",
        [
          quick "text values" test_text_value_and_children;
          quick "iteration order" test_iteration_order;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_byte_size ]);
    ]
