(** Function-call guides (§6.2).

    A dataguide-style trie summarizing only the label paths of a document
    that lead to (query-visible) function calls, each trie node keeping
    the extent: pointers to the call nodes sitting at that path. Linear
    path queries yield the same result on the F-guide as on the document,
    so relevance detection can first collect candidates here and then
    filter them with the anchored NFQ check.

    Built in one document-order traversal; maintained incrementally when
    calls are invoked and their results spliced in. *)

module P = Axml_query.Pattern
module Doc = Axml_doc

type trie = {
  mutable children : (string * trie) list;  (* label -> subtrie *)
  mutable extent : Doc.node list;  (* calls whose parent path ends here *)
}

type t = {
  root : trie;
  (* call node id -> the trie node holding it, for O(1) removal *)
  location : (int, trie) Hashtbl.t;
  mutable calls : int;
  (* which document state the guide reflects: {!memoized} reuses the
     guide while these match, {!sync} re-tags it after incremental
     maintenance brought it up to date with a newer generation *)
  mutable doc_uid : int;
  mutable doc_generation : int;
}

let make_trie () = { children = []; extent = [] }

let child_trie trie label =
  match List.assoc_opt label trie.children with
  | Some c -> c
  | None ->
    let c = make_trie () in
    trie.children <- trie.children @ [ (label, c) ];
    c

let insert_call t path call =
  let trie = List.fold_left child_trie t.root path in
  trie.extent <- call :: trie.extent;
  Hashtbl.replace t.location call.Doc.id trie;
  t.calls <- t.calls + 1

(* Visible calls below [n] (inclusive), with their paths relative to
   [prefix]; does not descend into call parameters. *)
let rec index_from t prefix (n : Doc.node) =
  match n.Doc.label with
  | Doc.Call _ -> insert_call t (List.rev prefix) n
  | Doc.Data _ -> ()
  | Doc.Elem label -> List.iter (index_from t (label :: prefix)) n.Doc.children

let empty () =
  {
    root = make_trie ();
    location = Hashtbl.create 64;
    calls = 0;
    doc_uid = -1;
    doc_generation = -1;
  }

(* Same traversal as [index_from], over the snapshot view:
   identical visit order, so extents come out in the same order and the
   candidate lists (hence invocation order downstream) are unchanged. *)
let of_view v =
  let module View = Doc.View in
  let t = empty () in
  let rec go prefix i =
    match View.label v i with
    | Doc.Call _ -> insert_call t (List.rev prefix) (View.node v i)
    | Doc.Data _ -> ()
    | Doc.Elem label -> List.iter (go (label :: prefix)) (View.children v i)
  in
  go [] (View.root v);
  t.doc_uid <- View.doc_uid v;
  t.doc_generation <- View.generation v;
  t

let build d =
  let v = Doc.View.snapshot d in
  let t = of_view v in
  t.doc_uid <- Doc.uid d;
  t.doc_generation <- Doc.generation d;
  t

let sync t d = t.doc_generation <- Doc.generation d

(* ------------------------------------------------------------------ *)
(* Generation-keyed memoization: two queries over an unchanged document
   share one build. A guide maintained through [update_after_replace]
   and re-tagged with [sync] stays reusable across evaluations. *)

let cache : (int, t) Hashtbl.t = Hashtbl.create 16
let cache_mu = Mutex.create ()
let cache_cap = 32

let memoized d =
  Mutex.lock cache_mu;
  let hit =
    match Hashtbl.find_opt cache (Doc.uid d) with
    | Some g when g.doc_generation = Doc.generation d -> Some g
    | _ -> None
  in
  match hit with
  | Some g ->
    Mutex.unlock cache_mu;
    (g, true)
  | None ->
    Mutex.unlock cache_mu;
    let g = build d in
    Mutex.lock cache_mu;
    if Hashtbl.length cache >= cache_cap && not (Hashtbl.mem cache (Doc.uid d)) then
      Hashtbl.reset cache;
    Hashtbl.replace cache (Doc.uid d) g;
    Mutex.unlock cache_mu;
    (g, false)

let call_count t = t.calls

let node_count t =
  let rec count trie =
    List.fold_left (fun acc (_, c) -> acc + count c) 1 trie.children
  in
  count t.root

let remove_call t call =
  match Hashtbl.find_opt t.location call.Doc.id with
  | None -> ()
  | Some trie ->
    trie.extent <- List.filter (fun c -> c.Doc.id <> call.Doc.id) trie.extent;
    Hashtbl.remove t.location call.Doc.id;
    t.calls <- t.calls - 1

let add_subtree t (n : Doc.node) =
  index_from t (List.rev (Doc.label_path n)) n

let remove_subtree t (n : Doc.node) =
  let rec go (m : Doc.node) =
    match m.Doc.label with
    | Doc.Call _ -> remove_call t m
    | Doc.Data _ -> ()
    | Doc.Elem _ -> List.iter go m.Doc.children
  in
  go n

(* Maintenance after [Doc.replace_call]: the invoked call leaves the
   guide, the spliced-in nodes are indexed under their (new) paths. *)
let update_after_replace t ~invoked ~added =
  remove_call t invoked;
  List.iter (add_subtree t) added

(** All calls reachable by the linear steps (the last step carries the
    function label). Wildcard-ish labels (variables, values, [*]) match
    any trie edge, mirroring {!Pattern.linear_regex}. *)
let candidates t (steps : (P.axis * P.label) list) : Doc.node list =
  let label_matches label edge =
    match label with
    | P.Const s -> String.equal s edge
    | P.Var _ | P.Wildcard | P.Value _ -> true
    | P.Or | P.Fun _ -> false
  in
  let rec descendants_or_self trie =
    trie :: List.concat_map (fun (_, c) -> descendants_or_self c) trie.children
  in
  let matching_children trie label =
    List.filter_map
      (fun (edge, c) -> if label_matches label edge then Some c else None)
      trie.children
  in
  let step_down tries axis label =
    List.concat_map
      (fun trie ->
        match axis with
        | P.Child -> matching_children trie label
        | P.Descendant ->
          List.concat_map (fun sub -> matching_children sub label) (descendants_or_self trie))
      tries
  in
  let fun_matches filter (call : Doc.node) =
    match filter, call.Doc.label with
    | P.Fun P.Any_fun, Doc.Call _ -> true
    | P.Fun (P.Named fs), Doc.Call c -> List.mem c.Doc.fname fs
    | _ -> false
  in
  let rec walk tries = function
    | [] -> []
    | [ (axis, label) ] ->
      (* the function step: collect extents *)
      let holders =
        match axis with
        | P.Child -> tries
        | P.Descendant -> List.concat_map descendants_or_self tries
      in
      let seen = Hashtbl.create 16 in
      List.concat_map (fun trie -> trie.extent) holders
      |> List.filter (fun (c : Doc.node) ->
             fun_matches label c
             &&
             if Hashtbl.mem seen c.Doc.id then false
             else begin
               Hashtbl.replace seen c.Doc.id ();
               true
             end)
    | (axis, label) :: rest -> walk (step_down tries axis label) rest
  in
  walk [ t.root ] steps

(* §6.2: "since F-guides are trees, they can naturally be represented as
   XML documents, and therefore be serialized and queried just as the
   data they summarize". Extents are summarized by a count attribute. *)
let to_xml t =
  let module Tree = Axml_xml.Tree in
  let rec node label trie =
    let attrs =
      if trie.extent = [] then []
      else [ ("calls", string_of_int (List.length trie.extent)) ]
    in
    Tree.element ~attrs label (List.map (fun (l, c) -> node l c) trie.children)
  in
  node "fguide" t.root

let paths t =
  let rec collect prefix trie acc =
    let acc = if trie.extent <> [] then List.rev prefix :: acc else acc in
    List.fold_left (fun acc (label, c) -> collect (label :: prefix) c acc) acc trie.children
  in
  List.rev (collect [] t.root [])
