module Doc = Axml_doc
module Tree = Axml_xml.Tree
module P = Axml_query.Pattern

let prune pattern forest =
  (* Import the forest into a scratch document so the matcher can run
     over it. Each image is recorded as whole or inner: images of leaves
     (their content is the matched value — a data leaf, a pending call
     with its parameters) and of result nodes (the answer must arrive
     whole) ship their whole subtree; images of inner pattern nodes ship
     alone, their relevant children kept as images of their own. *)
  let roots = Doc.forest_of_xml (Doc.create ()) forest in
  let whole = Hashtbl.create 64 in
  let image (p : P.node) (n : Doc.node) =
    let w = p.P.children = [] || p.P.result in
    if w || not (Hashtbl.mem whole n.Doc.id) then Hashtbl.replace whole n.Doc.id w
  in
  List.iter (fun root -> Axml_query.Eval.witnesses pattern root ~image) roots;
  (* A node survives if it is an image or has a surviving descendant;
     a matched call ships whole, parameters included. *)
  let rec rebuild (n : Doc.node) : Tree.t option =
    match Hashtbl.find_opt whole n.Doc.id, n.Doc.label with
    | Some true, _ | Some false, (Doc.Data _ | Doc.Call _) -> Some (Doc.node_to_xml n)
    | img, Doc.Elem name -> (
      match List.filter_map rebuild n.Doc.children with
      | [] when img = None -> None
      | kept -> Some (Tree.element ~attrs:n.Doc.attrs name kept))
    | None, _ -> None
  in
  List.filter_map rebuild roots
