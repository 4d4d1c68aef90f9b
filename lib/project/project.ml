(* Type-based document projection (see project.mli for the contract).

   The projector is one NFA walk: document labels are consumed root-down
   against the alternation of the pattern's root-to-node path regexes,
   and a node survives iff its state set is accepting (hit), accepting
   in the result-node automaton (keep the whole subtree), or live — some
   schema-admissible extension below its label can still reach
   acceptance. Liveness is precomputed once per compile as a least
   fixpoint over NFA states × alphabet symbols, threading through
   function symbols via the transitive closure of their declared output
   root symbols. *)

module Regex = Axml_automata.Regex
module Nfa = Axml_automata.Nfa
module Schema = Axml_schema.Schema
module P = Axml_query.Pattern
module Tree = Axml_xml.Tree
module Print = Axml_xml.Print
module Doc = Axml_doc

type stats = { full_nodes : int; kept_nodes : int; bytes_saved : int }

let zero_stats = { full_nodes = 0; kept_nodes = 0; bytes_saved = 0 }

let add_stats a b =
  {
    full_nodes = a.full_nodes + b.full_nodes;
    kept_nodes = a.kept_nodes + b.kept_nodes;
    bytes_saved = a.bytes_saved + b.bytes_saved;
  }

type t = {
  hit : Nfa.t;  (** alternation of all pattern-node path regexes *)
  sub : Nfa.t option;  (** result nodes only; [None] when the pattern has none *)
  idx : (string, int) Hashtbl.t;
  other_ix : int;
  data_ix : int;
  schema : Schema.t option;
  fun_nodes : bool;  (** pattern queries function nodes: never drop a call *)
  live : bool array array;  (** [live.(state).(sym)] over the hit automaton *)
  can_reach : bool array;  (** accepting reachable in ≥ 1 steps (any labels) *)
  out_roots : (string, string list option) Hashtbl.t;
      (** per function: closure of output root symbols; [None] = unbounded *)
}

let sym_ix t s = match Hashtbl.find_opt t.idx s with Some i -> i | None -> t.other_ix

(* State sets are small sorted int lists. *)
let step a set ix = List.sort_uniq compare (List.concat_map (fun s -> Nfa.successors a s ix) set)
let accepting a set = List.exists (Nfa.is_accepting a) set

(* ------------------------------------------------------------------ *)
(* Output-type closure: the element/data symbols a call to [fname] can
   eventually splice at its own position — the roots of its output
   content model, expanded through any function symbols among them
   (their results land at the same position). [None] when the chain runs
   through an undeclared function, whose results are unbounded. *)

let output_roots schema fname =
  let rec go visited acc fname =
    if List.mem fname visited then Some acc
    else
      match Schema.find_function schema fname with
      | None -> None
      | Some { Schema.output; _ } ->
        List.fold_left
          (fun acc c ->
            match acc with
            | None -> None
            | Some acc ->
              if Schema.find_function schema c <> None then go (fname :: visited) acc c
              else Some (if List.mem c acc then acc else c :: acc))
          (Some acc) (Regex.occurring_symbols output)
  in
  go [] [] fname

(* ------------------------------------------------------------------ *)
(* Compilation *)

let path_regex q v = P.linear_regex (P.linear_part q v @ [ (v.P.axis, v.P.label) ])

let compile ?schema (q : P.t) =
  let pnodes = List.filter (fun n -> n.P.label <> P.Or) (P.nodes q) in
  let hit_paths = List.map (path_regex q) pnodes in
  let hit_paths = if hit_paths = [] then [ Regex.Star Regex.Any ] else hit_paths in
  let sub_paths =
    List.filter_map
      (fun v -> if v.P.label = P.Or then None else Some (path_regex q v))
      (P.result_nodes q)
  in
  let extra =
    Schema.data_keyword :: (match schema with Some s -> Schema.all_symbols s | None -> [])
  in
  let alphabet =
    Nfa.common_alphabet
      ((Regex.alt hit_paths :: List.map (fun s -> Regex.Sym s) extra)
      @ match sub_paths with [] -> [] | ps -> [ Regex.alt ps ])
  in
  let hit = Nfa.of_regex ~alphabet (Regex.alt hit_paths) in
  let sub =
    match sub_paths with [] -> None | ps -> Some (Nfa.of_regex ~alphabet (Regex.alt ps))
  in
  let alpha = Array.of_list (Nfa.alphabet hit) in
  let idx = Hashtbl.create 16 in
  Array.iteri (fun i s -> Hashtbl.replace idx s i) alpha;
  let other_ix = Hashtbl.find idx Nfa.other_symbol in
  let data_ix = Hashtbl.find idx Schema.data_keyword in
  let nstates = Nfa.size hit and nsyms = Array.length alpha in
  (* reach0.(s): accepting reachable in ≥ 0 steps. *)
  let reach0 = Array.init nstates (Nfa.is_accepting hit) in
  let changed = ref true in
  while !changed do
    changed := false;
    for s = 0 to nstates - 1 do
      if not reach0.(s) then
        for k = 0 to nsyms - 1 do
          if (not reach0.(s)) && List.exists (fun s' -> reach0.(s')) (Nfa.successors hit s k)
          then begin
            reach0.(s) <- true;
            changed := true
          end
        done
    done
  done;
  let can_reach =
    Array.init nstates (fun s ->
        let found = ref false in
        for k = 0 to nsyms - 1 do
          if (not !found) && List.exists (fun s' -> reach0.(s')) (Nfa.successors hit s k)
          then found := true
        done;
        !found)
  in
  (* Per symbol: the child-step symbol indices its content model admits,
     or [None] when unconstrained (no schema, undefined name, the
     witness symbol, or an undeclared function in the content). *)
  let out_roots = Hashtbl.create 8 in
  let roots fname =
    match Hashtbl.find_opt out_roots fname with
    | Some r -> r
    | None ->
      let r = match schema with None -> None | Some sc -> output_roots sc fname in
      Hashtbl.replace out_roots fname r;
      r
  in
  let kinds =
    Array.map
      (fun s ->
        if String.equal s Schema.data_keyword then Some []
        else
          match schema with
          | None -> None
          | Some sc -> (
            match Schema.find_element sc s with
            | None -> None
            | Some content ->
              List.fold_left
                (fun acc c ->
                  match acc with
                  | None -> None
                  | Some acc -> (
                    if Schema.find_function sc c <> None then
                      match roots c with
                      | None -> None
                      | Some rs ->
                        Some
                          (List.fold_left
                             (fun acc r ->
                               let i =
                                 match Hashtbl.find_opt idx r with
                                 | Some i -> i
                                 | None -> other_ix
                               in
                               if List.mem i acc then acc else i :: acc)
                             acc rs)
                    else
                      let i =
                        match Hashtbl.find_opt idx c with Some i -> i | None -> other_ix
                      in
                      Some (if List.mem i acc then acc else i :: acc)))
                (Some []) (Regex.occurring_symbols content)))
      alpha
  in
  (* live.(s).(k): below a node labeled alpha.(k) reached in state s, can
     a schema-admissible descendant chain still reach acceptance? *)
  let live = Array.make_matrix nstates nsyms false in
  let changed = ref true in
  while !changed do
    changed := false;
    for s = 0 to nstates - 1 do
      for k = 0 to nsyms - 1 do
        if not live.(s).(k) then begin
          let v =
            match kinds.(k) with
            | None -> can_reach.(s)
            | Some cs ->
              List.exists
                (fun c ->
                  List.exists
                    (fun s' -> Nfa.is_accepting hit s' || live.(s').(c))
                    (Nfa.successors hit s c))
                cs
          in
          if v then begin
            live.(s).(k) <- true;
            changed := true
          end
        end
      done
    done
  done;
  {
    hit;
    sub;
    idx;
    other_ix;
    data_ix;
    schema;
    fun_nodes = P.has_function_nodes q;
    live;
    can_reach;
    out_roots;
  }

(* ------------------------------------------------------------------ *)
(* The walk *)

type ctx = { sh : int list; ss : int list }

let start_ctx t =
  { sh = [ Nfa.start t.hit ]; ss = (match t.sub with None -> [] | Some a -> [ Nfa.start a ]) }

let live_set t set ix = List.exists (fun s -> t.live.(s).(ix)) set

(* Is a call to [fname] worth keeping when its (future) results would
   step from the hit-state set [sh]? *)
let call_useful t sh fname =
  if sh = [] then false
  else if t.fun_nodes then true
  else
    match t.schema with
    | None -> true
    | Some sc -> (
      match
        (match Hashtbl.find_opt t.out_roots fname with
        | Some r -> r
        | None ->
          let r = output_roots sc fname in
          Hashtbl.replace t.out_roots fname r;
          r)
      with
      | None -> true
      | Some rs ->
        List.exists
          (fun r ->
            let ix = sym_ix t r in
            let s' = step t.hit sh ix in
            accepting t.hit s' || live_set t s' ix)
          rs)

type decision = Drop | Keep_all | Recurse of ctx

let decide t ctx (label : [ `Elem of string | `Data | `Call of string ]) =
  match label with
  | `Call fname -> if call_useful t ctx.sh fname then Keep_all else Drop
  | `Data | `Elem _ ->
    let ix = match label with `Data -> t.data_ix | `Elem name -> sym_ix t name | _ -> t.other_ix in
    let sh' = step t.hit ctx.sh ix in
    let ss' = match t.sub with None -> [] | Some a -> step a ctx.ss ix in
    if (match t.sub with Some a -> accepting a ss' | None -> false) then Keep_all
    else if accepting t.hit sh' then Recurse { sh = sh'; ss = ss' }
    else if sh' <> [] && live_set t sh' ix then Recurse { sh = sh'; ss = ss' }
    else Drop

(* ------------------------------------------------------------------ *)
(* Pure trees (wire layer): <axml:call> elements are function nodes. *)

let tree_label (tr : Tree.t) =
  match tr with
  | Tree.Text _ -> `Data
  | Tree.Element { name; attrs; _ } when String.equal name Doc.call_elem_name -> (
    match List.assoc_opt "name" attrs with Some f -> `Call f | None -> `Call "")
  | Tree.Element { name; _ } -> `Elem name

(* [keep_tree] and [prune_node] account nodes only; bytes saved are
   measured at the public entry points as the exact serialization
   difference, because dropping all of an element's children also
   shrinks its own shell (<e>…</e> becomes <e/>). *)
let rec keep_tree t ctx (tr : Tree.t) st =
  match decide t ctx (tree_label tr) with
  | Drop ->
    st := add_stats !st { full_nodes = Tree.size tr; kept_nodes = 0; bytes_saved = 0 };
    None
  | Keep_all ->
    let n = Tree.size tr in
    st := add_stats !st { full_nodes = n; kept_nodes = n; bytes_saved = 0 };
    Some tr
  | Recurse ctx' -> (
    st := add_stats !st { full_nodes = 1; kept_nodes = 1; bytes_saved = 0 };
    match tr with
    | Tree.Text _ -> Some tr
    | Tree.Element e ->
      Some (Tree.Element { e with children = List.filter_map (fun c -> keep_tree t ctx' c st) e.children }))

let tree t tr =
  let full_bytes = Print.byte_size tr in
  let st = ref zero_stats in
  let tr' =
    match keep_tree t (start_ctx t) tr st with
    | Some tr' -> tr'
    | None -> (
      (* the document root is never dropped: keep its bare shell *)
      match tr with
      | Tree.Text _ as leaf ->
        st := { !st with kept_nodes = 1 };
        leaf
      | Tree.Element e ->
        st := { !st with kept_nodes = 1 };
        Tree.Element { e with children = [] })
  in
  (tr', { !st with bytes_saved = full_bytes - Print.byte_size tr' })

(* ------------------------------------------------------------------ *)
(* Live documents (parse and engine layers): in-place detachment. *)

let rec dnode_size (n : Doc.node) = 1 + List.fold_left (fun a c -> a + dnode_size c) 0 n.Doc.children

let doc_label (n : Doc.node) =
  match n.Doc.label with
  | Doc.Elem name -> `Elem name
  | Doc.Data _ -> `Data
  | Doc.Call { Doc.fname; _ } -> `Call fname

let rec prune_node t ctx d (n : Doc.node) st =
  match decide t ctx (doc_label n) with
  | Drop ->
    st := add_stats !st { full_nodes = dnode_size n; kept_nodes = 0; bytes_saved = 0 };
    Doc.remove_node d n;
    false
  | Keep_all ->
    let k = dnode_size n in
    st := add_stats !st { full_nodes = k; kept_nodes = k; bytes_saved = 0 };
    true
  | Recurse ctx' ->
    st := add_stats !st { full_nodes = 1; kept_nodes = 1; bytes_saved = 0 };
    (* [remove_node] rewrites the child list: snapshot before iterating *)
    let snapshot = n.Doc.children in
    List.iter (fun c -> ignore (prune_node t ctx' d c st)) snapshot;
    true

(* [remove_node] rewrites the parent's child list, so snapshot before
   iterating *)
let prune_children t ctx d (n : Doc.node) st =
  let snapshot = n.Doc.children in
  List.iter (fun c -> ignore (prune_node t ctx d c st)) snapshot

let doc t d =
  let st = ref zero_stats in
  let root = Doc.root d in
  let full_bytes = Print.byte_size (Doc.node_to_xml root) in
  (match decide t (start_ctx t) (doc_label root) with
  | Drop ->
    (* never drop the root; drop its children instead *)
    let full = dnode_size root in
    st := { full_nodes = full; kept_nodes = 1; bytes_saved = 0 };
    let snapshot = root.Doc.children in
    List.iter (fun c -> Doc.remove_node d c) snapshot
  | Keep_all ->
    let k = dnode_size root in
    st := add_stats !st { full_nodes = k; kept_nodes = k; bytes_saved = 0 }
  | Recurse ctx' ->
    st := add_stats !st { full_nodes = 1; kept_nodes = 1; bytes_saved = 0 };
    prune_children t ctx' d root st);
  { !st with bytes_saved = full_bytes - Print.byte_size (Doc.node_to_xml root) }

(* Context along root → parent, stepping both automata; [`Keep_all] when
   an ancestor already lies under a result image (or is a call/data
   node, which splicing should never produce — be conservative). *)
let parent_context t (parent : Doc.node) =
  let chain = List.rev (parent :: Doc.ancestors parent) in
  let rec go ctx = function
    | [] -> `Ctx ctx
    | n :: rest -> (
      match n.Doc.label with
      | Doc.Data _ | Doc.Call _ -> `Keep_all
      | Doc.Elem name ->
        let ix = sym_ix t name in
        let sh = step t.hit ctx.sh ix in
        let ss = match t.sub with None -> [] | Some a -> step a ctx.ss ix in
        if match t.sub with Some a -> accepting a ss | None -> false then `Keep_all
        else go { sh; ss } rest)
  in
  go (start_ctx t) chain

(* Project the service-result forest {e before} {!Doc.replace_call}
   imports it, against the state context of the call's parent: the
   same decisions and stats as projecting the spliced trees in place
   (the kept/dropped sets and serialized sizes coincide tree-for-tree),
   but the document is never mutated after the splice — so an
   incremental snapshot-view patch installed by [replace_call] stays
   valid. *)
let spliced_forest t ~parent (f : Tree.forest) =
  match parent_context t parent with
  | `Keep_all ->
    let k = List.fold_left (fun a tr -> a + Tree.size tr) 0 f in
    (f, { full_nodes = k; kept_nodes = k; bytes_saved = 0 })
  | `Ctx ctx ->
    let full_bytes = Print.forest_byte_size f in
    let st = ref zero_stats in
    let kept = List.filter_map (fun tr -> keep_tree t ctx tr st) f in
    (kept, { !st with bytes_saved = full_bytes - Print.forest_byte_size kept })

let keeps_call t _d ~fname ~parent =
  match parent_context t parent with
  | `Keep_all -> true
  | `Ctx ctx -> call_useful t ctx.sh fname
