(* Type-based document projection (see project.mli for the contract).

   The projector is one automaton walk: document labels are consumed
   root-down against the alternation of the pattern's root-to-node path
   regexes, and a node survives iff its state set is accepting (hit),
   accepting in the result-node automaton (keep the whole subtree), or
   live — some schema-admissible extension below its label can still
   reach acceptance. Liveness is precomputed once per compile as a least
   fixpoint over NFA states × alphabet symbols, threading through
   function symbols via the transitive closure of their declared output
   root symbols. Both NFAs are then determinized, so the walk steps
   table lookups instead of state-set lists. *)

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

(* A deterministic automaton over the alphabet's symbol indices, started
   in state 0: state [d]'s successor on symbol [k] is
   [delta.(d * nsyms + k)]. *)
type dfa = { delta : int array; accepting : bool array }

type t = {
  idx : (string, int) Hashtbl.t;
  other_ix : int;
  data_ix : int;
  nsyms : int;
  hit : dfa;  (** determinized alternation of all pattern-node path regexes *)
  hit_dead : int;  (** the empty state set; [-1] when unreachable *)
  hit_live : bool array;
      (** [hit_live.(d * nsyms + k)]: below a node labeled [k] reached in
          [d], a schema-admissible descendant chain can still accept *)
  sub : dfa;  (** result nodes only; never accepting when the pattern has none *)
  calls : (string, bool array) Hashtbl.t;
      (** per function with a bounded output closure: is a call useful in
          hit state [d]? Other calls are kept in every non-dead state. *)
}

(* The symbol index of a label; unmentioned labels are the witness. *)
let lookup idx ~other s = match Hashtbl.find idx s with i -> i | exception Not_found -> other
let sym_ix t s = lookup t.idx ~other:t.other_ix s

(* State sets are small sorted int lists. *)
let step a set ix = List.sort_uniq compare (List.concat_map (fun s -> Nfa.successors a s ix) set)

(* Subset construction from the state set [init], which becomes state
   0: the interned sets (id order) and the transition table. Sets are
   dequeued in id order, so the rows come out in id order too. *)
let determinize a ~nsyms init =
  let ids = Hashtbl.create 16 and sets = ref [] and pending = Queue.create () in
  let intern set =
    match Hashtbl.find_opt ids set with
    | Some d -> d
    | None ->
      let d = Hashtbl.length ids in
      Hashtbl.replace ids set d;
      sets := set :: !sets;
      Queue.add set pending;
      d
  in
  ignore (intern init);
  let rows = ref [] in
  while not (Queue.is_empty pending) do
    let set = Queue.pop pending in
    rows := Array.init nsyms (fun k -> intern (step a set k)) :: !rows
  done;
  let sets = Array.of_list (List.rev !sets) in
  ( sets,
    {
      delta = Array.concat (List.rev !rows);
      accepting = Array.map (List.exists (Nfa.is_accepting a)) sets;
    } )

let next (a : dfa) ~nsyms d ix = a.delta.((d * nsyms) + ix)

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
  let ix_of = lookup idx ~other:other_ix in
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
                               let i = ix_of r in
                               if List.mem i acc then acc else i :: acc)
                             acc rs)
                    else
                      let i = ix_of c in
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
  (* Determinize both automata over the same symbol indices, with
     liveness lifted to state sets. *)
  let hit_sets, hit_dfa = determinize hit ~nsyms [ Nfa.start hit ] in
  let hit_live =
    Array.init
      (Array.length hit_sets * nsyms)
      (fun i -> List.exists (fun s -> live.(s).(i mod nsyms)) hit_sets.(i / nsyms))
  in
  let hit_dead = Option.value (Array.find_index (( = ) []) hit_sets) ~default:(-1) in
  let sub_dfa =
    match sub with
    | Some a -> snd (determinize a ~nsyms [ Nfa.start a ])
    | None -> { delta = Array.make nsyms 0; accepting = [| false |] }
  in
  (* A call to [fname] whose results would step from hit state [d] is
     useful iff one of its output roots lands accepting or live. Calls
     are always useful when the pattern queries function nodes, without
     a schema, and for functions whose output closure is unbounded
     (undeclared ones included). *)
  let calls = Hashtbl.create 8 in
  (match schema with
  | Some sc when not (P.has_function_nodes q) ->
    List.iter
      (fun fname ->
        match roots fname with
        | None -> ()
        | Some rs ->
          let rs = List.map ix_of rs in
          Hashtbl.replace calls fname
            (Array.init (Array.length hit_sets) (fun d ->
                 List.exists
                   (fun ix ->
                     let d' = next hit_dfa ~nsyms d ix in
                     hit_dfa.accepting.(d') || hit_live.((d' * nsyms) + ix))
                   rs)))
      (Schema.function_names sc)
  | _ -> ());
  {
    idx;
    other_ix;
    data_ix;
    nsyms;
    hit = hit_dfa;
    hit_dead;
    hit_live;
    sub = sub_dfa;
    calls;
  }

let states t = (Array.length t.hit.accepting, Array.length t.sub.accepting)

(* ------------------------------------------------------------------ *)
(* The walk *)

type ctx = { sh : int; ss : int }

let start_ctx = { sh = 0; ss = 0 }

(* Is a call to [fname] worth keeping when its (future) results would
   step from hit state [sh]? *)
let call_useful t sh fname =
  sh <> t.hit_dead
  && match Hashtbl.find t.calls fname with useful -> useful.(sh) | exception Not_found -> true

type decision = Drop | Keep_all | Recurse of ctx

(* A data or element node with symbol index [ix]. *)
let decide t ctx ix =
  let ss = next t.sub ~nsyms:t.nsyms ctx.ss ix in
  if t.sub.accepting.(ss) then Keep_all
  else
    let sh = next t.hit ~nsyms:t.nsyms ctx.sh ix in
    if t.hit.accepting.(sh) || t.hit_live.((sh * t.nsyms) + ix) then Recurse { sh; ss } else Drop

let decide_call t ctx fname = if call_useful t ctx.sh fname then Keep_all else Drop

(* Node counts of one walk; bytes saved are measured at the public entry
   points as the exact serialization difference, because dropping all
   of an element's children also shrinks its own shell (<e>…</e>
   becomes <e/>). *)
type tally = { mutable full : int; mutable kept : int }

let count tl ~full ~kept =
  tl.full <- tl.full + full;
  tl.kept <- tl.kept + kept

let stats tl ~bytes_saved = { full_nodes = tl.full; kept_nodes = tl.kept; bytes_saved }

(* ------------------------------------------------------------------ *)
(* Pure trees (wire layer): <axml:call> elements are function nodes. *)

let decide_tree t ctx (tr : Tree.t) =
  match tr with
  | Tree.Text _ -> decide t ctx t.data_ix
  | Tree.Element { name; attrs; _ } when String.equal name Doc.call_elem_name ->
    decide_call t ctx (Option.value (List.assoc_opt "name" attrs) ~default:"")
  | Tree.Element { name; _ } -> decide t ctx (sym_ix t name)

let rec keep_tree t ctx (tr : Tree.t) tl =
  match decide_tree t ctx tr with
  | Drop ->
    count tl ~full:(Tree.size tr) ~kept:0;
    None
  | Keep_all ->
    let n = Tree.size tr in
    count tl ~full:n ~kept:n;
    Some tr
  | Recurse ctx' -> (
    count tl ~full:1 ~kept:1;
    match tr with
    | Tree.Text _ -> Some tr
    | Tree.Element e ->
      Some
        (Tree.Element
           { e with children = List.filter_map (fun c -> keep_tree t ctx' c tl) e.children }))

let tree t tr =
  let full_bytes = Print.byte_size tr in
  let tl = { full = 0; kept = 0 } in
  let tr' =
    match keep_tree t start_ctx tr tl with
    | Some tr' -> tr'
    | None -> (
      (* the document root is never dropped: keep its bare shell *)
      tl.kept <- 1;
      match tr with Tree.Text _ -> tr | Tree.Element e -> Tree.Element { e with children = [] })
  in
  (tr', stats tl ~bytes_saved:(full_bytes - Print.byte_size tr'))

(* ------------------------------------------------------------------ *)
(* Live documents (parse and engine layers): in-place detachment. *)

let rec dnode_size (n : Doc.node) = 1 + List.fold_left (fun a c -> a + dnode_size c) 0 n.Doc.children

let decide_node t ctx (n : Doc.node) =
  match n.Doc.label with
  | Doc.Elem name -> decide t ctx (sym_ix t name)
  | Doc.Data _ -> decide t ctx t.data_ix
  | Doc.Call { Doc.fname; _ } -> decide_call t ctx fname

(* [remove_node] rewrites the parent's child list, so iterate over the
   list as it was before *)
let rec prune_children t ctx d (n : Doc.node) tl =
  List.iter
    (fun c ->
      match decide_node t ctx c with
      | Drop ->
        count tl ~full:(dnode_size c) ~kept:0;
        Doc.remove_node d c
      | Keep_all ->
        let k = dnode_size c in
        count tl ~full:k ~kept:k
      | Recurse ctx' ->
        count tl ~full:1 ~kept:1;
        prune_children t ctx' d c tl)
    n.Doc.children

let doc t d =
  let tl = { full = 0; kept = 0 } in
  let root = Doc.root d in
  let full_bytes = Doc.byte_size root in
  (match decide_node t start_ctx root with
  | Drop ->
    (* never drop the root; drop its children instead *)
    count tl ~full:(dnode_size root) ~kept:1;
    List.iter (fun c -> Doc.remove_node d c) root.Doc.children
  | Keep_all ->
    let k = dnode_size root in
    count tl ~full:k ~kept:k
  | Recurse ctx' ->
    count tl ~full:1 ~kept:1;
    prune_children t ctx' d root tl);
  stats tl ~bytes_saved:(full_bytes - Doc.byte_size root)

(* Context along root → [n], stepping both automata; [`Keep_all] when
   an ancestor already lies under a result image (or is a call/data
   node, which splicing should never produce — be conservative). *)
let rec parent_context t (n : Doc.node) =
  let above = match n.Doc.parent with None -> `Ctx start_ctx | Some p -> parent_context t p in
  match (above, n.Doc.label) with
  | `Keep_all, _ | _, (Doc.Data _ | Doc.Call _) -> `Keep_all
  | `Ctx ctx, Doc.Elem name ->
    let ix = sym_ix t name in
    let ss = next t.sub ~nsyms:t.nsyms ctx.ss ix in
    if t.sub.accepting.(ss) then `Keep_all
    else `Ctx { sh = next t.hit ~nsyms:t.nsyms ctx.sh ix; ss }

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
    let tl = { full = 0; kept = 0 } in
    let kept = List.filter_map (fun tr -> keep_tree t ctx tr tl) f in
    (kept, stats tl ~bytes_saved:(full_bytes - Print.forest_byte_size kept))

let keeps_call t _d ~fname ~parent =
  match parent_context t parent with
  | `Keep_all -> true
  | `Ctx ctx -> call_useful t ctx.sh fname
