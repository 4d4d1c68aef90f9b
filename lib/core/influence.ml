(** The may-influence relation between relevance queries, its layers, and
    the independence condition (§4.2–4.4).

    [q_v] may influence [q_v'] iff invoking a call retrieved by [q_v] can
    put new calls where [q_v'] looks — by Prop. 3, iff some word of the
    path language of [q_v^lin] is a prefix of some word of [q_v'^lin].
    Layers are the strongly connected components of may-influence,
    processed in a topological order. Inside a layer, [q_v] is
    {e independent} (condition ★) when its path language is disjoint from
    every other member's, in which case all the calls it retrieves can be
    invoked in parallel. *)

module Nfa = Axml_automata.Nfa

let may_influence (a : Relevance.t) (b : Relevance.t) =
  let ra = Relevance.lin_regex a and rb = Relevance.lin_regex b in
  let alphabet = Nfa.common_alphabet [ ra; rb ] in
  let na = Nfa.of_regex ~alphabet ra in
  let nb_prefixes = Nfa.prefix_closure (Nfa.of_regex ~alphabet rb) in
  Nfa.intersects na nb_prefixes

let disjoint_lin (a : Relevance.t) (b : Relevance.t) =
  let ra = Relevance.lin_regex a and rb = Relevance.lin_regex b in
  let alphabet = Nfa.common_alphabet [ ra; rb ] in
  not (Nfa.intersects (Nfa.of_regex ~alphabet ra) (Nfa.of_regex ~alphabet rb))

let independent_in_layer (q : Relevance.t) (layer : Relevance.t list) =
  List.for_all (fun q' -> q'.Relevance.source = q.Relevance.source || disjoint_lin q q') layer

(* One automaton per query, all over one alphabet: the union of every
   query's symbols plus the witness. Emptiness of a product is the same
   over any alphabet that contains the pair's own symbols (an extra label
   is one more "other" witness), so this decides every pair exactly like
   [may_influence] and [disjoint_lin] while building each query's
   automaton once instead of once per pair. *)
let automata qs =
  let regexes = Array.map Relevance.lin_regex qs in
  let alphabet = Nfa.common_alphabet (Array.to_list regexes) in
  Array.map (Nfa.of_regex ~alphabet) regexes

(* Layers as index lists: SCC condensation of the may-influence graph, in
   a topological order compatible with the partial order (≼) between
   components. The query sets are small (one relevance query per node of
   the original query), so an O(n³) transitive closure is perfectly
   adequate. *)
let layer_indices nfas : int list list =
  let n = Array.length nfas in
  if n = 0 then []
  else begin
    let prefixes = Array.map Nfa.prefix_closure nfas in
    let reach = Array.make_matrix n n false in
    for i = 0 to n - 1 do
      reach.(i).(i) <- true;
      for j = 0 to n - 1 do
        if i <> j && Nfa.intersects nfas.(i) prefixes.(j) then reach.(i).(j) <- true
      done
    done;
    for k = 0 to n - 1 do
      for i = 0 to n - 1 do
        if reach.(i).(k) then
          for j = 0 to n - 1 do
            if reach.(k).(j) then reach.(i).(j) <- true
          done
      done
    done;
    (* Equivalence classes: mutually reachable queries. *)
    let class_of = Array.make n (-1) in
    let classes = ref [] in
    let nclasses = ref 0 in
    for i = 0 to n - 1 do
      if class_of.(i) = -1 then begin
        let members = ref [] in
        for j = n - 1 downto 0 do
          if class_of.(j) = -1 && reach.(i).(j) && reach.(j).(i) then begin
            class_of.(j) <- !nclasses;
            members := j :: !members
          end
        done;
        classes := !members :: !classes;
        incr nclasses
      end
    done;
    let classes = Array.of_list (List.rev !classes) in
    (* Topological order of the condensation: repeatedly emit a class with
       no remaining predecessor. *)
    let emitted = Array.make !nclasses false in
    let has_pred c =
      let pred = ref false in
      for i = 0 to n - 1 do
        if
          (not !pred)
          && (not emitted.(class_of.(i)))
          && class_of.(i) <> c
          && List.exists (fun j -> reach.(i).(j)) classes.(c)
        then pred := true
      done;
      !pred
    in
    let order = ref [] in
    for _ = 1 to !nclasses do
      let next = ref (-1) in
      for c = !nclasses - 1 downto 0 do
        if (not emitted.(c)) && not (has_pred c) then next := c
      done;
      (* A DAG always has a source among the remaining classes. *)
      assert (!next >= 0);
      emitted.(!next) <- true;
      order := !next :: !order
    done;
    List.rev_map (fun c -> classes.(c)) !order
  end

let layers (queries : Relevance.t list) : Relevance.t list list =
  let qs = Array.of_list queries in
  List.map (List.map (fun i -> qs.(i))) (layer_indices (automata qs))

let plan ~layering (queries : Relevance.t list) : (Relevance.t * bool) list list =
  let qs = Array.of_list queries in
  let nfas = automata qs in
  let indices = if layering then layer_indices nfas else [ List.init (Array.length qs) Fun.id ] in
  let independent i layer =
    List.for_all
      (fun j ->
        qs.(j).Relevance.source = qs.(i).Relevance.source
        || not (Nfa.intersects nfas.(i) nfas.(j)))
      layer
  in
  List.map (fun layer -> List.map (fun i -> (qs.(i), independent i layer)) layer) indices
