(** Type-based pruning of relevance queries (§5, with the lenient variant
    of §6.1).

    Holds a satisfiability checker over the original query's subtrees and
    rewrites relevance queries so that every star function node only
    matches the concrete services whose (derived) output types can
    satisfy the query subtree that function stands for. Function names
    unknown to the schema always remain eligible (no wrongful pruning),
    which also implements the paper's dynamic enrichment: names brought
    by new calls become alternatives of the subtrees they satisfy. *)

module P = Axml_query.Pattern
module Schema = Axml_schema.Schema
module Sat = Axml_schema.Sat

type t = {
  schema : Schema.t;
  sat : Sat.t;
  original : P.t;
  (* pid of an original-query node -> that node (for sub_q_v lookups) *)
  by_pid : (int, P.node) Hashtbl.t;
}

let create ?(mode = Sat.Exact) schema (q : P.t) =
  let by_pid = Hashtbl.create 32 in
  List.iter (fun (n : P.node) -> Hashtbl.replace by_pid n.P.pid n) (P.nodes q);
  { schema; sat = Sat.create ~mode schema [ q.P.root ]; original = q; by_pid }

let sub_query t pid =
  match Hashtbl.find_opt t.by_pid pid with
  | Some n -> n
  | None -> invalid_arg "Typing: pid not in the original query"

(** The declared services eligible for [source], plus every name of
    [known_functions] the schema does not declare. *)
let eligible_names t ~known_functions ~source =
  let p = sub_query t source in
  List.filter
    (fun f ->
      (not (Schema.is_function_symbol t.schema f)) || Sat.function_satisfies t.sat ~fname:f p)
    known_functions

(** Rewrites a relevance query into its refined version (§5): star
    function nodes become concrete name lists; OR branches whose function
    list is empty are dropped (collapsing single-child ORs); returns
    [None] when the output node itself has no eligible service — the
    refined NFQ can retrieve nothing. *)
let refine t ~known_functions (rq : Relevance.t) : Relevance.t option =
  Relevance.rewrite_funs rq ~f:(fun ~fun_pid:_ ~source ->
      match eligible_names t ~known_functions ~source with
      | [] -> `Drop
      | names -> `Relabel (P.Fun (P.Named names)))
