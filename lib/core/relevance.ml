(** A relevance query: an extended tree-pattern query whose single result
    node is a function node, used to retrieve the calls of a document that
    are relevant for the original query. Both LPQs (§3.1) and NFQs (§3.2)
    take this shape; they differ only in how much of the original query's
    filtering they keep. *)

module P = Axml_query.Pattern
module Eval = Axml_query.Eval
module Doc = Axml_doc

type t = {
  query : P.t;  (** the extended query; its unique result node is [target] *)
  source : int;  (** pid of the node [v] of the original query *)
  target : int;  (** pid of the output function node in [query] *)
  target_axis : P.axis;  (** the axis of the output function step *)
  fun_sources : (int * int) list;
      (** function-node pid in [query] → pid of the original-query node it
          stands for (used by type-based refinement) *)
  lin : (P.axis * P.label) list;  (** [q_v^lin]: root → v, v excluded *)
}

(** The calls of [d] currently retrieved by the relevance query, by
    top-down evaluation (pure over the document's snapshot view; [par]
    fans the match out over top-level subtrees). *)
let relevant_calls ?relax_joins ?par t d =
  Eval.matches_of ?relax_joins ?par t.query d ~target:t.target

(** Same, sharing an evaluation context across queries (multi-query
    optimization); the context resets when the document changed, unless
    it was kept in sync with [Eval.forget]. *)
let relevant_calls_in ctx t d = Eval.matches_of_in ctx t.query d ~target:t.target

(** Same, over an explicit snapshot view. *)
let relevant_calls_view ?relax_joins ?par t v =
  Eval.matches_of_view ?relax_joins ?par t.query v ~target:t.target

(** Candidate-anchored check: does the relevance query retrieve this
    specific call? (used after F-guide filtering, §6.2). *)
let retrieves ?relax_joins t = Eval.anchored_matches ?relax_joins t.query ~target:t.target

(** Candidate-anchored check at a view position — the pure form the
    parallel candidate filter runs on domains. *)
let retrieves_view ?relax_joins t =
  Eval.anchored_matches_view ?relax_joins t.query ~target:t.target

let lin_regex t = P.linear_regex t.lin

(** The full linear path including the function step — the query run
    against the F-guide. *)
let guide_steps t =
  let fun_label =
    match P.find t.query t.target with
    | Some n -> n.P.label
    | None -> P.Fun P.Any_fun
  in
  t.lin @ [ (t.target_axis, fun_label) ]

let pp ppf t =
  Format.fprintf ppf "@[<h>NFQ(v=%d): %a@]" t.source P.pp t.query

(** Rewrites the tracked function nodes of a relevance query. [f] decides,
    for each function node (with the original-query node it stands for),
    whether to keep it, drop it, or relabel it (e.g. with a concrete name
    list). Dropping empties OR branches, which collapse; dropping a hard
    (non-OR) condition or the output node kills the whole query ([None]).
    This single traversal implements both type-based refinement (§5) and
    the after-layer simplification (§4.3). *)
let rewrite_funs (rq : t) ~f : t option =
  let exception Dead in
  let rec go (n : P.node) : P.node option =
    match n.P.label with
    | P.Fun _ -> (
      match List.assoc_opt n.P.pid rq.fun_sources with
      | None -> Some n
      | Some source -> (
        match f ~fun_pid:n.P.pid ~source with
        | `Keep -> Some n
        | `Drop -> None
        | `Relabel label -> Some (P.with_label n label)))
    | P.Or -> (
      match List.filter_map go n.P.children with
      | [] -> None
      | [ only ] -> Some (P.with_axis only n.P.axis)
      | children -> Some (P.with_children n children))
    | _ ->
      let children =
        List.map
          (fun c -> match go c with Some c -> c | None -> raise Dead)
          n.P.children
      in
      Some (P.with_children n children)
  in
  match go rq.query.P.root with
  | Some root ->
    let q = P.query root in
    if P.find q rq.target <> None then Some { rq with query = q } else None
  | None -> None
  | exception Dead -> None
