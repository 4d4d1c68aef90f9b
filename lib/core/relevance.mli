(** Relevance queries: extended tree-pattern queries whose single result
    node is a function node, used to retrieve the calls of a document
    that are relevant for an original query (Defs. 2–4). Both LPQs
    ({!Lpq}, §3.1) and NFQs ({!Nfq}, §3.2) take this shape; they differ
    only in how much of the original query's filtering they keep. *)

type t = {
  query : Axml_query.Pattern.t;
      (** the extended query; its unique result node is [target] *)
  source : int;  (** pid of the node [v] of the original query *)
  target : int;  (** pid of the output function node in [query] *)
  target_axis : Axml_query.Pattern.axis;
      (** the axis of the output function step *)
  fun_sources : (int * int) list;
      (** function-node pid in [query] → pid of the original-query node
          it stands for (used by type-based refinement) *)
  lin : (Axml_query.Pattern.axis * Axml_query.Pattern.label) list;
      (** [q_v^lin]: the linear path root → v, with v excluded (§4.2) *)
}

val relevant_calls :
  ?relax_joins:bool -> ?par:Axml_query.Eval.par -> t -> Axml_doc.t -> Axml_doc.node list
(** The calls the query currently retrieves, by top-down evaluation —
    a pure pass over the document's snapshot view; with [par] the match
    fans out over top-level subtrees. *)

val relevant_calls_in :
  Axml_query.Eval.context -> t -> Axml_doc.t -> Axml_doc.node list
(** Same, sharing an evaluation context across the relevance queries of
    one detection sweep (the multi-query optimization of §4.1); the
    context resets itself when the document changed, unless it was kept
    in sync across the splice with {!Axml_query.Eval.forget}. *)

val relevant_calls_view :
  ?relax_joins:bool ->
  ?par:Axml_query.Eval.par ->
  t ->
  Axml_doc.View.t ->
  Axml_doc.node list
(** Same, over an explicit snapshot view. *)

val retrieves : ?relax_joins:bool -> t -> Axml_doc.t -> Axml_doc.node -> bool
(** Candidate-anchored check: does the query retrieve this specific
    call of the document? (used after F-guide filtering, §6.2).
    Staged like {!Axml_query.Eval.anchored_matches}: [retrieves t]
    derives the anchored path once, to apply to many candidates. *)

val retrieves_view : ?relax_joins:bool -> t -> Axml_doc.View.t -> int -> bool
(** The same check at a view position — pure, safe to fan out over
    domains when filtering many candidates. *)

val lin_regex : t -> Axml_automata.Regex.t
(** The path language of [lin], over node labels. *)

val guide_steps : t -> (Axml_query.Pattern.axis * Axml_query.Pattern.label) list
(** [lin] extended with the function step — the linear query to run
    against an F-guide. *)

val rewrite_funs :
  t ->
  f:
    (fun_pid:int ->
    source:int ->
    [ `Keep | `Drop | `Relabel of Axml_query.Pattern.label ]) ->
  t option
(** Rewrites the tracked function nodes. Dropping empties OR branches,
    which collapse; dropping a hard (non-OR) condition or the output node
    kills the whole query ([None]). Implements both type-based refinement
    (§5) and after-layer simplification (§4.3). *)

val pp : Format.formatter -> t -> unit
