(** The lazy query evaluator: the NFQA algorithm of §4.1 with every
    refinement of the paper available as a strategy switch.

    The evaluator mutates the document in place (invoked calls are
    replaced by their results) and returns the exact snapshot result of
    the original query on the final document, together with the
    measurements the benchmarks report. *)

type relevance_mode =
  | Nfq_relevance  (** node-focused queries: exact relevant-call detection (§3.2) *)
  | Lpq_relevance  (** linear path queries: cheaper, superset (§3.1) *)

type typing_mode =
  | No_types
  | Lenient_types  (** graph-schema satisfiability (§6.1) *)
  | Exact_types  (** single-word satisfiability (§5) *)

type strategy = {
  relevance : relevance_mode;
  typing : typing_mode;
  relax_joins : bool;  (** ignore variable joins during detection (§6.1) *)
  use_fguide : bool;  (** candidates from the F-guide, then anchored checks (§6.2) *)
  layering : bool;  (** process NFQs layer by layer (§4.3) *)
  parallel : bool;  (** batch-invoke for independent NFQs (§4.4, condition ★) *)
  speculative : bool;
      (** batch-invoke even without independence — §4.4's "calling
          functions in parallel just in case": fewer rounds, possibly
          some unnecessary calls; answers are unaffected (extra calls are
          safe, Def. 4's leniency) *)
  simplify_after_layer : bool;
      (** drop the OR/() branches of finished layers from the remaining
          NFQs (§4.3) *)
  push : bool;  (** ship the optimistic [sub_q_v] with the calls (§7) *)
  containment_dedup : bool;
      (** drop relevance queries contained in another one (§4.1's
          redundant-query elimination); only applied without typing, where
          it is provably answer-preserving *)
  share_contexts : bool;
      (** share one evaluation context across the NFQs of a detection
          sweep (multi-query optimization, §4.1) *)
  materialize_results : bool;
      (** also invoke the calls remaining below answer images, so answers
          ship fully extensional instead of "possibly intensionally" (§2) *)
  match_jobs : int;
      (** fan the match/detect passes out over top-level document
          subtrees in this many chunks, run on the process-wide domain
          pool ({!Axml_exec.Exec.map_domains}) (0 = auto-detect from the
          machine, 1 = sequential); the reassembly preserves document
          order before deduplication and joins, so answers and every
          report counter are byte-identical at every level *)
  max_calls : int;
      (** invocation budget (rewritings may not terminate, §2); a fixed
          bound of 1M detection passes guards termination too *)
}

(** Named configurations compared by the benchmarks. *)

val nfqa : strategy
(** NFQ relevance, no types, layering and ★-parallelism on, no guide, no
    push, shared contexts, sequential matching; a budget of 100k calls.
    The default of {!run}. *)

val nfqa_typed : strategy
val nfqa_lenient : strategy
val lpq_only : strategy

val named : (string * strategy) list
(** Every named configuration once, under the name the CLI's
    [--strategy] takes: [nfqa], [nfqa-typed], [nfqa-lenient], [lpq]. *)

val with_fguide : strategy -> strategy
val with_push : strategy -> strategy

val with_budget : int -> strategy -> strategy
(** Tightens the strategy's invocation budget to [min b max_calls] —
    how a scheduler's summed shard budgets roll into the engine's
    global budget. *)

val with_match_jobs : int -> strategy -> strategy
(** Sets [match_jobs] — the [--match-jobs] CLI knob. *)

val run :
  ?strategy:strategy ->
  ?schema:Axml_schema.Schema.t ->
  ?obs:Axml_obs.Obs.t ->
  ?pool:Axml_exec.Exec.pool ->
  ?projector:Axml_project.Project.t ->
  ?dispatch:Axml_engine.Engine.dispatch ->
  registry:Axml_services.Registry.t ->
  Axml_query.Pattern.t ->
  Axml_doc.t ->
  Axml_engine.Engine.report
(** [run ~registry q d] finds a complete relevant rewriting of [d] for
    [q] (invoking only relevant calls, in an order compatible with the
    NFQ layers) and evaluates [q] on the result. A schema is required for
    the typing modes (silently ignored otherwise). Parallel batches are
    accounted at the cost of their slowest invocation; sequential
    invocations add up.

    Everything the analysis derives from the query alone — the
    relevance queries after containment dedup, their may-influence
    layers with each query's ★ flag, and the push NFQs — forms the
    query's {e plan}, derived once per run: the relevance queries come
    first, before any side effect on [d] (so a query they reject, one
    with OR nodes, raises [Invalid_argument] with [d] untouched), and
    one [Nfq.of_query] serves both detection and pushing. The layers and
    ★ flags are decided on one automaton per relevance query
    ({!Influence.plan}). Type refinement depends on the schema and is
    set up per run.

    [pool] (default: none) makes §4.4 parallelism real on the wall
    clock: the members of a parallel batch are dispatched concurrently
    onto the {!Axml_exec.Exec} worker pool, while document mutation and
    all accounting stay on the calling thread — answers, [invoked]
    counts and the simulated-clock charges are identical to the
    sequential evaluation at every pool width. Without a pool (or with
    [jobs = 1]) batches are invoked one by one, as before.

    [obs] (default: disabled) records the whole evaluation as a span
    tree — [eval.run] ⊃ [eval.plan] and
    [eval.layer] ⊃ [eval.pass] ⊃ [eval.detect] / [eval.push_pattern]
    (attributes [calls], [sources]) / [eval.round] ⊃ [service.invoke] ⊃
    [service.attempt] — and mirrors
    every report counter into [eval.*] metrics (identical increments, so
    [Metrics.count obs.metrics "eval.invoked"] equals [report.invoked]
    exactly, and likewise for [retries], [timeouts], [bytes],
    [backoff_seconds], [rounds], [passes], …). On the trace's simulated
    timeline, a sequentially-invoked parallel batch lays its members end
    to end, while a pooled one ends at the max-aggregated charge
    (fragments are clock-clamped as they are absorbed, see
    {!Axml_obs.Trace.absorb}); either way the aggregated (max) charge is
    the round span's [batch_cost_s] attribute.

    [dispatch] (default: straight to [Registry.invoke] on [registry])
    replaces the engine's request half — {!Axml_sched.Sched.dispatch}
    plugs sharded/replicated routing in here without the analysis
    noticing; [registry] is still consulted for push capability and
    service existence.

    The returned record is the unified {!Axml_engine.Engine.report}
    (invocation, fault and clock accounting all happen inside the
    engine's driver); serialize it with
    {!Axml_engine.Engine.report_to_json}. *)
