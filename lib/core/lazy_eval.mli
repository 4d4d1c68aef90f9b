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
          subtrees on this many domains (0 = auto-detect from the
          machine, 1 = sequential); the reassembly preserves document
          order before deduplication and joins, so answers and every
          report counter are byte-identical at every level *)
  max_calls : int;  (** invocation budget (rewritings may not terminate, §2) *)
  max_passes : int;
}

val default : strategy
(** NFQ relevance, no types, layering and ★-parallelism on, no guide, no
    push; budgets of 100k calls / 1M passes. *)

(** Named configurations compared by the benchmarks. *)

val nfqa : strategy
val nfqa_typed : strategy
val nfqa_lenient : strategy
val lpq_only : strategy
val with_fguide : strategy -> strategy
val with_push : strategy -> strategy

val with_budget : int -> strategy -> strategy
(** Tightens the strategy's invocation budget to [min b max_calls] —
    how a scheduler's summed shard budgets roll into the engine's
    global budget. *)

val with_match_jobs : int -> strategy -> strategy
(** Sets [match_jobs] — the [--match-jobs] CLI knob. *)

type report = Axml_engine.Engine.report = {
  answers : Axml_query.Eval.binding list;
  invoked : int;
  pushed : int;
  rounds : int;  (** invocation rounds (batches or single calls) *)
  passes : int;  (** full evaluation sweeps over a layer *)
  relevance_evals : int;  (** NFQ/LPQ evaluations performed *)
  candidates_checked : int;  (** F-guide candidates filtered *)
  layer_count : int;
  simulated_seconds : float;  (** service latency + transfer, aggregated *)
  analysis_seconds : float;
      (** CPU time spent detecting relevant calls and planning the
          query (containment dedup, layers, ★ flags, push checks); the
          [Nfq]/[Lpq] construction itself is not counted *)
  bytes_transferred : int;
  retries : int;  (** retried service attempts, summed over invocations *)
  timeouts : int;  (** attempts classified as timeouts *)
  failed_calls : int;
      (** relevant calls whose retry budget was exhausted; each stays in
          the document as an unexpanded function node *)
  backoff_seconds : float;  (** simulated seconds spent backing off *)
  full_nodes : int;  (** nodes handed to the projector; 0 without one *)
  projected_nodes : int;  (** nodes surviving projection; 0 without one *)
  projected_bytes_saved : int;
      (** serialized XML bytes of the subtrees projection dropped *)
  sharded_calls : int;
      (** successful calls placed on a named shard by a scheduler
          dispatch; 0 when dispatch goes straight to the registry *)
  rebalanced_calls : int;
      (** calls the replica balancer placed somewhere other than the
          first eligible shard *)
  rerouted_calls : int;
      (** failed-replica attempts salvaged by re-routing to another
          replica *)
  view_rebuild_nodes : int;
      (** snapshot-view nodes (re)indexed after the engine's initial
          build — the incremental splice patches keeping the pure view
          current *)
  parallel_match_batches : int;
      (** intra-document parallel match/detect dispatches
          ([match_jobs > 1]); 0 when matching ran sequentially *)
  complete : bool;
      (** the document is complete for the query (Def. 3): every relevant
          call was expanded within budget and none permanently failed.
          When [false] because of failures, the answers are still sound —
          a subset of the full snapshot result (Def. 4's leniency: missing
          data only loses bindings, never fabricates them). *)
}

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
  report
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
