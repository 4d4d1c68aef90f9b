(** The unified evaluation runtime.

    Both evaluation strategies — naive materialization (§1 of the paper,
    {!naive_run}) and the NFQA lazy evaluator (§4,
    {!Axml_core.Lazy_eval.run}) — are loops that pick batches of pending
    calls; the engine owns everything below that choice:

    - the single {!report} record and its {!report_to_json} wire format;
    - the invocation driver: the thread-safe request half against
      {!Axml_services.Registry.invoke} (optionally dispatched on an
      {!Axml_exec.Exec} worker pool), and the sequential in-order apply
      half — document splicing, counters, and the strategy's
      {!on_replace} hook;
    - the §4.4 whole-batch-fits-budget pooling guard: a batch is only
      dispatched concurrently when it fits the remaining call budget in
      full, so the budget cuts at the same call at every [--jobs] level;
    - failed-call tombstones and graceful-degradation accounting — a
      call whose retry budget is exhausted stays in the document as an
      unexpanded function node, is never re-attempted, and only costs
      bindings (Def. 4's leniency), never fabricates them;
    - all [eval.*] span and metric emission, so the report ≡ metrics ≡
      trace reconciliation invariant lives in exactly one place.

    Future strategies (sharded registries, result caching, alternate
    backends) plug into the same driver instead of growing a third
    runtime. *)

(** {2 The one report} *)

(** The single evaluation report, shared by every strategy. Fields a
    strategy does not use stay at zero: naive runs report [pushed],
    [passes], [relevance_evals], [candidates_checked], [layer_count] and
    [analysis_seconds] as 0. *)
type report = {
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
          query (layers, ★ flags, push checks) *)
  bytes_transferred : int;
  retries : int;  (** retried service attempts, summed over invocations *)
  timeouts : int;  (** attempts classified as timeouts *)
  failed_calls : int;
      (** calls whose retry budget was exhausted; each stays in the
          document as an unexpanded function node *)
  backoff_seconds : float;  (** simulated seconds spent backing off *)
  full_nodes : int;
      (** nodes handed to the projector (initial document plus every
          spliced result forest); 0 when no projector is attached *)
  projected_nodes : int;  (** nodes surviving projection; 0 without one *)
  projected_bytes_saved : int;
      (** serialized XML bytes of the subtrees projection dropped *)
  sharded_calls : int;
      (** successful calls placed on a named shard by a scheduler
          dispatch; 0 when dispatch goes straight to the registry *)
  rebalanced_calls : int;
      (** calls the replica balancer placed somewhere other than the
          first eligible shard (load- or cost-driven moves) *)
  rerouted_calls : int;
      (** failed-replica attempts salvaged by re-routing to another
          replica before degrading to [complete = false] *)
  view_rebuild_nodes : int;
      (** snapshot-view nodes (re)indexed after {!create}'s initial
          build: the spliced-region patches of
          {!Axml_doc.replace_call} plus any full rebuilds forced by
          out-of-band edits — the cost of keeping the pure view current *)
  parallel_match_batches : int;
      (** intra-document parallel match/detect dispatches performed by
          the strategy ({!Axml_query.Eval.par_batches}); 0 when matching
          ran sequentially *)
  complete : bool;
      (** the evaluation finished within budget and no call permanently
          failed: the answers are the full snapshot result. When [false]
          because of failures, the answers are still sound — a subset of
          the full result (missing data only loses bindings). *)
}

val report_to_json : report -> Axml_obs.Json.t
(** The full report as JSON — the [--report-json] and peer wire format:
    answer tuples (variable bindings plus result XML) and every counter. *)

(** {2 Call helpers} *)

val call_params : Axml_doc.node -> Axml_xml.Tree.forest
(** A call's parameter forest, serialized (nested calls included as
    [<axml:call>] elements). *)

val call_name_exn : Axml_doc.node -> string
(** Raises [Invalid_argument] on data nodes. *)

(** {2 Routing} *)

type route = {
  shard : string option;  (** the shard the call was placed on, if any *)
  rebalanced : bool;  (** placed off the first eligible shard *)
  rerouted : int;  (** failed replica attempts salvaged en route *)
}
(** Where a dispatch actually sent a call. The registry-direct default
    reports {!no_route}; {!Axml_sched.Sched} reports its placement so
    the engine can account [sharded_calls] / [rebalanced_calls] /
    [rerouted_calls] without knowing the scheduler exists. *)

val no_route : route

type dispatch =
  name:string ->
  params:Axml_xml.Tree.forest ->
  ?push:Axml_query.Pattern.node ->
  obs:Axml_obs.Obs.t ->
  unit ->
  Axml_xml.Tree.forest * Axml_services.Registry.invocation * route
(** The pluggable request half: same contract as
    {!Axml_services.Registry.invoke} (raises
    [Registry.Service_failure inv] after retry exhaustion, must be
    thread-safe — the engine calls it from pool workers), plus the
    {!route} it chose. *)

(** {2 The invocation driver} *)

type t
(** One evaluation in progress: the document being rewritten, the
    registry it draws from, tombstones, every counter, and the obs
    sinks. Not thread-safe — drive it from one coordinating thread; the
    engine itself fans requests out to the pool. *)

(** How a round charges the simulated clock: a parallel batch costs its
    slowest member ([Max], §4.4), sequential invocations add up
    ([Sum]). Only [Max] rounds are eligible for pool dispatch. *)
type accounting = Max | Sum

val create :
  ?max_calls:int ->
  ?pool:Axml_exec.Exec.pool ->
  ?obs:Axml_obs.Obs.t ->
  ?projector:Axml_project.Project.t ->
  ?dispatch:dispatch ->
  Axml_services.Registry.t ->
  Axml_doc.t ->
  t
(** [max_calls] defaults to 100k; [obs] to disabled. Builds the initial
    snapshot view (so later splices patch it incrementally) and records
    the [view_rebuild_nodes] baseline. [projector] (default: none)
    projects the document in place before the strategy sees it, and
    projects every service-result forest {e before} it is spliced
    ({!Axml_project.Project.spliced_forest}) — so strategies only ever
    observe the projected document, and the view patch stays valid —
    accumulating the [full_nodes] /
    [projected_nodes] / [projected_bytes_saved] report fields.
    [dispatch] (default: straight to [Registry.invoke] on the given
    registry) replaces the request half — this is where a scheduler
    plugs in routing without touching any strategy. *)

val on_replace :
  t -> (parent:Axml_doc.node -> invoked:Axml_doc.node -> added:Axml_doc.node list -> unit) -> unit
(** Strategy hook run after each successful splice, on the coordinating
    thread, before the counters. [parent] is the splice point — the node
    the invoked call was a child of, which [invoked] no longer points to
    — so an empty [added] forest (a plain deletion) still says where the
    document changed. The lazy evaluator keeps its shared evaluation
    context in sync ({!Axml_query.Eval.forget}), maintains the F-guide
    and scans the added nodes for new function names here. Default:
    nothing. *)

val round :
  ?attrs:(string * Axml_obs.Trace.attr) list ->
  ?push:Axml_query.Pattern.node ->
  accounting:accounting ->
  t ->
  Axml_doc.node list ->
  float
(** One invocation round: bumps the round counters, wraps the batch in
    an [eval.round] span carrying [attrs] (closed with its
    [batch_cost_s]), invokes every call (concurrently when a pool is
    attached, the accounting is [Max], the batch has at least two calls
    and fits the remaining budget in full), charges the simulated clock
    and returns the batch cost. Calls reached with the budget exhausted
    are skipped and set {!budget_hit}. [push] ships the optimistic
    subquery with every call of the round (§7). *)

val invoked : t -> int
val failed_calls : t -> int
val permanently_failed : t -> int -> bool
(** Whether the node with this id is a failed-call tombstone — excluded
    from future batches by every strategy. *)

val budget_hit : t -> bool
(** A call was skipped because [max_calls] was already spent. *)

val simulated_seconds : t -> float

val finish :
  ?passes:int ->
  ?relevance_evals:int ->
  ?candidates_checked:int ->
  ?layer_count:int ->
  ?analysis_seconds:float ->
  ?parallel_match_batches:int ->
  t ->
  root:Axml_obs.Trace.span ->
  answers:Axml_query.Eval.binding list ->
  budget_ok:bool ->
  report
(** Emits the final gauges ([eval.answers], [eval.complete],
    [eval.view_rebuild_nodes], [eval.parallel_match_batches],
    [eval.simulated_seconds], plus [eval.layer_count] /
    [eval.analysis_seconds] when given), closes the strategy's [root]
    span with the summary attributes, and assembles the report.
    [complete] is [budget_ok] and no tombstones; [view_rebuild_nodes] is
    computed by the engine ({!Axml_doc.view_indexed_total} differenced
    against {!create}'s baseline). The optional analysis fields are the
    strategy's own counters; absent ones report zero (and [passes] is
    also omitted from the root span's attributes, matching the
    strategies that never sweep). *)

(** {2 The naive strategy}

    §1's baseline as a degenerate engine client: every visible call is
    relevant, one round per fixpoint iteration, until no visible call
    remains or the budget cuts. With [parallel] (default), each round is
    one [Max]-accounted batch (pool-eligible); otherwise costs add up
    sequentially. *)

val naive_run :
  ?max_calls:int ->
  ?parallel:bool ->
  ?pool:Axml_exec.Exec.pool ->
  ?obs:Axml_obs.Obs.t ->
  ?projector:Axml_project.Project.t ->
  ?dispatch:dispatch ->
  Axml_services.Registry.t ->
  Axml_query.Pattern.t ->
  Axml_doc.t ->
  report
