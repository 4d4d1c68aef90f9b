(** The distributed layer scheduler: service sharding, replica load
    balancing and adaptive cost-model routing.

    A scheduler spans a set of {e shards} — each a
    {!Axml_services.Registry} (in-process or fronting a remote peer via
    {!Axml_net.Remote}) with an optional static service assignment, a
    per-shard call budget, a concurrency limit and a cost prior. It
    plugs into the engine's request half as an
    {!Axml_engine.Engine.dispatch}: for every call the engine makes, the
    scheduler picks the shard to serve it, and everything else — §4.4
    batching, splicing, Max/Sum accounting, the retry loop, fault draws,
    memoization — happens exactly where it always did. Sharded
    evaluation therefore produces the same answers, the same [invoked]
    count and the same fault fates as unsharded evaluation, at every
    [--jobs] level.

    Placement is cost-model-driven in the shape of Mukhopadhyay et al.,
    "Query Optimization Over Web Services Using A Mixed Approach": a
    static prior per shard, refined online by an EWMA over observed
    per-call costs and by the p95 of a latency histogram from the run's
    {!Axml_obs.Metrics} registry: the [sched.replica_cost] histogram
    the scheduler itself feeds, or — when the scheduler has not routed
    through that shard yet — the per-service [service.cost] histogram
    the registry records for {e every} invocation, so traffic served
    before this scheduler existed (retries, prior evaluations, other
    schedulers) still seeds the estimate. Both histograms fall back in
    the same p95 → p50 → static-prior order. {!Adaptive} mode charges
    each candidate
    [(inflight + 1) × estimated_cost] and takes the cheapest (ties to
    the earliest shard), so a skewed replica set drains through the fast
    peer without starving the slow one; {!Round_robin} ignores cost and
    rotates.

    Failures degrade in layers: a call that exhausts its retry loop on a
    {e remote} shard is re-routed to the next replica (its defeat's
    bytes/retries/backoff summed into the final invocation, the event
    counted in the report's [rerouted_calls]); local shards are not
    re-routed — an identical local replica would draw the identical
    seeded fate. When every owner's budget is spent, further calls on
    the name fail immediately as budget-exhausted invocations and the
    evaluation degrades to [complete = false], exactly like retry
    exhaustion.

    Thread-safe: dispatch may run concurrently from
    {!Axml_exec.Exec} pool workers; when a shard's [slots] are all in
    flight, dispatch blocks until one frees. *)

type mode =
  | Round_robin  (** rotate over eligible shards, cost-blind *)
  | Adaptive  (** least-loaded-first on the estimated cost (default) *)

type spec
(** One shard declaration: an id, a registry, and the routing limits. *)

val spec :
  ?services:string list ->
  ?budget:int ->
  ?slots:int ->
  ?static_cost:float ->
  id:string ->
  Axml_services.Registry.t ->
  spec
(** [services] (default: everything the registry serves) statically
    assigns ownership: the shard only serves the listed names. [budget]
    (default: unbounded) caps the calls this shard may serve across the
    evaluation. [slots] (default: unbounded) caps concurrent in-flight
    calls — the capacity term the adaptive score reacts to. [static_cost]
    (default: {!Axml_services.Registry.default_cost}'s latency) is the
    cost prior used until observations exist. Raises [Invalid_argument]
    on a negative budget or a non-positive slot count. *)

type t

val create : ?mode:mode -> spec list -> t
(** Raises [Invalid_argument] on an empty list or duplicate ids.
    Declaration order matters: the first budgeted owner of a name is its
    default placement, and score ties resolve to the earliest shard. *)

val dispatch : t -> Axml_engine.Engine.dispatch
(** The pluggable request half: pass to
    {!Axml_engine.Engine.create}/{!Axml_core.Lazy_eval.run} as
    [~dispatch]. Raises [Registry.Unknown_service] when no shard owns
    the name, and [Registry.Service_failure] when every eligible replica
    was defeated or every owner's budget is spent. *)

val total_budget : t -> int option
(** The summed per-shard budgets when {e every} shard is bounded —
    roll this into the engine's [max_calls] — or [None] as soon as one
    shard is unbounded. *)

val shard_ids : t -> string list

val dispatched : t -> (string * int) list
(** Calls started per shard (successful or not), by shard id. *)

val rebalanced : t -> int
(** Placements that went somewhere other than the default (first
    budgeted owner) — the balancer actually moving load. *)

val rerouted : t -> int
(** Failed-replica defeats salvaged by re-routing to another replica. *)
