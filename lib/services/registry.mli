(** Simulated Web services.

    The paper's experiments run against real SOAP endpoints; here services
    are in-process OCaml functions with a deterministic cost model, so the
    quantities the paper's evaluation depends on — how many calls were
    invoked, how many bytes crossed the wire, how long invocation would
    have taken — are measured exactly and reproducibly.

    A service's {e cost} for one invocation is
    [latency + per_byte * (request_bytes + response_bytes)] (seconds on
    the simulated clock). Callers invoking a batch in parallel account the
    batch as the {e max} of its invocation costs; sequential invocations
    add up. That aggregation is done by the evaluator, not here.

    Real endpoints also fail: each service may carry a seeded
    {!Faults.schedule}, and every non-cached invocation runs the one retry
    loop of {!invoke}, governed by a {!retry_policy} — failed attempts are
    retried after exponential backoff until one succeeds, a fatal error
    ends it, or the budget is exhausted, in which case {!Service_failure}
    carries the invocation record of the defeat. The provider supplies
    only the attempt and picks the clock: a local behaviour is charged on
    the simulated clock, a remote transport (see {!section-remote}) is
    measured on the wall clock and its backoff really sleeps.

    Services may return forests containing further [<axml:call>] nodes —
    this is what makes relevance detection "a continuous process" (§1).

    {b Thread-safety.} {!invoke} may be called concurrently from worker
    threads (the {!Axml_exec} pool, the {!Axml_net.Server} connection
    handlers): the invocation history and the memo caches are guarded by
    an internal mutex, and fault draws are keyed by the logical call
    ({!Faults.invocation_key} of the serialized parameters plus the
    retry index) rather than by a shared cursor, so seeded schedules are
    reproducible at any concurrency level. Registration and fault/policy
    installation are {e not} synchronized with invocation — complete
    setup before invoking concurrently. Memoization is single-flight:
    the first of several identical concurrent calls claims the cache
    slot and computes; the duplicates block until it resolves and then
    answer from the cache (one full-cost invocation plus hits, exactly
    as in a sequential run). If the filler fails — or could only
    produce a push-pruned, uncacheable response — one waiter takes over
    as the next filler. *)

type behavior = Axml_xml.Tree.forest -> Axml_xml.Tree.forest
(** Maps the call's parameter forest to its result forest. *)

type cost_model = {
  latency : float;  (** seconds per invocation *)
  per_byte : float;  (** seconds per transferred byte *)
}

val default_cost : cost_model
(** 50 ms latency, 1 µs/byte — a slow 2004-era Web service. The
    per-byte term alone amounts to ≈ 1 MB/s of payload throughput; the
    {e effective} throughput is lower because the 50 ms latency is paid
    on top of it once per attempt (e.g. a 50 kB transfer takes
    0.05 s + 0.05 s = 0.1 s, i.e. ≈ 0.5 MB/s). The bytes charged per
    attempt are the request {e and} the response serialization
    ({!Axml_xml.Print.forest_byte_size} of each): the request ships
    again on every retry, the response is only charged on the attempt
    that succeeds. *)

type retry_policy = {
  max_retries : int;  (** additional attempts after the first *)
  base_backoff : float;  (** simulated seconds before the first retry *)
  backoff_factor : float;  (** exponential multiplier per further retry *)
  max_backoff : float;  (** backoff cap, seconds *)
  attempt_timeout : float;
      (** per-attempt budget: an attempt whose total duration (latency +
          injected delay + transfer) would exceed it is abandoned at the
          budget and classified as a timeout. [infinity] = wait forever. *)
}

val default_policy : retry_policy
(** 3 retries, 0.1 s base backoff doubling up to 2 s, no attempt
    timeout. *)

val backoff_before : retry_policy -> retry:int -> float
(** The wait inserted before retry number [retry]:
    [min max_backoff (base_backoff * backoff_factor^(retry-1))].

    {b [retry] is 1-based}: the first {e retry} (i.e. the second wire
    attempt) is number 1 and waits [base_backoff]; each further retry
    multiplies the wait by [backoff_factor] (which need not be an
    integer) until [max_backoff] clamps it. [retry <= 0] — the first
    attempt, which is not a retry — waits [0.0]. *)

type invocation = {
  service : string;
  request_bytes : int;
      (** bytes sent over all attempts: the request ships again on every
          retry *)
  response_bytes : int;
      (** bytes received over all attempts; a lost local attempt receives
          none *)
  cost : float;
      (** seconds on the provider's clock: every attempt's duration plus
          all backoff *)
  pushed : bool;  (** a subquery was evaluated provider-side *)
  cached : bool;  (** answered from the client-side result cache *)
  retries : int;  (** attempts beyond the first (all of them failed) *)
  timeouts : int;  (** attempts classified as timeouts *)
  backoff_seconds : float;  (** seconds spent backing off *)
  failed : bool;  (** the retry budget was exhausted; no result *)
}

(** {2:remote Remote transports}

    A service may live behind a real wire instead of an in-process
    closure: a {!transport} performs one {e attempt} against a remote
    provider and reports what actually crossed the wire. {!invoke} runs
    the same retry loop for both kinds, but for remote services the
    clock is real — [attempt_timeout] becomes a socket deadline, the
    exponential backoff actually sleeps, [cost] is measured wall-clock
    seconds instead of cost-model arithmetic, and only a [transient]
    error is retried. Only local services carry a cost model and a
    fault schedule: a remote service has neither, since real networks
    inject their own faults ({!Transport_error}). See {!Axml_net} for
    the TCP implementation. *)

type wire = {
  sent : int;  (** bytes put on the wire for this attempt (framing included) *)
  received : int;  (** bytes read off the wire for this attempt *)
  served_push : bool;  (** the provider applied the pushed pattern *)
  elapsed : float;  (** measured wall-clock seconds for this attempt *)
}

exception Transport_error of {
  wire : wire;  (** what the failed attempt still cost *)
  transient : bool;
      (** worth retrying: connection refused/reset, timeout. Permanent
          protocol errors (version mismatch, unknown service, provider
          degradation) fail the invocation immediately. *)
  timeout : bool;  (** the attempt hit its socket deadline *)
  reason : string;
}

type transport =
  name:string ->
  params:Axml_xml.Tree.forest ->
  push:Axml_query.Pattern.node option ->
  timeout:float ->
  obs:Axml_obs.Obs.t ->
  Axml_xml.Tree.forest * wire
(** One wire attempt. [timeout] is the per-attempt budget in real
    seconds ([infinity] = none); [push] is only passed for push-capable
    services. Raises {!Transport_error} on failure. *)

type t

exception Unknown_service of string

exception Service_failure of invocation
(** Raised by {!invoke} when every attempt failed. The invocation (also
    appended to the history) accounts the full cost of the defeat. *)

val create : unit -> t

val register :
  t ->
  name:string ->
  ?cost:cost_model ->
  ?push_capable:bool ->
  ?memoize:bool ->
  ?faults:Faults.schedule ->
  ?retry:retry_policy ->
  behavior ->
  unit
(** [push_capable] defaults to [true]: the provider accepts pushed
    subqueries (§7 notes that capability must be checked per source).
    [memoize] (default [false]) caches full results client-side, keyed by
    the serialized parameters: repeated identical calls cost nothing —
    the caching the ActiveXML system applies to deterministic services.
    Pushing still prunes per call from the cached full result.
    [faults] (default none) is the service's fault schedule and [retry]
    its policy; raises [Invalid_argument] on an invalid schedule. *)

val register_remote :
  t ->
  name:string ->
  ?push_capable:bool ->
  ?memoize:bool ->
  ?retry:retry_policy ->
  transport ->
  unit
(** Registers a service served by a remote provider. [push_capable]
    (default [true]) should mirror what the provider's handshake
    advertises — pushing to an incapable provider would silently ship
    full results. [memoize] caches full (un-pushed) results client-side
    exactly like local memoization; pushed responses are never cached
    (they are pruned, caching them would poison later calls).
    [retry] defaults to {!default_policy}; its backoff is slept for
    real, so remote registrations usually want a smaller
    [base_backoff]. *)

val is_registered : t -> string -> bool
val names : t -> string list

val is_remote : t -> string -> bool
(** Raises {!Unknown_service}. *)

val push_capable : t -> string -> bool
(** Whether the provider accepts pushed subqueries — what a serving
    peer advertises in its handshake. Raises {!Unknown_service}. *)

val set_fault_seed : t -> int -> unit
(** The seed keying every service's fault schedule (default 0). *)

val inject_faults : t -> ?seed:int -> Faults.schedule -> unit
(** Installs the schedule on every currently registered local service —
    the bench/CLI "--fault-rate" knob. Remote services are skipped:
    their faults come off the wire. Raises [Invalid_argument] on an
    invalid schedule. *)

val set_retry_policy : t -> retry_policy -> unit
(** Installs the policy on every currently registered service. *)

val fault_schedule : t -> string -> Faults.schedule
(** The service's current schedule; [[]] for a remote service. Raises
    {!Unknown_service}. *)

val retry_policy : t -> string -> retry_policy
(** The service's current policy. Raises {!Unknown_service}. *)

val invoke :
  t ->
  name:string ->
  params:Axml_xml.Tree.forest ->
  ?push:Axml_query.Pattern.node ->
  ?obs:Axml_obs.Obs.t ->
  unit ->
  Axml_xml.Tree.forest * invocation
(** Invokes the service, retrying per its policy when its fault schedule
    makes attempts fail. With [push] and a push-capable provider, the
    result is pruned provider-side to the witnesses of the pushed pattern
    ({!Witness.prune}) and [response_bytes] counts the pruned forest;
    otherwise the full result ships. A cache hit on a memoized service
    answers locally and is never exposed to faults. Raises
    {!Unknown_service} on unknown names and {!Service_failure} when the
    retry budget is exhausted.

    [obs] (default: disabled) records one [service.invoke] span per
    invocation with one [service.attempt] child per attempt (carrying
    retry index, outcome — [ok], [transient], [timeout] or [fatal] — and
    the duration on the provider's clock: [sim_s] local, [wire_s] remote)
    and a [service.backoff] instant per wait, advancing the tracer's
    simulated clock as it goes; per-service [service.*] counters and the
    [service.cost] latency histogram land in [obs]'s metrics registry. *)

(** {2 Accounting} *)

val history : t -> invocation list
(** All invocations, oldest first — permanently failed ones included. *)

val invocation_count : t -> int
val total_bytes : t -> int

val total_retries : t -> int
val total_timeouts : t -> int
val total_backoff : t -> float
val failed_count : t -> int

val fault_exposures : t -> int
(** Attempts that drew a fault: one per retried attempt plus one for
    each permanent failure's final attempt. The E7 degradation metric —
    fewer calls ⇒ fewer exposures. *)

val reset_history : t -> unit
