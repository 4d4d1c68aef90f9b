(** The observability hook handed down through the evaluators and the
    service registry: one tracer plus one metrics registry.

    Instrumented entry points ({!Axml_services.Registry.invoke},
    {!Axml_core.Lazy_eval.run}, {!Axml_engine.Engine.naive_run}) take
    [?obs:Obs.t] defaulting to {!null}, whose components are both
    disabled — every recording call is a single branch, so the
    instrumentation is free when nobody is watching. *)

type t = {
  trace : Trace.t;
  metrics : Metrics.t;
}

val null : t
(** Both components disabled. The default everywhere. *)

val create : ?clock:(unit -> float) -> unit -> t
(** Both components enabled. [clock] feeds the tracer's wall clock
    (default [Unix.gettimeofday]; tests inject a fake). *)

val measuring : unit -> t
(** Metrics only; tracer stays disabled. *)

val enabled : t -> bool
(** At least one component is live — the guard for any work beyond a
    plain recording call (building attribute lists, formatting). *)

val fork : t -> t
(** The hook to hand one member of a concurrent batch: the metrics
    registry is shared (it is mutex-guarded and its counters commute),
    the tracer is replaced by a private {!Trace.fragment} so concurrent
    spans cannot interleave on the parent's span stack. [fork null] is
    [null]. *)

val join : t -> t -> unit
(** [join parent child] absorbs the child's trace fragment back into
    the parent ({!Trace.absorb}); call it sequentially, in batch input
    order, after the worker finished. No-op when {!fork} returned the
    parent unchanged. *)
