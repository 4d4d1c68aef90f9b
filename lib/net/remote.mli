(** Registers a remote peer's services into a local
    {!Axml_services.Registry}, making network services indistinguishable
    from simulated ones to the evaluators: [Lazy_eval] and
    [Engine.naive_run] invoke them through
    {!Axml_services.Registry.invoke} and get the registry's one retry
    loop — on the wall clock, with each attempt's socket deadline taken
    from the service's [retry_policy.attempt_timeout]. *)

val register :
  ?names:string list ->
  ?retry:Axml_services.Registry.retry_policy ->
  ?memoize:bool ->
  registry:Axml_services.Registry.t ->
  Client.t ->
  string list
(** [register ~registry client] asks the peer what it serves (the
    {!Wire.Welcome} service list) and registers each service as a remote
    entry backed by {!Client.call}. Returns the registered names.

    [names] restricts registration to a subset (unknown names raise
    [Invalid_argument]). [retry] overrides the default policy — its
    [attempt_timeout] becomes the per-attempt socket deadline. [memoize]
    (default [true]) caches un-pushed responses locally exactly as local
    services do; pushed (pruned) responses are never cached. A service
    the peer does not advertise as push-capable is registered with
    [push_capable = false], so the evaluator falls back to client-side
    pruning for it. *)
