(** [axmld]: serve a {!Axml_services.Registry} to remote AXML peers.

    The server binds a TCP socket and drives {e every} connection from
    one event-loop thread (epoll on Linux, [Unix.select] elsewhere —
    see {!Evloop}): non-blocking accept, per-connection read/write
    state machines assembling frames incrementally, no thread or
    per-frame buffer per connection — which is what lets one server
    hold thousands of concurrent peers. Decoded requests are handed to
    a bounded {!Axml_exec.Exec} pool; replies come back to the loop
    through a completion queue and a self-pipe, and are flushed as the
    socket accepts them. A connection with a request in flight has its
    read interest parked, which applies backpressure and preserves the
    strict in-order request/response contract of the wire protocol.

    Each connection is handshaken ({!Wire.Hello}/{!Wire.Welcome}, exact
    version match, always in JSON); when both sides advertise
    {!Wire.cap_binary}, replies switch to the binary codec. The server
    then serves {!Wire.Invoke} requests by calling
    {!Axml_services.Registry.invoke} on the served registry — the
    witnesses of pushed [sub_q_v] patterns are marked provider-side
    through exactly the same {!Axml_services.Witness.prune} path as
    in-process pushing (linear in pattern × result, no embedding is
    enumerated), and
    the served registry's own fault schedules, retry policies and
    memoization all apply (a flaky spec makes the {e server} retry its
    simulated backends; when its budget runs out the client receives
    {!Wire.Degraded}). Service calls are all a peer serves: a request
    other than {!Wire.Invoke} after the handshake closes the connection
    with a protocol error, so the untrusted input a server decodes is
    the invoke parameters and pushed patterns (each frame capped at
    {!Wire.max_frame}, their nesting at {!Wire.max_depth}).

    On a connection where both ends advertised {!Wire.cap_push_reuse},
    the server keeps the decoded pattern of the last {!Wire.Invoke} that
    carried one, and serves a {!Wire.Invoke_same_push} with it, so a
    reused pattern is never decoded again and the registry sees the same
    call as if the pattern had been sent. The slot is set on the event
    loop, which already handles a connection's frames one at a time, so
    it needs no lock. A marker on a connection with an empty slot gets a
    non-transient {!Wire.Error} reply, and the connection keeps serving.

    On a binary connection where both ends advertised {!Wire.cap_labels},
    the server also keeps the connection's two label tables: requests
    are decoded through the incoming one, in arrival order, and replies
    encoded through the outgoing one on the event loop, in completion
    order. A connection has at most one request at a worker, so neither
    table needs a lock. Each table holds at most {!Wire.max_labels}
    strings of at most {!Wire.max_label_bytes} bytes, so a hostile peer
    cannot grow it further; a reference past its end is a protocol error
    that closes that connection only. A reply that fails to encode (over
    {!Wire.max_frame}) leaves the outgoing table as it was, so the error
    frame sent in its place stays in step.

    Requests from different connections run {e concurrently} on the
    worker pool: the registry and the observability sinks are
    thread-safe, so no lock is held around behavior execution. Fault
    draws are keyed by the logical call
    ({!Axml_services.Faults.invocation_key}), so a seeded schedule
    produces the same fates regardless of how connections interleave. *)

type t

val create :
  ?host:string ->
  ?port:int ->
  ?obs:Axml_obs.Obs.t ->
  ?caps:string list ->
  ?delay:float ->
  ?jitter:float ->
  ?jitter_seed:int ->
  ?workers:int ->
  ?max_conns:int ->
  ?force_select:bool ->
  registry:Axml_services.Registry.t ->
  unit ->
  t
(** Binds and listens. [host] defaults to ["127.0.0.1"], [port] to [0]
    (an ephemeral port — read it back with {!port}). [obs] (default
    disabled) records one [net.serve] span per request, with the
    registry's [service.*] spans and metrics nested inside; each request
    records into a private trace fragment ({!Axml_obs.Obs.fork}) folded
    back on completion, so concurrent requests keep the span tree
    well-formed. [caps] (default
    [[Wire.cap_shard; Wire.cap_binary; Wire.cap_push_reuse; Wire.cap_labels]])
    is what {!Wire.Welcome} advertises — pass [[]] to emulate a
    pre-capability peer in tests, or leave out {!Wire.cap_push_reuse} or
    {!Wire.cap_labels} to emulate a peer without the pattern slot or the
    label tables. [delay] (default [0.0]) injects that
    many seconds of {e real} latency ([Unix.sleepf]) before serving each
    invoke request —
    the knob behind [axml serve --latency] and the E9 speedup benchmark.
    [jitter] (default [0.0]) adds a further uniform draw from
    [\[0, jitter)] seconds per request, from a [Random.State] seeded
    with [jitter_seed] (default [0]) — the heterogeneous-replica knob
    behind [axml serve --latency-jitter]; the distribution is
    reproducible per seed, but which request gets which draw depends on
    arrival order. [workers] (default 32) is how many requests execute
    concurrently — workers spend their time in service sleeps and
    injected latency, so they are cheap; connections beyond that merely
    queue. [max_conns] (default 8192) caps concurrent connections: at
    the cap the listener's read interest is parked (the backlog, not a
    reset, absorbs the burst) and accepting resumes as connections
    close. [force_select] (default false) pins the event loop to the
    portable select backend even where epoll is available — a test
    knob; select caps fd {e values} at 1024, so high [max_conns] needs
    epoll. Raises [Unix.Unix_error] when the address cannot be bound. *)

val port : t -> int
(** The actual bound port (useful after [~port:0]). *)

val host : t -> string

val start : t -> unit
(** Spawns the event loop on a background thread and returns. *)

val run : t -> unit
(** Runs the event loop in the calling thread (the [axml serve]
    foreground mode); returns after {!stop}. *)

val stop : t -> unit
(** Stops accepting (the listening socket closes synchronously, so new
    connections are refused from this point on), shuts down every live
    connection, waits for the event loop if {!start} spawned it, and
    joins the worker pool. Idempotent. Must not be called from a
    request handler. *)

val kill_after_reply : t -> unit
(** Test hook for degradation experiments: after the next reply is
    flushed, the server stops exactly as {!stop} does — the client sees
    one successful response and then a dead peer, deterministically
    "mid-run". *)
