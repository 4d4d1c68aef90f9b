(** TCP client for AXML peers: a bounded connection pool plus the one
    request primitive, a service call ({!Wire.Invoke}), that the
    {!Remote} transport is built on.

    Connections are created lazily, handshaken on connect
    ({!Wire.Hello}/{!Wire.Welcome}) and returned to a bounded idle pool
    after each successful exchange. A borrowed connection is
    health-checked first: an idle socket that polls readable is either
    at EOF or carries stray bytes — both mean it is unusable for a
    request/response exchange, so it is discarded and a fresh connection
    is dialed. Connections that fail mid-request are never returned.

    Every wire interaction is observable: [net.request] spans (one per
    attempt, nested under the registry's [service.attempt] when called
    through {!Remote}), and [net.connects] / [net.reuses] /
    [net.stale_drops] / [net.requests] / [net.request_bytes] /
    [net.response_bytes] / [net.timeouts] / [net.errors] counters. *)

type t

val create :
  ?pool_size:int ->
  ?connect_timeout:float ->
  ?wire:[ `Auto | `Json ] ->
  host:string ->
  port:int ->
  unit ->
  t
(** No I/O happens until the first call. [pool_size] (default 4) bounds
    the {e idle} connections kept for reuse; [connect_timeout] (default
    10 s) is the socket deadline for the dial + handshake. [wire]
    (default [`Auto]) selects the frame codec: [`Auto] advertises
    {!Wire.cap_binary}, {!Wire.cap_push_reuse} and {!Wire.cap_labels}
    in the handshake and uses each on connections whose server
    advertised it too (falling back to JSON, full patterns and labels
    spelled in full against older peers); [`Json] advertises none of
    them, pinning every frame to JSON exactly as before any existed —
    the [axml --wire json] escape hatch. Each pooled connection keeps
    its own scratch buffers, so a warm connection allocates no fresh
    frame buffers per request; on a binary connection that negotiated
    {!Wire.cap_labels}, the scratch also holds the connection's two
    label tables, which bound at {!Wire.max_labels} entries of at most
    {!Wire.max_label_bytes} bytes each. *)

val host : t -> string
val port : t -> int

val capabilities : t -> string list
(** The capabilities the server advertised in its {!Wire.Welcome} —
    [[]] until a connection has been handshaken (and for pre-capability
    peers, which advertise none). *)

val services : t -> ?obs:Axml_obs.Obs.t -> unit -> Wire.service_info list
(** The service list the server advertised in its {!Wire.Welcome} —
    dials a connection if none was established yet. Raises
    {!Axml_services.Registry.Transport_error} when the peer cannot be
    reached or speaks another protocol version. *)

val call :
  t ->
  obs:Axml_obs.Obs.t ->
  timeout:float ->
  service:string ->
  params:Axml_xml.Tree.forest ->
  push:Axml_query.Pattern.node option ->
  Axml_xml.Tree.forest * Axml_services.Registry.wire
(** One request/response exchange — exactly the
    {!Axml_services.Registry.transport} contract: [timeout] becomes the
    socket deadline for the exchange ([infinity] = none; the socket
    options are set only when it differs from the connection's last
    deadline), and failures
    raise {!Axml_services.Registry.Transport_error} with [transient]
    set for connection/timeout faults and cleared for protocol errors,
    {!Wire.Degraded} and non-transient {!Wire.Error} replies.

    Each pooled connection remembers the last pattern it sent in full.
    When [push] is physically that pattern and the connection negotiated
    {!Wire.cap_push_reuse}, the call sends {!Wire.Invoke_same_push}, one
    byte in place of the pattern. The engine hands one pattern node to
    every call of a round, so a round's calls on one connection ship
    the pattern once. A freshly dialed connection remembers nothing, so
    retries and re-dials send the pattern in full.

    Likewise, a connection that negotiated {!Wire.cap_labels} sends each
    element name, attribute name and value and service name in full the
    first time only, and names it by its table index after that. A
    re-dialed connection starts with empty tables. *)

val close : t -> unit
(** Closes every idle pooled connection. The client remains usable — a
    later call simply dials again. *)
