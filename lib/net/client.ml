module Registry = Axml_services.Registry
module P = Axml_query.Pattern
module Obs = Axml_obs.Obs
module Trace = Axml_obs.Trace
module Metrics = Axml_obs.Metrics

type conn = {
  fd : Unix.file_descr;
  mutable next_id : int;
  codec : Wire.codec;  (* negotiated at handshake; Json unless both ends speak binary *)
  scratch : Wire.scratch;
      (* per-connection encode/decode buffers, reused across requests —
         no fresh frame buffer per call on a warm connection — and the
         label tables, when both ends advertised Wire.cap_labels *)
  push_reuse : bool;  (* both ends advertised Wire.cap_push_reuse *)
  mutable last_push : P.node option;
      (* the pattern this connection last carried in full: the server's
         slot holds the same one *)
  mutable deadline : float;  (* the socket deadline now set, as [deadline] normalises it *)
}

type t = {
  host : string;
  port : int;
  pool_size : int;
  connect_timeout : float;
  wire : [ `Auto | `Json ];
  mu : Mutex.t;
  mutable idle : conn list;
  mutable idle_len : int;
      (* length of [idle], maintained so giveback's pool-bound check is
         O(1) instead of walking the list under the mutex *)
  mutable advertised : Wire.service_info list option;
  mutable peer_caps : string list;
      (* what the last Welcome advertised; [] until the first handshake,
         which is also what a pre-capability peer negotiates to *)
}

let create ?(pool_size = 4) ?(connect_timeout = 10.0) ?(wire = `Auto) ~host ~port () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  {
    host;
    port;
    pool_size;
    connect_timeout;
    wire;
    mu = Mutex.create ();
    idle = [];
    idle_len = 0;
    advertised = None;
    peer_caps = [];
  }

let host t = t.host
let port t = t.port
let capabilities t = Mutex.protect t.mu (fun () -> t.peer_caps)

let resolve host =
  try Unix.inet_addr_of_string host
  with Failure _ -> (
    try (Unix.gethostbyname host).Unix.h_addr_list.(0)
    with Not_found -> invalid_arg (Printf.sprintf "cannot resolve host %S" host))

(* A socket deadline in the form the socket takes it: 0 for none. *)
let deadline seconds = if seconds = infinity || seconds <= 0.0 then 0.0 else seconds

let set_deadline fd s =
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO s;
  Unix.setsockopt_float fd Unix.SO_SNDTIMEO s

(* Dial + handshake. Raises Unix_error / Wire.Protocol_error / Wire.Closed;
   the caller wraps those into Transport_error. *)
let dial t ~obs =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  try
    let connect_deadline = deadline t.connect_timeout in
    set_deadline fd connect_deadline;
    Unix.connect fd (Unix.ADDR_INET (resolve t.host, t.port));
    (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
    let my_caps =
      match t.wire with
      | `Json -> []
      | `Auto -> [ Wire.cap_binary; Wire.cap_push_reuse; Wire.cap_labels ]
    in
    ignore (Wire.send fd (Wire.Hello { version = Wire.version; caps = my_caps }));
    match Wire.recv fd with
    | Wire.Welcome { version; services; caps }, _ when version = Wire.version ->
      Mutex.protect t.mu (fun () ->
          t.advertised <- Some services;
          t.peer_caps <- caps);
      Metrics.incr obs.Obs.metrics "net.connects";
      let mutual cap = List.mem cap my_caps && List.mem cap caps in
      let binary = mutual Wire.cap_binary in
      {
        fd;
        next_id = 1;
        codec = (if binary then Wire.Binary else Wire.Json);
        scratch = Wire.scratch ~labels:(binary && mutual Wire.cap_labels) ();
        push_reuse = mutual Wire.cap_push_reuse;
        last_push = None;
        deadline = connect_deadline;
      }
    | Wire.Error { message; _ }, _ -> raise (Wire.Protocol_error message)
    | _ -> raise (Wire.Protocol_error "expected a welcome handshake")
  with e ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    raise e

(* An idle connection that polls readable is stale: request/response
   leaves nothing in flight, so pending bytes mean EOF or garbage. *)
let healthy conn =
  match Unix.select [ conn.fd ] [] [] 0.0 with
  | [], _, _ -> true
  | _ -> false
  | exception Unix.Unix_error _ -> false

let rec borrow t ~obs =
  let pooled =
    Mutex.protect t.mu (fun () ->
        match t.idle with
        | [] -> None
        | conn :: rest ->
          t.idle <- rest;
          t.idle_len <- t.idle_len - 1;
          Some conn)
  in
  match pooled with
  | None -> dial t ~obs
  | Some conn ->
    if healthy conn then begin
      Metrics.incr obs.Obs.metrics "net.reuses";
      conn
    end
    else begin
      Metrics.incr obs.Obs.metrics "net.stale_drops";
      (try Unix.close conn.fd with Unix.Unix_error _ -> ());
      borrow t ~obs
    end

let giveback t conn =
  let keep =
    Mutex.protect t.mu (fun () ->
        if t.idle_len < t.pool_size then begin
          t.idle <- conn :: t.idle;
          t.idle_len <- t.idle_len + 1;
          true
        end
        else false)
  in
  if not keep then try Unix.close conn.fd with Unix.Unix_error _ -> ()

let discard conn = try Unix.close conn.fd with Unix.Unix_error _ -> ()

(* What a failed [borrow] means, as (outcome, transient, timeout,
   reason); [None] for exceptions that are not transport failures. *)
let borrow_failure = function
  | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
    Some ("timeout", true, true, "handshake timed out")
  | Unix.Unix_error (e, _, _) -> Some ("connect", true, false, Unix.error_message e)
  | Wire.Protocol_error reason | Failure reason -> Some ("protocol", false, false, reason)
  | Wire.Closed -> Some ("closed", true, false, "connection closed during handshake")
  | _ -> None

let services t ?(obs = Obs.null) () =
  match Mutex.protect t.mu (fun () -> t.advertised) with
  | Some s -> s
  | None -> (
    match borrow t ~obs with
    | conn ->
      giveback t conn;
      Mutex.protect t.mu (fun () -> Option.value t.advertised ~default:[])
    | exception e -> (
      match borrow_failure e with
      | None -> raise e
      | Some (_, transient, timeout, reason) ->
        raise
          (Registry.Transport_error
             {
               wire = { Registry.sent = 0; received = 0; served_push = false; elapsed = 0.0 };
               transient;
               timeout;
               reason;
             })))

(* The request for one call: the marker when the pattern is the one the
   connection last carried in full. The engine hands one pattern node to
   every call of a round, so physical equality finds the repeats. *)
let invoke_message conn ~id ~service ~params ~push =
  match (push, conn.last_push) with
  | Some p, Some q when conn.push_reuse && p == q -> Wire.Invoke_same_push { id; service; params }
  | _ ->
    if Option.is_some push then conn.last_push <- push;
    Wire.Invoke { id; service; params; push }

let call t ~obs ~timeout ~service ~params ~push =
  let t0 = Unix.gettimeofday () in
  let m = obs.Obs.metrics in
  let tr = obs.Obs.trace in
  let span =
    if Trace.enabled tr then
      Trace.open_span tr ~cat:"net"
        ~attrs:
          [
            ("service", Trace.Str service);
            ("endpoint", Trace.Str (Printf.sprintf "%s:%d" t.host t.port));
            ("pushed", Trace.Bool (push <> None));
          ]
        "net.request"
    else Trace.none
  in
  let close_span ~outcome ~sent ~received =
    if Trace.enabled tr then
      Trace.close_span tr
        ~attrs:
          [
            ("outcome", Trace.Str outcome);
            ("sent", Trace.Int sent);
            ("received", Trace.Int received);
          ]
        span
  in
  let wire ~sent ~received ~pushed =
    {
      Registry.sent;
      received;
      served_push = pushed;
      elapsed = Unix.gettimeofday () -. t0;
    }
  in
  let fail ?(sent = 0) ?(received = 0) ~outcome ~transient ~timeout:timed_out reason =
    Metrics.incr m (if timed_out then "net.timeouts" else "net.errors");
    close_span ~outcome ~sent ~received;
    raise
      (Registry.Transport_error
         { wire = wire ~sent ~received ~pushed:false; transient; timeout = timed_out; reason })
  in
  match borrow t ~obs with
  | exception e -> (
    match borrow_failure e with
    | None -> raise e
    | Some (outcome, transient, timeout, reason) -> fail ~outcome ~transient ~timeout reason)
  | conn -> (
    let id = conn.next_id in
    conn.next_id <- id + 1;
    Metrics.incr m ~labels:[ ("service", service) ] "net.requests";
    match
      let d = deadline timeout in
      if d <> conn.deadline then begin
        set_deadline conn.fd d;
        conn.deadline <- d
      end;
      let sent =
        Wire.send ~codec:conn.codec ~scratch:conn.scratch conn.fd
          (invoke_message conn ~id ~service ~params ~push)
      in
      let reply, received = Wire.recv ~scratch:conn.scratch conn.fd in
      (sent, reply, received)
    with
    | sent, Wire.Result { id = rid; pushed; forest }, received when rid = id ->
      giveback t conn;
      Metrics.incr m ~by:sent "net.request_bytes";
      Metrics.incr m ~by:received "net.response_bytes";
      close_span ~outcome:"ok" ~sent ~received;
      (forest, wire ~sent ~received ~pushed)
    | sent, Wire.Degraded { id = rid; message; _ }, received when rid = id ->
      (* The server's own retry budget is spent; retrying the wire would
         only repeat its defeat. Degrade instead. *)
      giveback t conn;
      fail ~sent ~received ~outcome:"degraded" ~transient:false ~timeout:false
        ("provider degraded: " ^ message)
    | sent, Wire.Error { id = rid; transient; message }, received when rid = id ->
      giveback t conn;
      fail ~sent ~received ~outcome:"error" ~transient ~timeout:false message
    | sent, _, received ->
      discard conn;
      fail ~sent ~received ~outcome:"protocol" ~transient:false ~timeout:false
        "mismatched response id"
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      discard conn;
      fail ~outcome:"timeout" ~transient:true ~timeout:true
        (Printf.sprintf "no response within %gs" timeout)
    | exception Unix.Unix_error (e, _, _) ->
      discard conn;
      fail ~outcome:"io" ~transient:true ~timeout:false (Unix.error_message e)
    | exception Wire.Closed ->
      discard conn;
      fail ~outcome:"closed" ~transient:true ~timeout:false "connection closed by peer"
    | exception Wire.Protocol_error reason ->
      discard conn;
      fail ~outcome:"protocol" ~transient:false ~timeout:false reason)

let close t =
  let conns =
    Mutex.protect t.mu (fun () ->
        let cs = t.idle in
        t.idle <- [];
        t.idle_len <- 0;
        cs)
  in
  List.iter discard conns
