module Registry = Axml_services.Registry
module P = Axml_query.Pattern
module Obs = Axml_obs.Obs
module Trace = Axml_obs.Trace
module Metrics = Axml_obs.Metrics
module Exec = Axml_exec.Exec

let log_src = Logs.Src.create "axml.net.server" ~doc:"axmld server"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* One connection's state, owned by the event-loop thread. Workers see
   a conn only as an opaque token inside a completion; they never touch
   its fields. *)
type conn = {
  cid : int;
  fd : Unix.file_descr;
  mutable scratch : Wire.scratch;
      (* reply encoding, reused for the conn's life; replaced at the
         handshake by one with label tables when both ends advertised
         Wire.cap_labels *)
  mutable codec : Wire.codec;  (* for replies; negotiated at handshake *)
  mutable handshaken : bool;
  mutable push_reuse : bool;  (* both ends advertised Wire.cap_push_reuse *)
  mutable last_push : P.node option;
      (* the pattern the last Invoke carrying one brought, decoded once
         and reused for every marker after it *)
  mutable rbuf : Bytes.t;  (* incoming bytes: [roff, rlen) is unconsumed *)
  mutable roff : int;
  mutable rlen : int;
  mutable wbuf : Bytes.t;  (* outgoing bytes: [woff, wlen) is unsent *)
  mutable woff : int;
  mutable wlen : int;
  mutable busy : bool;  (* a request of this conn is at a worker *)
  mutable closing : bool;  (* close once the write buffer drains *)
  mutable dead : bool;
  mutable want_read : bool;
  mutable want_write : bool;
}

type t = {
  registry : Registry.t;
  obs : Obs.t;
  caps : string list;  (* capabilities advertised in Welcome *)
  delay : float;  (* injected per-request latency, really slept *)
  jitter : float;  (* extra uniform [0, jitter) latency per request *)
  jitter_rng : Random.State.t;  (* seeded; guarded by [jitter_mu] *)
  jitter_mu : Mutex.t;
  listen_fd : Unix.file_descr;
  host : string;
  port : int;
  max_conns : int;
  force_select : bool;
  pool : Exec.pool;  (* request execution off the loop thread *)
  mu : Mutex.t;  (* guards the connection bookkeeping below *)
  mutable conns : (int * Unix.file_descr) list;
  mutable next_conn : int;
  mutable stopped : bool;
  mutable stop_after_reply : bool;
  comp_mu : Mutex.t;  (* guards [completions] *)
  completions : (conn * Wire.message) Queue.t;
  wake_r : Unix.file_descr;  (* self-pipe waking the event loop *)
  wake_w : Unix.file_descr;
  mutable loop_thread : Thread.t option;
}

let resolve host =
  try Unix.inet_addr_of_string host
  with Failure _ -> (
    try (Unix.gethostbyname host).Unix.h_addr_list.(0)
    with Not_found -> invalid_arg (Printf.sprintf "cannot resolve host %S" host))

let create ?(host = "127.0.0.1") ?(port = 0) ?(obs = Obs.null)
    ?(caps = [ Wire.cap_shard; Wire.cap_binary; Wire.cap_push_reuse; Wire.cap_labels ])
    ?(delay = 0.0)
    ?(jitter = 0.0) ?(jitter_seed = 0) ?(workers = 32) ?(max_conns = 8192)
    ?(force_select = false) ~registry () =
  (* A peer hanging up mid-write must surface as EPIPE, not kill the
     process. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt fd Unix.SO_REUSEADDR true;
     Unix.bind fd (Unix.ADDR_INET (resolve host, port));
     Unix.listen fd 1024;
     Unix.set_nonblock fd
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  let port =
    match Unix.getsockname fd with Unix.ADDR_INET (_, p) -> p | _ -> port
  in
  let wake_r, wake_w = Unix.pipe () in
  Unix.set_nonblock wake_r;
  {
    registry;
    obs;
    caps;
    delay = Float.max 0.0 delay;
    jitter = Float.max 0.0 jitter;
    jitter_rng = Random.State.make [| 0x5e2e; jitter_seed |];
    jitter_mu = Mutex.create ();
    listen_fd = fd;
    host;
    port;
    max_conns = max 1 max_conns;
    force_select;
    (* the pool's jobs count includes the (never-helping) caller of
       map_batch, so [workers] concurrent request handlers need +1 *)
    pool = Exec.create ~jobs:(max 1 workers + 1) ();
    mu = Mutex.create ();
    conns = [];
    next_conn = 0;
    stopped = false;
    stop_after_reply = false;
    comp_mu = Mutex.create ();
    completions = Queue.create ();
    wake_r;
    wake_w;
    loop_thread = None;
  }

let port t = t.port
let host t = t.host

(* The per-request injected latency: the fixed [delay] plus a seeded
   uniform draw in [0, jitter). The RNG is shared across worker
   threads, so the draw sequence depends on request arrival order — the
   latency {e distribution} is reproducible per seed, individual
   request/draw pairings are not (and need not be: jitter exists to
   skew replicas, not to be replayed). *)
let inject_latency t =
  let wait =
    if t.jitter > 0.0 then
      t.delay
      +. Mutex.protect t.jitter_mu (fun () -> Random.State.float t.jitter_rng t.jitter)
    else t.delay
  in
  if wait > 0.0 then Unix.sleepf wait

let welcome t =
  Mutex.protect t.mu (fun () ->
      Wire.Welcome
        {
          version = Wire.version;
          services =
            List.map
              (fun n -> { Wire.name = n; push = Registry.push_capable t.registry n })
              (Registry.names t.registry);
          caps = t.caps;
        })

(* One request against the served registry. The registry and the obs
   sinks are thread-safe, so concurrent connections serve concurrently:
   no lock is held here. Each request records its span into a trace
   fragment of its own and folds it back in when done, so overlapping
   requests cannot interleave their open/close events. *)
let handle_invoke t ~id ~service ~params ~push =
  inject_latency t;
  let obs = Obs.fork t.obs in
  let tr = obs.Obs.trace in
  let span =
    if Trace.enabled tr then
      Trace.open_span tr ~cat:"net"
        ~attrs:
          [ ("service", Trace.Str service); ("pushed", Trace.Bool (push <> None)) ]
        "net.serve"
    else Trace.none
  in
  Metrics.incr obs.Obs.metrics ~labels:[ ("service", service) ] "net.served";
  let reply =
    match Registry.invoke t.registry ~name:service ~params ?push ~obs () with
    | forest, inv -> Wire.Result { id; pushed = inv.Registry.pushed; forest }
    | exception Registry.Unknown_service n ->
      Wire.Error { id; transient = false; message = "unknown service " ^ n }
    | exception Registry.Service_failure inv ->
      Wire.Degraded
        {
          id;
          message =
            Printf.sprintf "service %s failed after %d retries" service
              inv.Registry.retries;
          retries = inv.Registry.retries;
          timeouts = inv.Registry.timeouts;
        }
    | exception e ->
      Wire.Error { id; transient = false; message = Printexc.to_string e }
  in
  let outcome =
    match reply with
    | Wire.Result _ -> "ok"
    | Wire.Degraded _ -> "degraded"
    | _ -> "error"
  in
  if Trace.enabled tr then
    Trace.close_span tr ~attrs:[ ("outcome", Trace.Str outcome) ] span;
  Obs.join t.obs obs;
  reply

let wake t =
  try ignore (Unix.write t.wake_w (Bytes.make 1 'x') 0 1) with Unix.Unix_error _ -> ()

(* Stop accepting: mark stopped, close the listener (so reconnects are
   refused synchronously from here on) and wake the event loop. *)
let stop_listening t =
  let was_running =
    Mutex.protect t.mu (fun () ->
        if t.stopped then false
        else begin
          t.stopped <- true;
          true
        end)
  in
  if was_running then begin
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    wake t
  end

let shutdown_conns ?except t =
  let conns = Mutex.protect t.mu (fun () -> t.conns) in
  List.iter
    (fun (id, fd) ->
      if except <> Some id then
        try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
    conns

(* ------------------------------------------------------------------ *)
(* The event loop.

   One thread owns every conn and the Evloop; workers get requests
   through {!Exec.async} and give replies back through [t.completions]
   plus a byte on the wake pipe. Request handlers never run on the loop
   thread, so a slow service or an injected latency stalls one worker,
   not the whole server; a conn with a request in flight has its read
   interest parked ([busy]), which both applies backpressure and
   preserves the strict request/response order of the old
   thread-per-connection server.

   Handlers only change a conn's state and queue its outgoing bytes;
   each event ends in [flush], which writes what the socket takes at
   once and then updates the conn's interest in one step, asking for
   write readiness only while bytes remain. A reply therefore usually
   leaves in the same loop turn as its completion, with no extra
   wait. *)

let grow_to b need =
  let cap = ref (max 4096 (2 * Bytes.length b)) in
  while !cap < need do
    cap := !cap * 2
  done;
  let b' = Bytes.create !cap in
  Bytes.blit b 0 b' 0 (Bytes.length b);
  b'

let event_loop t =
  let ev = Evloop.create ~force_select:t.force_select () in
  Log.debug (fun f -> f "event loop on the %s backend" (Evloop.backend_name ev));
  let tbl : (Unix.file_descr, conn) Hashtbl.t = Hashtbl.create 256 in
  let accepting = ref false in
  let listener_gone = ref false in
  Evloop.add ev t.wake_r ~read:true ~write:false;
  (try
     Evloop.add ev t.listen_fd ~read:true ~write:false;
     accepting := true
   with Invalid_argument _ | Failure _ -> listener_gone := true);
  let set_interest c =
    if not c.dead then Evloop.modify ev c.fd ~read:c.want_read ~write:c.want_write
  in
  let close_conn c =
    if not c.dead then begin
      c.dead <- true;
      Evloop.remove ev c.fd;
      Hashtbl.remove tbl c.fd;
      Mutex.protect t.mu (fun () ->
          t.conns <- List.filter (fun (id, _) -> id <> c.cid) t.conns);
      (try Unix.close c.fd with Unix.Unix_error _ -> ());
      (* room again below the cap: resume accepting *)
      if (not !accepting) && (not !listener_gone) && (not t.stopped)
         && Hashtbl.length tbl < t.max_conns
      then begin
        try
          Evloop.add ev t.listen_fd ~read:true ~write:false;
          accepting := true
        with Invalid_argument _ | Failure _ -> listener_gone := true
      end
    end
  in
  let drop_listener () =
    if !accepting then begin
      Evloop.remove ev t.listen_fd;
      accepting := false
    end;
    listener_gone := true
  in
  let queue_bytes c b off n =
    if c.woff = c.wlen then begin
      c.woff <- 0;
      c.wlen <- 0
    end;
    if c.wlen + n > Bytes.length c.wbuf then begin
      (* compact before growing so capacity tracks unsent bytes *)
      if c.woff > 0 then begin
        Bytes.blit c.wbuf c.woff c.wbuf 0 (c.wlen - c.woff);
        c.wlen <- c.wlen - c.woff;
        c.woff <- 0
      end;
      if c.wlen + n > Bytes.length c.wbuf then c.wbuf <- grow_to c.wbuf (c.wlen + n)
    end;
    Bytes.blit b off c.wbuf c.wlen n;
    c.wlen <- c.wlen + n
  in
  (* Writes what the socket takes now (one [Unix.write] keeps writing
     until the socket would block), closes a drained closing conn, and
     applies the conn's interest: write only while bytes remain. *)
  let flush c =
    if (not c.dead) && c.woff < c.wlen then begin
      match Unix.write c.fd c.wbuf c.woff (c.wlen - c.woff) with
      | n -> c.woff <- c.woff + n
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
      | exception Unix.Unix_error _ -> close_conn c
    end;
    if (not c.dead) && c.woff = c.wlen then begin
      c.woff <- 0;
      c.wlen <- 0;
      if c.closing then close_conn c
    end;
    if not c.dead then begin
      c.want_write <- c.woff < c.wlen;
      set_interest c
    end
  in
  let queue_reply ?codec c msg =
    let codec = match codec with Some k -> k | None -> c.codec in
    match Wire.encode_frame_into ~codec c.scratch msg with
    | b, n -> queue_bytes c b 0 n
    | exception Wire.Protocol_error m ->
      (* an oversized reply: all we can do is tell the peer and hang up *)
      Log.debug (fun f -> f "conn %d: unencodable reply: %s" c.cid m);
      (match
         Wire.encode_frame_into ~codec c.scratch
           (Wire.Error { id = 0; transient = false; message = m })
       with
      | b, n -> queue_bytes c b 0 n
      | exception Wire.Protocol_error _ -> ());
      c.closing <- true
  in
  let protocol_error c m =
    Log.debug (fun f -> f "conn %d: closing on protocol error: %s" c.cid m);
    queue_reply c (Wire.Error { id = 0; transient = false; message = m });
    c.closing <- true;
    c.want_read <- false
  in
  let dispatch c msg =
    if not c.handshaken then begin
      match msg with
      | Wire.Hello { version; caps } when version = Wire.version ->
        c.handshaken <- true;
        (* the handshake itself is always JSON; only frames after a
           mutual cap_binary may switch *)
        queue_reply ~codec:Wire.Json c (welcome t);
        let mutual cap = List.mem cap caps && List.mem cap t.caps in
        if mutual Wire.cap_binary then begin
          c.codec <- Wire.Binary;
          if mutual Wire.cap_labels then c.scratch <- Wire.scratch ~labels:true ()
        end;
        c.push_reuse <- mutual Wire.cap_push_reuse
      | Wire.Hello { version; _ } ->
        protocol_error c
          (Printf.sprintf "unsupported protocol version %d (this peer speaks %d)"
             version Wire.version)
      | _ -> protocol_error c "expected a hello handshake"
    end
    else begin
      let serve ~id ~service ~params ~push =
        c.busy <- true;
        c.want_read <- false;
        Exec.async t.pool (fun () ->
            let reply = handle_invoke t ~id ~service ~params ~push in
            Mutex.protect t.comp_mu (fun () -> Queue.push (c, reply) t.completions);
            wake t)
      in
      match msg with
      | Wire.Invoke { id; service; params; push } ->
        if c.push_reuse && Option.is_some push then c.last_push <- push;
        serve ~id ~service ~params ~push
      | Wire.Invoke_same_push { id; service; params } -> (
        match c.last_push with
        | Some _ as push -> serve ~id ~service ~params ~push
        | None ->
          queue_reply c
            (Wire.Error
               { id; transient = false; message = "no pushed pattern to reuse on this connection" }))
      | _ -> protocol_error c "expected an invoke request"
    end
  in
  (* Decode and dispatch every complete frame sitting in [rbuf]. Stops
     at a partial frame, or as soon as the conn goes busy/closing. *)
  let rec process_frames c =
    if (not c.dead) && (not c.busy) && (not c.closing) && c.rlen - c.roff >= 4 then begin
      match Wire.decode_frame_header (Bytes.sub_string c.rbuf c.roff 4) with
      | exception Wire.Protocol_error m -> protocol_error c m
      | codec, len ->
        if c.rlen - c.roff - 4 >= len then begin
          let msg =
            (* decode copies every string it keeps and finishes before
               the loop can refill rbuf, so no copy of the slice *)
            try Ok (Wire.decode_payload ~scratch:c.scratch ~pos:(c.roff + 4) ~len codec
                      (Bytes.unsafe_to_string c.rbuf))
            with Wire.Protocol_error m -> Error m
          in
          c.roff <- c.roff + 4 + len;
          if c.roff = c.rlen then begin
            c.roff <- 0;
            c.rlen <- 0
          end;
          match msg with
          | Ok msg ->
            dispatch c msg;
            process_frames c
          | Error m -> protocol_error c m
        end
        else if 4 + len > Bytes.length c.rbuf - c.roff then begin
          (* the complete frame cannot fit in the space after roff *)
          if c.roff > 0 then begin
            Bytes.blit c.rbuf c.roff c.rbuf 0 (c.rlen - c.roff);
            c.rlen <- c.rlen - c.roff;
            c.roff <- 0
          end;
          if 4 + len > Bytes.length c.rbuf then c.rbuf <- grow_to c.rbuf (4 + len)
        end
    end
  in
  let handle_read c =
    if c.rlen = Bytes.length c.rbuf then begin
      if c.roff > 0 then begin
        Bytes.blit c.rbuf c.roff c.rbuf 0 (c.rlen - c.roff);
        c.rlen <- c.rlen - c.roff;
        c.roff <- 0
      end
      else c.rbuf <- grow_to c.rbuf (Bytes.length c.rbuf + 1)
    end;
    match Unix.read c.fd c.rbuf c.rlen (Bytes.length c.rbuf - c.rlen) with
    | 0 -> close_conn c
    | n ->
      c.rlen <- c.rlen + n;
      process_frames c;
      flush c
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      ()
    | exception Unix.Unix_error _ -> close_conn c
  in
  let accept_burst () =
    let continue = ref !accepting in
    while !continue do
      match Unix.accept t.listen_fd with
      | fd, _ ->
        (try
           Unix.set_nonblock fd;
           Unix.setsockopt fd Unix.TCP_NODELAY true
         with Unix.Unix_error _ -> ());
        let cid =
          Mutex.protect t.mu (fun () ->
              let id = t.next_conn in
              t.next_conn <- id + 1;
              t.conns <- (id, fd) :: t.conns;
              id)
        in
        let c =
          {
            cid;
            fd;
            scratch = Wire.scratch ();
            codec = Wire.Json;
            handshaken = false;
            push_reuse = false;
            last_push = None;
            rbuf = Bytes.create 4096;
            roff = 0;
            rlen = 0;
            wbuf = Bytes.create 4096;
            woff = 0;
            wlen = 0;
            busy = false;
            closing = false;
            dead = false;
            want_read = true;
            want_write = false;
          }
        in
        (match Evloop.add ev fd ~read:true ~write:false with
        | () ->
          Hashtbl.replace tbl fd c;
          if Hashtbl.length tbl >= t.max_conns && !accepting then begin
            Evloop.remove ev t.listen_fd;
            accepting := false;
            continue := false
          end
        | exception Failure m ->
          (* the select backend out of fd range: refuse, keep serving *)
          Log.debug (fun f -> f "refusing connection: %s" m);
          Mutex.protect t.mu (fun () ->
              t.conns <- List.filter (fun (id, _) -> id <> cid) t.conns);
          (try Unix.close fd with Unix.Unix_error _ -> ()))
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        continue := false
      | exception Unix.Unix_error ((Unix.ECONNABORTED | Unix.EINTR), _, _) -> ()
      | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _) ->
        drop_listener ();
        continue := false
    done
  in
  let drain_wake () =
    let b = Bytes.create 64 in
    let rec go () =
      match Unix.read t.wake_r b 0 64 with
      | 64 -> go ()
      | _ -> ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        ->
        ()
    in
    go ()
  in
  let drain_completions () =
    let pending =
      Mutex.protect t.comp_mu (fun () ->
          let xs = List.of_seq (Queue.to_seq t.completions) in
          Queue.clear t.completions;
          xs)
    in
    List.iter
      (fun (c, reply) ->
        if not c.dead then begin
          c.busy <- false;
          if t.stop_after_reply then begin
            (* Deterministic mid-run death: refuse reconnects *before*
               the reply reaches the client, so everything after this
               answer fails even through retries. *)
            stop_listening t;
            shutdown_conns ~except:c.cid t;
            c.closing <- true;
            queue_reply c reply
          end
          else begin
            queue_reply c reply;
            if not c.closing then begin
              c.want_read <- true;
              (* the client may have pipelined the next request *)
              process_frames c
            end
          end;
          flush c
        end)
      pending
  in
  let stopped () = Mutex.protect t.mu (fun () -> t.stopped) in
  let rec loop () =
    let events =
      try Evloop.wait ev ~timeout:(-1.0)
      with Unix.Unix_error (Unix.EBADF, _, _) ->
        (* the listener was closed under us by [stop_listening] *)
        drop_listener ();
        []
    in
    List.iter
      (fun { Evloop.fd; readable; writable } ->
        if fd = t.wake_r then (if readable then drain_wake ())
        else if fd = t.listen_fd && !accepting then (if readable then accept_burst ())
        else
          match Hashtbl.find_opt tbl fd with
          | None -> ()
          | Some c ->
            if writable && not c.dead then flush c;
            if readable && not c.dead then handle_read c)
      events;
    drain_completions ();
    if stopped () then begin
      if not !listener_gone then drop_listener ();
      (* conns shut down by [stop] EOF out; force the issue for the
         rest (busy ones have no read interest, so an EOF alone cannot
         reach them on every backend) — except a closing conn still
         flushing its last reply (the kill_after_reply survivor). *)
      Hashtbl.fold (fun _ c acc -> c :: acc) tbl []
      |> List.iter (fun c ->
             if not (c.closing && c.wlen > c.woff) then close_conn c);
      if Hashtbl.length tbl > 0 then loop ()
    end
    else loop ()
  in
  loop ();
  Evloop.close ev

let start t =
  match t.loop_thread with
  | Some _ -> ()
  | None -> t.loop_thread <- Some (Thread.create event_loop t)

let run t = event_loop t

let stop t =
  stop_listening t;
  shutdown_conns t;
  (match t.loop_thread with
  | Some th ->
    t.loop_thread <- None;
    Thread.join th
  | None -> ());
  Exec.shutdown t.pool;
  (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
  try Unix.close t.wake_w with Unix.Unix_error _ -> ()

let kill_after_reply t = t.stop_after_reply <- true
