module Tree = Axml_xml.Tree
module Print = Axml_xml.Print
module Obs = Axml_obs.Obs
module Trace = Axml_obs.Trace
module Metrics = Axml_obs.Metrics

type behavior = Tree.forest -> Tree.forest

type cost_model = { latency : float; per_byte : float }

let default_cost = { latency = 0.05; per_byte = 1e-6 }

type retry_policy = {
  max_retries : int;
  base_backoff : float;
  backoff_factor : float;
  max_backoff : float;
  attempt_timeout : float;
}

let default_policy =
  {
    max_retries = 3;
    base_backoff = 0.1;
    backoff_factor = 2.0;
    max_backoff = 2.0;
    attempt_timeout = infinity;
  }

let backoff_before policy ~retry =
  (* [retry] is 1-based: the wait before retry #1 is [base_backoff].
     There is no wait before the first attempt (retry 0). *)
  if retry <= 0 then 0.0
  else
    Float.min policy.max_backoff
      (policy.base_backoff *. (policy.backoff_factor ** float_of_int (retry - 1)))

type invocation = {
  service : string;
  request_bytes : int;
  response_bytes : int;
  cost : float;
  pushed : bool;
  cached : bool;
  retries : int;
  timeouts : int;
  backoff_seconds : float;
  failed : bool;
}

type wire = {
  sent : int;
  received : int;
  served_push : bool;
  elapsed : float;
}

exception Transport_error of {
  wire : wire;
  transient : bool;
  timeout : bool;
  reason : string;
}

type transport =
  name:string ->
  params:Tree.forest ->
  push:Axml_query.Pattern.node option ->
  timeout:float ->
  obs:Obs.t ->
  Tree.forest * wire

(* Where the service actually runs: an in-process closure charged on the
   simulated clock by its cost model and fault schedule, or a remote
   provider behind a real wire, whose faults come off the wire. *)
type local = { behavior : behavior; cost_model : cost_model; mutable faults : Faults.schedule }

type provider = Local of local | Remote of transport

(* One memo-cache entry. [Pending] is a claim: some thread is computing
   this key right now; duplicates wait on [cache_cv] instead of invoking
   the behavior a second time (the "double-miss race" of concurrent
   identical-parameter calls). *)
type cache_slot = Filled of Tree.forest | Pending

type service = {
  provider : provider;
  push_capable : bool;
  cache : (string, cache_slot) Hashtbl.t option;
      (* memoized services: parameter serialization -> full result *)
  mutable retry : retry_policy;
}

type t = {
  services : (string, service) Hashtbl.t;
  mu : Mutex.t;
      (* guards [history] and the memo caches; registration and fault/
         policy installation must precede concurrent invocation. The
         lock is never held while a behavior, a transport or a backoff
         sleep runs. *)
  cache_cv : Condition.t;
      (* signalled (with [mu] held) whenever a [Pending] memo slot is
         resolved — filled or abandoned — so waiters can re-inspect *)
  mutable order : string list; (* registration order, newest first *)
  mutable history : invocation list; (* newest first *)
  mutable fault_seed : int;
}

exception Unknown_service of string

exception Service_failure of invocation

let create () =
  {
    services = Hashtbl.create 16;
    mu = Mutex.create ();
    cache_cv = Condition.create ();
    order = [];
    history = [];
    fault_seed = 0;
  }

let locked t f = Mutex.protect t.mu f

(* Take-or-install under [t.mu]: either return the memoized result, or
   claim the key for this thread by installing [Pending]. A concurrent
   caller that finds [Pending] blocks on [cache_cv] until the filler
   resolves the slot — to a result (we return it: a cache hit) or to
   nothing (the filler failed, or could only produce a push-pruned
   response); in the latter case the waiter takes over as the new
   filler. This closes the double-miss race: two pooled invocations
   with identical parameters used to both miss (both lookups preceding
   both stores) and run the behavior twice. *)
let take_or_install t cache key =
  Mutex.protect t.mu (fun () ->
      let rec loop () =
        match Hashtbl.find_opt cache key with
        | Some (Filled result) -> `Hit result
        | Some Pending ->
          Condition.wait t.cache_cv t.mu;
          loop ()
        | None ->
          Hashtbl.replace cache key Pending;
          `Fill
      in
      loop ())

let resolve_filled t cache key result =
  locked t (fun () ->
      Hashtbl.replace cache key (Filled result);
      Condition.broadcast t.cache_cv)

(* Drop a still-[Pending] claim; waiters wake and the first becomes the
   next filler. Safe to call after [resolve_filled] (a no-op then), so
   the filler can run it unconditionally on every exit path. *)
let abandon_pending t cache key =
  locked t (fun () ->
      (match Hashtbl.find_opt cache key with
      | Some Pending -> Hashtbl.remove cache key
      | Some (Filled _) | None -> ());
      Condition.broadcast t.cache_cv)

let register t ~name ?(cost = default_cost) ?(push_capable = true) ?(memoize = false)
    ?(faults = []) ?(retry = default_policy) behavior =
  (match Faults.validate faults with
  | Ok () -> ()
  | Error m -> invalid_arg (Printf.sprintf "service %s: %s" name m));
  if not (Hashtbl.mem t.services name) then t.order <- name :: t.order;
  let cache = if memoize then Some (Hashtbl.create 16) else None in
  Hashtbl.replace t.services name
    { provider = Local { behavior; cost_model = cost; faults }; push_capable; cache; retry }

let register_remote t ~name ?(push_capable = true) ?(memoize = false)
    ?(retry = default_policy) transport =
  if not (Hashtbl.mem t.services name) then t.order <- name :: t.order;
  let cache = if memoize then Some (Hashtbl.create 16) else None in
  Hashtbl.replace t.services name { provider = Remote transport; push_capable; cache; retry }

let is_registered t name = Hashtbl.mem t.services name
let names t = List.rev t.order

let set_fault_seed t seed = t.fault_seed <- seed

let inject_faults t ?seed faults =
  (match Faults.validate faults with
  | Ok () -> ()
  | Error m -> invalid_arg m);
  (match seed with Some s -> t.fault_seed <- s | None -> ());
  Hashtbl.iter
    (fun _ svc -> match svc.provider with Local l -> l.faults <- faults | Remote _ -> ())
    t.services

let set_retry_policy t policy =
  Hashtbl.iter (fun _ svc -> svc.retry <- policy) t.services

let find_exn t name =
  match Hashtbl.find_opt t.services name with
  | Some s -> s
  | None -> raise (Unknown_service name)

let fault_schedule t name =
  match (find_exn t name).provider with Local l -> l.faults | Remote _ -> []

let retry_policy t name = (find_exn t name).retry
let push_capable t name = (find_exn t name).push_capable

let is_remote t name =
  match (find_exn t name).provider with Remote _ -> true | Local _ -> false

(* Per-service metrics for one finished invocation (successful, cached
   or permanently failed). The totals reconcile with the evaluators'
   report fields by construction: both are folded from the same
   invocation records. *)
let account_metrics m ~name (inv : invocation) =
  if Metrics.enabled m then begin
    let labels = [ ("service", name) ] in
    Metrics.incr m ~labels "service.invocations";
    if inv.cached then Metrics.incr m ~labels "service.cache_hits";
    if inv.pushed then Metrics.incr m ~labels "service.pushed";
    if inv.failed then Metrics.incr m ~labels "service.failures";
    Metrics.incr m ~labels ~by:inv.retries "service.retries";
    Metrics.incr m ~labels ~by:inv.timeouts "service.timeouts";
    Metrics.add m ~labels "service.backoff_seconds" inv.backoff_seconds;
    Metrics.incr m ~labels ~by:inv.request_bytes "service.request_bytes";
    Metrics.incr m ~labels ~by:inv.response_bytes "service.response_bytes";
    Metrics.observe m ~labels "service.cost" inv.cost
  end

(* Invocation-span close attributes: the measured outcome. *)
let invocation_attrs (inv : invocation) =
  [
    ("cached", Trace.Bool inv.cached);
    ("pushed", Trace.Bool inv.pushed);
    ("failed", Trace.Bool inv.failed);
    ("retries", Trace.Int inv.retries);
    ("timeouts", Trace.Int inv.timeouts);
    ("bytes", Trace.Int (inv.request_bytes + inv.response_bytes));
    ("backoff_s", Trace.Float inv.backoff_seconds);
    ("cost_s", Trace.Float inv.cost);
  ]

(* What one attempt against a provider came to. [full] is the result
   to memoize, if any: a local provider's result before push pruning,
   a remote provider's only when it was not pruned provider-side. *)
type attempt =
  | Answered of {
      shipped : Tree.forest;
      full : Tree.forest option;
      pushed : bool;
      sent : int;
      received : int;
      seconds : float;
    }
  | Lost of {
      retryable : bool;
      timeout : bool;
      sent : int;
      received : int;
      seconds : float;
      reason : string option;
    }

(* What ships for a full result: with a (capable) pushed pattern, only
   its witnesses. *)
let ship push full =
  match push with
  | Some pattern -> (true, Witness.prune pattern full)
  | None -> (false, full)

(* One attempt of an in-process behavior on the simulated clock: the
   request ships on every attempt, the fault schedule is drawn per
   retry index, and the behavior runs at most once. Every loss is
   retryable; an answer slower than [attempt_timeout] is a timeout
   that costs the whole budget. *)
let local_attempt t service local ~name ~params ~params_str ~push =
  let cm = local.cost_model and policy = service.retry in
  let request_bytes = Print.forest_byte_size params in
  let request_time = cm.per_byte *. float_of_int request_bytes in
  let result = lazy (local.behavior params) in
  (* the fault-PRNG key of this logical call: a pure function of the
     parameters, so the seeded fault fate is identical on any thread,
     at any --jobs level, in any interleaving *)
  let fault_key = lazy (Faults.invocation_key (Lazy.force params_str)) in
  let fault_seed = t.fault_seed in
  fun ~retry ->
    let lost ~timeout seconds =
      Lost
        {
          retryable = true;
          timeout;
          sent = request_bytes;
          received = 0;
          seconds = Float.min seconds policy.attempt_timeout;
          reason = None;
        }
    in
    let answer extra =
      let full = Lazy.force result in
      let pushed, shipped = ship push full in
      let received = Print.forest_byte_size shipped in
      let seconds =
        cm.latency +. extra +. request_time +. (cm.per_byte *. float_of_int received)
      in
      if seconds > policy.attempt_timeout then lost ~timeout:true seconds
      else Answered { shipped; full = Some full; pushed; sent = request_bytes; received; seconds }
    in
    let outcome =
      if local.faults = [] then Faults.Healthy
      else
        Faults.plan ~seed:fault_seed ~service:name ~key:(Lazy.force fault_key) ~retry
          local.faults
    in
    match outcome with
    | Faults.Healthy -> answer 0.0
    | Faults.Delayed extra -> answer extra
    | Faults.Dropped -> lost ~timeout:false (cm.latency +. request_time)
    | Faults.Unresponsive hang -> lost ~timeout:true hang

(* One attempt over a real wire: bytes and seconds are what the
   transport measured; only a transient error is retryable. *)
let remote_attempt service transport ~name ~params ~push ~obs ~retry:_ =
  match transport ~name ~params ~push ~timeout:service.retry.attempt_timeout ~obs with
  | forest, w ->
    Answered
      {
        shipped = forest;
        full = (if w.served_push then None else Some forest);
        pushed = w.served_push;
        sent = w.sent;
        received = w.received;
        seconds = w.elapsed;
      }
  | exception Transport_error { wire = w; transient; timeout; reason } ->
    Lost
      {
        retryable = transient;
        timeout;
        sent = w.sent;
        received = w.received;
        seconds = w.elapsed;
        reason = Some reason;
      }

let invoke t ~name ~params ?push ?(obs = Obs.null) () =
  let service = find_exn t name in
  let tr = obs.Obs.trace in
  let traced = Trace.enabled tr in
  let inv_span =
    if traced then
      Trace.open_span tr ~cat:"service" ~attrs:[ ("service", Trace.Str name) ] "service.invoke"
    else Trace.none
  in
  let push = if service.push_capable then push else None in
  let record (inv : invocation) =
    locked t (fun () -> t.history <- inv :: t.history);
    account_metrics obs.Obs.metrics ~name inv;
    if traced then Trace.close_span tr ~attrs:(invocation_attrs inv) inv_span;
    inv
  in
  let blank =
    {
      service = name;
      request_bytes = 0;
      response_bytes = 0;
      cost = 0.0;
      pushed = false;
      cached = false;
      retries = 0;
      timeouts = 0;
      backoff_seconds = 0.0;
      failed = false;
    }
  in
  (* the serialized parameters key both the memo cache and the fault
     PRNG; serialize at most once *)
  let params_str = lazy (Print.forest_to_string params) in
  let cache_key =
    match service.cache with
    | None -> None
    | Some cache -> Some (cache, Lazy.force params_str)
  in
  let hit result =
    (* A cache hit answers locally: no wire, no latency — and no fault
       exposure; the fault layer only applies to network attempts. *)
    let pushed, shipped = ship push result in
    (shipped, record { blank with pushed; cached = true })
  in
  (* The provider picks the attempt and the clock: a local behavior runs
     on the simulated clock, a remote one on the wall clock, where the
     backoff really sleeps. *)
  let attempt, attempt_attrs, clock_attr, sleep =
    match service.provider with
    | Local local ->
      (local_attempt t service local ~name ~params ~params_str ~push, [], "sim_s", ignore)
    | Remote transport ->
      ( remote_attempt service transport ~name ~params ~push ~obs,
        [ ("transport", Trace.Str "net") ],
        "wire_s",
        fun wait -> if wait > 0.0 then Unix.sleepf wait )
  in
  let policy = service.retry in
  (* [inv] accumulates the attempts so far; [inv.retries] is the retry
     index of the next one. *)
  let rec go (inv : invocation) =
    let retry = inv.retries in
    let attempt_span =
      if traced then
        Trace.open_span tr ~cat:"service"
          ~attrs:(("service", Trace.Str name) :: ("retry", Trace.Int retry) :: attempt_attrs)
          "service.attempt"
      else Trace.none
    in
    if Metrics.enabled obs.Obs.metrics then
      Metrics.incr obs.Obs.metrics ~labels:[ ("service", name) ] "service.attempts";
    let close seconds attrs =
      Trace.advance tr seconds;
      if traced then
        Trace.close_span tr ~attrs:(attrs @ [ (clock_attr, Trace.Float seconds) ]) attempt_span
    in
    let spent ~sent ~received ~seconds =
      {
        inv with
        request_bytes = inv.request_bytes + sent;
        response_bytes = inv.response_bytes + received;
        cost = inv.cost +. seconds;
      }
    in
    match attempt ~retry with
    | Answered { shipped; full; pushed; sent; received; seconds } ->
      close seconds [ ("outcome", Trace.Str "ok") ];
      (match (full, cache_key) with
      | Some full, Some (cache, key) -> resolve_filled t cache key full
      | _ -> ());
      (shipped, record { (spent ~sent ~received ~seconds) with pushed })
    | Lost { retryable; timeout; sent; received; seconds; reason } ->
      let outcome =
        if timeout then "timeout" else if retryable then "transient" else "fatal"
      in
      close seconds
        (("outcome", Trace.Str outcome)
        :: Option.fold ~none:[] ~some:(fun r -> [ ("reason", Trace.Str r) ]) reason);
      let inv =
        { (spent ~sent ~received ~seconds) with timeouts = inv.timeouts + Bool.to_int timeout }
      in
      if (not retryable) || retry >= policy.max_retries then
        raise (Service_failure (record { inv with failed = true }))
      else begin
        let wait = backoff_before policy ~retry:(retry + 1) in
        sleep wait;
        Trace.advance tr wait;
        if traced then
          Trace.instant tr ~cat:"service"
            ~attrs:[ ("service", Trace.Str name); ("wait_s", Trace.Float wait) ]
            "service.backoff";
        go
          {
            inv with
            retries = retry + 1;
            cost = inv.cost +. wait;
            backoff_seconds = inv.backoff_seconds +. wait;
          }
      end
  in
  let miss () = go blank in
  match cache_key with
  | None -> miss ()
  | Some (cache, key) -> (
    match take_or_install t cache key with
    | `Hit result -> hit result
    | `Fill ->
      (* Whatever happens in [miss] — success (slot already [Filled]),
         a push-pruned response, [Service_failure], any exception — the
         claim must not outlive this call, or waiters deadlock. *)
      Fun.protect ~finally:(fun () -> abandon_pending t cache key) miss)

let history t = locked t (fun () -> List.rev t.history)
let invocation_count t = locked t (fun () -> List.length t.history)

let fold_history t f init =
  locked t (fun () -> List.fold_left f init t.history)

let total_bytes t =
  fold_history t (fun acc i -> acc + i.request_bytes + i.response_bytes) 0

let total_retries t = fold_history t (fun acc i -> acc + i.retries) 0
let total_timeouts t = fold_history t (fun acc i -> acc + i.timeouts) 0

let total_backoff t =
  fold_history t (fun acc i -> acc +. i.backoff_seconds) 0.0

let failed_count t =
  fold_history t (fun acc i -> acc + if i.failed then 1 else 0) 0

(* One exposure per attempt that drew a fault: every retried attempt
   failed, plus the last attempt of a permanently failed invocation. *)
let fault_exposures t =
  fold_history t (fun acc i -> acc + i.retries + if i.failed then 1 else 0) 0

let reset_history t = locked t (fun () -> t.history <- [])
