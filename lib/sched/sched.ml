(** The distributed layer scheduler: service sharding, replica load
    balancing and adaptive cost-model routing, plugged into the engine's
    request half as an {!Axml_engine.Engine.dispatch}.

    The scheduler owns {e placement} and nothing else: which shard's
    registry serves a call. Everything below (the retry loop, fault
    draws, memoization, the wire) stays in the registry/transport
    layers, and everything above (batching, splicing, accounting) stays
    in the engine — so a sharded evaluation produces the same answers,
    the same [invoked] count and the same fault fates as an unsharded
    one, at every [--jobs] level. *)

module Registry = Axml_services.Registry
module Engine = Axml_engine.Engine
module Obs = Axml_obs.Obs
module Metrics = Axml_obs.Metrics

let log_src = Logs.Src.create "axml.sched" ~doc:"distributed layer scheduler"

module Log = (val Logs.src_log log_src : Logs.LOG)

type mode = Round_robin | Adaptive

type spec = {
  id : string;
  registry : Registry.t;
  services : string list option;
      (* static assignment: the names this shard owns; [None] = every
         name its registry serves (a full replica) *)
  budget : int option;  (* max calls this shard may serve *)
  slots : int option;  (* max concurrent in-flight calls *)
  static_cost : float;  (* prior latency estimate, seconds *)
}

let spec ?services ?budget ?slots ?(static_cost = Registry.default_cost.Registry.latency)
    ~id registry =
  (match budget with
  | Some b when b < 0 -> invalid_arg "Sched.spec: negative budget"
  | _ -> ());
  (match slots with
  | Some s when s < 1 -> invalid_arg "Sched.spec: slots must be at least 1"
  | _ -> ());
  { id; registry; services; budget; slots; static_cost }

type shard = {
  spec : spec;
  mutable dispatched : int;  (* calls started here; the budget meter *)
  mutable inflight : int;  (* calls currently being served here *)
  mutable waiting : int;  (* callers queued on this shard's slots *)
  mutable ewma : float option;  (* exponentially-weighted observed cost *)
}

type t = {
  mode : mode;
  shards : shard list;
  mu : Mutex.t;  (* guards every mutable field of [t] and its shards *)
  cv : Condition.t;  (* signalled whenever an in-flight call finishes *)
  mutable cursor : int;  (* round-robin position *)
  mutable rebalanced : int;
  mutable rerouted : int;
}

let create ?(mode = Adaptive) specs =
  if specs = [] then invalid_arg "Sched.create: no shards";
  let seen = Hashtbl.create 8 in
  List.iter
    (fun s ->
      if Hashtbl.mem seen s.id then
        invalid_arg (Printf.sprintf "Sched.create: duplicate shard id %S" s.id);
      Hashtbl.replace seen s.id ())
    specs;
  {
    mode;
    shards =
      List.map
        (fun spec -> { spec; dispatched = 0; inflight = 0; waiting = 0; ewma = None })
        specs;
    mu = Mutex.create ();
    cv = Condition.create ();
    cursor = 0;
    rebalanced = 0;
    rerouted = 0;
  }

let shard_ids t = List.map (fun s -> s.spec.id) t.shards

let owns s name =
  (match s.spec.services with None -> true | Some l -> List.mem name l)
  && Registry.is_registered s.spec.registry name

let dispatched t =
  Mutex.protect t.mu (fun () -> List.map (fun s -> (s.spec.id, s.dispatched)) t.shards)

let rebalanced t = Mutex.protect t.mu (fun () -> t.rebalanced)
let rerouted t = Mutex.protect t.mu (fun () -> t.rerouted)

(* The global budget this scheduler can still admit: the sum of the
   per-shard budgets when every shard is bounded, [None] (unbounded) as
   soon as one is. The CLI mins this into the engine's [max_calls]. *)
let total_budget t =
  List.fold_left
    (fun acc s ->
      match (acc, s.spec.budget) with Some a, Some b -> Some (a + b) | _ -> None)
    (Some 0) t.shards

(* ------------------------------------------------------------------ *)
(* The cost model *)

let ewma_alpha = 0.3

(* What one call of [name] on this shard is expected to cost. The EWMA
   over observed costs is the primary signal (it exists even with
   metrics disabled); a histogram quantile widens the estimate to the
   observed tail: this shard's [sched.replica_cost] when the scheduler
   itself has routed through it, else the registry's per-service
   [service.cost] latency histogram — so an estimator on a registry
   that has already served traffic (retries, evaluations, other
   schedulers) starts from measured latency instead of the static
   prior. Both fall back in the same p95 → p50 → prior order. Before
   any observation the spec's static prior stands, refined by a
   histogram median when one survives from an earlier evaluation on the
   same registry. Called under [t.mu]. *)
let estimate metrics ~name shard =
  let quant q =
    match
      Metrics.quantile metrics ~labels:[ ("shard", shard.spec.id) ] "sched.replica_cost" q
    with
    | Some _ as v -> v
    | None -> Metrics.quantile metrics ~labels:[ ("service", name) ] "service.cost" q
  in
  match (shard.ewma, quant 0.95) with
  | Some e, Some p95 -> Float.max e p95
  | Some e, None -> e
  | None, _ -> ( match quant 0.5 with Some p50 -> p50 | None -> shard.spec.static_cost)

let observe_cost t shard obs cost =
  Mutex.protect t.mu (fun () ->
      shard.ewma <-
        Some
          (match shard.ewma with
          | None -> cost
          | Some e -> (ewma_alpha *. cost) +. ((1.0 -. ewma_alpha) *. e)));
  Metrics.observe obs.Obs.metrics ~labels:[ ("shard", shard.spec.id) ] "sched.replica_cost"
    cost

(* ------------------------------------------------------------------ *)
(* Placement *)

let budget_left s = match s.spec.budget with None -> true | Some b -> s.dispatched < b
let slot_free s = match s.spec.slots with None -> true | Some k -> s.inflight < k

(* The least-loaded-first score: what this call would cost on [s],
   queueing included — the calls ahead of it (in flight or waiting for
   a slot) drain [slots] at a time, each wave at the estimated per-call
   cost. A slow replica therefore only wins a call once the fast one's
   queue has grown past the latency gap; before any estimate exists the
   shards tie and declaration order decides. *)
let score metrics ~name s =
  let queued = s.inflight + s.waiting + 1 in
  let waves =
    match s.spec.slots with
    | None -> queued
    | Some k -> (queued + k - 1) / k
  in
  float_of_int waves *. estimate metrics ~name s

(* Pick a shard for [name]. Called with [t.mu] held. [tried] are the
   shards whose retry loop this call already exhausted (a re-route in
   progress). Returns the chosen shard and whether the balancer moved
   the call off the default placement (the first budgeted owner, in
   declaration order).

   Round-robin statically assigns each call by arrival order and waits
   for its shard's slot, cost-blind. Adaptive scores every candidate, full
   or not, and when the best one is full it {e waits for it} rather
   than overflowing to a worse shard — queueing a 10 ms replica twice
   beats handing the call to a 50 ms one. Waiters re-place from scratch
   on every wake-up, so a placement made before the cost estimates had
   converged is revised, not committed. Ties go to the earliest shard,
   which is what keeps a [--jobs 1] run over identical replicas on
   shard one — byte-identical to the unsharded run. *)
let rec place t ~metrics ~tried name =
  let owners = List.filter (fun s -> owns s name) t.shards in
  if owners = [] then raise (Registry.Unknown_service name)
  else
    let budgeted = List.filter budget_left owners in
    match budgeted with
    | [] -> `Exhausted
    | default :: _ -> (
      let untried = List.filter (fun s -> not (List.memq s tried)) budgeted in
      if untried = [] then `No_alternative
      else
        let commit chosen =
          chosen.dispatched <- chosen.dispatched + 1;
          chosen.inflight <- chosen.inflight + 1;
          if chosen != default then t.rebalanced <- t.rebalanced + 1;
          `Placed (chosen, chosen != default)
        in
        match t.mode with
        | Round_robin ->
          (* static rotation: the call is assigned its shard by arrival
             order and waits for that shard's slot, cost-blind — the
             baseline the adaptive mode is measured against *)
          let chosen = List.nth untried (t.cursor mod List.length untried) in
          t.cursor <- t.cursor + 1;
          let rec await () =
            if slot_free chosen then commit chosen
            else begin
              chosen.waiting <- chosen.waiting + 1;
              Fun.protect
                ~finally:(fun () -> chosen.waiting <- chosen.waiting - 1)
                (fun () -> Condition.wait t.cv t.mu);
              (* the shard's budget may have drained while we waited *)
              if budget_left chosen then await () else place t ~metrics ~tried name
            end
          in
          await ()
        | Adaptive ->
          let chosen =
            List.fold_left
              (fun best s ->
                if score metrics ~name s < score metrics ~name best then s else best)
              (List.hd untried) (List.tl untried)
          in
          if slot_free chosen then commit chosen
          else begin
            (* queue on the best shard — visibly, so the next chooser
               scores this queue too — and re-place from scratch on
               wake-up: the wait is a preference, not a commitment *)
            chosen.waiting <- chosen.waiting + 1;
            Fun.protect
              ~finally:(fun () -> chosen.waiting <- chosen.waiting - 1)
              (fun () -> Condition.wait t.cv t.mu);
            place t ~metrics ~tried name
          end)

(* A shard budget ran out with calls still pending: surface the same
   way a retry-exhausted call does — a failed invocation — so the
   engine tombstones the call and degrades to [complete = false]
   instead of crashing. No registry was reached, so the invocation is
   all zeros (and emits no [service.invoke] span). *)
let exhausted_invocation name =
  {
    Registry.service = name;
    request_bytes = 0;
    response_bytes = 0;
    cost = 0.0;
    pushed = false;
    cached = false;
    retries = 0;
    timeouts = 0;
    backoff_seconds = 0.0;
    failed = true;
  }

(* Re-routing accumulates the cost of the defeats that preceded the
   result: the bytes, retries, timeouts and backoff of every exhausted
   replica attempt are summed into the invocation the engine accounts,
   so the report still reconciles with what actually happened on the
   wire. *)
let merge_prior (prior : Registry.invocation option) (inv : Registry.invocation) =
  match prior with
  | None -> inv
  | Some p ->
    {
      inv with
      Registry.request_bytes = p.Registry.request_bytes + inv.Registry.request_bytes;
      cost = p.Registry.cost +. inv.Registry.cost;
      retries = p.Registry.retries + inv.Registry.retries;
      timeouts = p.Registry.timeouts + inv.Registry.timeouts;
      backoff_seconds = p.Registry.backoff_seconds +. inv.Registry.backoff_seconds;
    }

let release t shard =
  Mutex.protect t.mu (fun () ->
      shard.inflight <- shard.inflight - 1;
      Condition.broadcast t.cv)

let dispatch t : Engine.dispatch =
 fun ~name ~params ?push ~obs () ->
  let metrics = obs.Obs.metrics in
  let rec attempt ~tried ~prior ~rerouted =
    match Mutex.protect t.mu (fun () -> place t ~metrics ~tried name) with
    | `Exhausted ->
      Log.debug (fun m -> m "shard budgets exhausted, failing %s" name);
      raise (Registry.Service_failure (exhausted_invocation name))
    | `No_alternative ->
      (* every budgeted owner's retry loop was exhausted *)
      let inv =
        match prior with Some p -> { p with Registry.failed = true } | None -> assert false
      in
      raise (Registry.Service_failure inv)
    | `Placed (shard, moved) -> (
      match Registry.invoke shard.spec.registry ~name ~params ?push ~obs () with
      | result, inv ->
        release t shard;
        observe_cost t shard obs inv.Registry.cost;
        if rerouted > 0 then
          Mutex.protect t.mu (fun () -> t.rerouted <- t.rerouted + rerouted);
        ( result,
          merge_prior prior inv,
          { Engine.shard = Some shard.spec.id; rebalanced = moved; rerouted } )
      | exception Registry.Service_failure inv ->
        release t shard;
        observe_cost t shard obs inv.Registry.cost;
        let prior = Some (merge_prior prior inv) in
        (* Only remote defeats are worth re-routing: a replica of a
           local registry draws its seeded fault fate from the call's
           parameters alone, so an identical replica fails identically —
           re-routing would double the cost for nothing (and break the
           sharded ≡ unsharded differential). A remote defeat is this
           peer's: another replica may well answer. *)
        if Registry.is_remote shard.spec.registry name then begin
          Log.debug (fun m ->
              m "re-routing %s off failed shard %s (%d retries)" name shard.spec.id
                inv.Registry.retries);
          attempt ~tried:(shard :: tried) ~prior ~rerouted:(rerouted + 1)
        end
        else
          raise (Registry.Service_failure (Option.get prior)))
  in
  attempt ~tried:[] ~prior:None ~rerouted:0
