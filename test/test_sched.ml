(* Suite for the distributed layer scheduler (lib/sched).

   The load-bearing invariant is the routing analogue of the §4.4
   contract: a sharded or replicated evaluation must produce exactly the
   single-registry evaluation — the same answers (compared as a digest
   of their XML serialization), the same report field by field, and the
   same multiset of per-invocation fault fates across the shard
   registries — at jobs = 1 and jobs = 4, on the seeded faulty city
   workload. On top of that: report ≡ metrics ≡ trace reconciliation
   through the scheduler, budget exhaustion degrading to
   [complete = false] like any other defeat, cost-model placement
   preferring the cheap replica where static round-robin alternates,
   re-routing off a replica that dies mid-run, and the registry
   routing-view helpers. *)

module P = Axml_query.Pattern
module Eval = Axml_query.Eval
module Registry = Axml_services.Registry
module Faults = Axml_services.Faults
module Engine = Axml_engine.Engine
module Lazy_eval = Axml_core.Lazy_eval
module City = Axml_workload.City
module Obs = Axml_obs.Obs
module Trace = Axml_obs.Trace
module Metrics = Axml_obs.Metrics
module Exec = Axml_exec.Exec
module Server = Axml_net.Server
module Client = Axml_net.Client
module Remote = Axml_net.Remote
module Sched = Axml_sched.Sched

let with_pool jobs f =
  if jobs <= 1 then f None
  else begin
    let pool = Exec.create ~jobs () in
    Fun.protect ~finally:(fun () -> Exec.shutdown pool) (fun () -> f (Some pool))
  end

let digest answers =
  Digest.to_hex
    (Digest.string (Axml_xml.Print.forest_to_string (Eval.bindings_to_xml answers)))

(* The same seeded faulty city workload as the engine suite: every
   regeneration draws identical documents, services and fault fates. *)
let city_cfg =
  {
    City.default_config with
    City.hotels = 10;
    seed = 7;
    extensional_fraction = 1.0;
    intensional_rating_fraction = 1.0;
    intensional_nearby_fraction = 1.0;
    target_fraction = 1.0;
    five_star_fraction = 0.6;
  }

let faulty_city () =
  let inst = City.generate city_cfg in
  Registry.inject_faults inst.City.registry ~seed:5 [ Faults.Flaky 0.3 ];
  inst

(* Everything a routed run must reproduce bit for bit (the analysis
   wall clock and the routing counters themselves excluded). *)
let essence (r : Engine.report) =
  ( digest r.Engine.answers,
    r.Engine.invoked,
    r.Engine.pushed,
    r.Engine.rounds,
    r.Engine.passes,
    r.Engine.relevance_evals,
    r.Engine.candidates_checked,
    r.Engine.layer_count,
    r.Engine.simulated_seconds,
    r.Engine.bytes_transferred,
    r.Engine.retries,
    r.Engine.timeouts,
    r.Engine.failed_calls,
    r.Engine.backoff_seconds,
    r.Engine.complete )

(* Invocation fates as an order-independent multiset, summed over every
   registry the scheduler may have touched. *)
let fates registries =
  List.sort compare
    (List.concat_map
       (fun reg ->
         List.map
           (fun (i : Registry.invocation) ->
             ( i.Registry.service,
               i.Registry.request_bytes,
               i.Registry.retries,
               i.Registry.timeouts,
               i.Registry.failed ))
           (Registry.history reg))
       registries)

let run_base ?obs pool =
  let inst = faulty_city () in
  let r =
    Lazy_eval.run ~registry:inst.City.registry ~schema:inst.City.schema
      ~strategy:Lazy_eval.nfqa_typed ?pool ?obs inst.City.query inst.City.doc
  in
  (r, [ inst.City.registry ])

let run_routed ?obs ~specs_of pool =
  let inst = faulty_city () in
  let specs = specs_of inst in
  let sched = Sched.create specs in
  let r =
    Lazy_eval.run ~registry:inst.City.registry ~schema:inst.City.schema
      ~strategy:Lazy_eval.nfqa_typed ?pool ?obs ~dispatch:(Sched.dispatch sched)
      inst.City.query inst.City.doc
  in
  (r, sched, inst)

(* Two full replicas: the instance's own registry plus one regenerated
   twin (same seeds, so the identical fault fates). *)
let replica_specs (inst : City.t) =
  [
    Sched.spec ~id:"r1" inst.City.registry;
    Sched.spec ~id:"r2" (faulty_city ()).City.registry;
  ]

(* A static service split over three shards, the last one the
   instance's own registry. *)
let shard_specs (inst : City.t) =
  [
    Sched.spec ~id:"ratings" ~services:[ "getrating" ] (faulty_city ()).City.registry;
    Sched.spec ~id:"geo"
      ~services:[ "getnearbyrestos"; "getnearbymuseums" ]
      (faulty_city ()).City.registry;
    Sched.spec ~id:"rest" ~services:[ "gethotels" ] inst.City.registry;
  ]

let test_differential ~name ~specs_of ~jobs () =
  let base, base_regs = with_pool jobs (fun pool -> run_base ?obs:None pool) in
  let routed, sched, _ =
    with_pool jobs (fun pool -> run_routed ?obs:None ~specs_of pool)
  in
  Alcotest.(check bool)
    (Printf.sprintf "%s@jobs=%d: report identical" name jobs)
    true
    (essence base = essence routed);
  Alcotest.(check int)
    (Printf.sprintf "%s@jobs=%d: every call routed" name jobs)
    routed.Engine.invoked routed.Engine.sharded_calls;
  Alcotest.(check int)
    (Printf.sprintf "%s@jobs=%d: nothing rerouted" name jobs)
    0 routed.Engine.rerouted_calls;
  (* the scheduler's own meter agrees with the engine's *)
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 (Sched.dispatched sched) in
  Alcotest.(check int)
    (Printf.sprintf "%s@jobs=%d: dispatched = sharded" name jobs)
    routed.Engine.sharded_calls total;
  ignore base_regs

let test_fates ~name ~jobs () =
  let _, base_regs = with_pool jobs (fun pool -> run_base ?obs:None pool) in
  (* rebuild the routed side spec by spec, keeping hold of every registry
     so their histories can be pooled afterwards *)
  let inst = faulty_city () in
  let regs, specs =
    match name with
    | "replicated" ->
      let r2 = (faulty_city ()).City.registry in
      ( [ inst.City.registry; r2 ],
        [ Sched.spec ~id:"r1" inst.City.registry; Sched.spec ~id:"r2" r2 ] )
    | _ ->
      let ra = (faulty_city ()).City.registry in
      let rb = (faulty_city ()).City.registry in
      ( [ inst.City.registry; ra; rb ],
        [
          Sched.spec ~id:"ratings" ~services:[ "getrating" ] ra;
          Sched.spec ~id:"geo" ~services:[ "getnearbyrestos"; "getnearbymuseums" ] rb;
          Sched.spec ~id:"rest" ~services:[ "gethotels" ] inst.City.registry;
        ] )
  in
  let sched = Sched.create specs in
  let _ =
    with_pool jobs (fun pool ->
        Lazy_eval.run ~registry:inst.City.registry ~schema:inst.City.schema
          ~strategy:Lazy_eval.nfqa_typed ?pool ~dispatch:(Sched.dispatch sched)
          inst.City.query inst.City.doc)
  in
  Alcotest.(check bool)
    (Printf.sprintf "%s@jobs=%d: same fault fates across shard registries" name jobs)
    true
    (fates base_regs = fates regs)

(* ------------------------------------------------------------------ *)
(* report ≡ metrics ≡ trace through the scheduler *)

let rec count_named name (ns : Trace.node list) =
  List.fold_left
    (fun acc (n : Trace.node) ->
      acc + (if n.Trace.node_name = name then 1 else 0) + count_named name n.Trace.children)
    0 ns

let test_reconciliation () =
  let obs = Obs.create () in
  let inst = faulty_city () in
  let r2 = (faulty_city ()).City.registry in
  let sched =
    Sched.create [ Sched.spec ~id:"r1" inst.City.registry; Sched.spec ~id:"r2" r2 ]
  in
  let r =
    with_pool 4 (fun pool ->
        Lazy_eval.run ~registry:inst.City.registry ~schema:inst.City.schema
          ~strategy:Lazy_eval.nfqa_typed ?pool ~obs ~dispatch:(Sched.dispatch sched)
          inst.City.query inst.City.doc)
  in
  let m = obs.Obs.metrics in
  Alcotest.(check (list string))
    "report = metrics" []
    (List.map (fun (x : Engine.mismatch) -> x.Engine.field) (Engine.reconcile r m));
  (* the scheduler feeds its per-shard latency histogram into the run's
     metrics registry; the adaptive estimator reads it back as quantiles *)
  let observed =
    List.exists
      (fun id ->
        Metrics.quantile m ~labels:[ ("shard", id) ] "sched.replica_cost" 0.5 <> None)
      (Sched.shard_ids sched)
  in
  Alcotest.(check bool) "sched.replica_cost histogram populated" true observed;
  (match Trace.well_formed obs.Obs.trace with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("trace ill-formed: " ^ e));
  match Trace.tree obs.Obs.trace with
  | Error e -> Alcotest.fail ("trace has no tree: " ^ e)
  | Ok forest ->
    let attempts =
      List.fold_left
        (fun acc (i : Registry.invocation) ->
          if i.Registry.cached then acc else acc + 1 + i.Registry.retries)
        0
        (Registry.history inst.City.registry @ Registry.history r2)
    in
    Alcotest.(check int) "one service.attempt span per wire attempt across shards" attempts
      (count_named "service.attempt" forest)

(* ------------------------------------------------------------------ *)
(* Budgets *)

let test_budget_degrades () =
  let inst = faulty_city () in
  let sched = Sched.create [ Sched.spec ~id:"only" ~budget:5 inst.City.registry ] in
  let r =
    Lazy_eval.run ~registry:inst.City.registry ~schema:inst.City.schema
      ~strategy:Lazy_eval.nfqa_typed ~dispatch:(Sched.dispatch sched) inst.City.query
      inst.City.doc
  in
  Alcotest.(check bool) "degrades to incomplete" false r.Engine.complete;
  Alcotest.(check int) "serves exactly the budget" 5 r.Engine.invoked;
  Alcotest.(check bool) "budget-exhausted calls are failures" true (r.Engine.failed_calls > 0);
  Alcotest.(check (option int)) "total budget sums when all bounded" (Some 5)
    (Sched.total_budget sched)

let test_total_budget () =
  let reg () = (faulty_city ()).City.registry in
  let bounded =
    Sched.create [ Sched.spec ~id:"a" ~budget:3 (reg ()); Sched.spec ~id:"b" ~budget:4 (reg ()) ]
  in
  Alcotest.(check (option int)) "sum of budgets" (Some 7) (Sched.total_budget bounded);
  let open_ended =
    Sched.create [ Sched.spec ~id:"a" ~budget:3 (reg ()); Sched.spec ~id:"b" (reg ()) ]
  in
  Alcotest.(check (option int))
    "unbounded as soon as one shard is" None
    (Sched.total_budget open_ended)

let test_spec_validation () =
  let reg = (faulty_city ()).City.registry in
  Alcotest.check_raises "negative budget" (Invalid_argument "Sched.spec: negative budget")
    (fun () -> ignore (Sched.spec ~id:"x" ~budget:(-1) reg));
  Alcotest.check_raises "zero slots" (Invalid_argument "Sched.spec: slots must be at least 1")
    (fun () -> ignore (Sched.spec ~id:"x" ~slots:0 reg));
  Alcotest.check_raises "no shards" (Invalid_argument "Sched.create: no shards") (fun () ->
      ignore (Sched.create []));
  Alcotest.check_raises "duplicate ids"
    (Invalid_argument "Sched.create: duplicate shard id \"x\"") (fun () ->
      ignore (Sched.create [ Sched.spec ~id:"x" reg; Sched.spec ~id:"x" reg ]));
  let sched = Sched.create [ Sched.spec ~id:"x" reg ] in
  Alcotest.check_raises "unknown service" (Registry.Unknown_service "nope") (fun () ->
      ignore (Sched.dispatch sched ~name:"nope" ~params:[] ~obs:Obs.null ()))

(* ------------------------------------------------------------------ *)
(* Placement: truthful cost priors make the adaptive mode route around
   a slow replica that static round-robin drags through. *)

let costed latency =
  let reg = Registry.create () in
  Registry.register reg ~name:"s"
    ~cost:{ Registry.latency; per_byte = 0.0 }
    (fun _ -> [ Axml_xml.Parse.tree "<x/>" ]);
  reg

let drive sched n =
  let d = Sched.dispatch sched in
  for _ = 1 to n do
    ignore (d ~name:"s" ~params:[] ~obs:Obs.null ())
  done

let test_adaptive_prefers_cheap () =
  (* the slow replica is declared FIRST, so cost is the only thing that
     can move load off it *)
  let slow = costed 0.05 and fast = costed 0.01 in
  let sched =
    Sched.create ~mode:Sched.Adaptive
      [
        Sched.spec ~id:"slow" ~static_cost:0.05 slow;
        Sched.spec ~id:"fast" ~static_cost:0.01 fast;
      ]
  in
  drive sched 10;
  Alcotest.(check (list (pair string int)))
    "all ten calls drain through the cheap replica"
    [ ("slow", 0); ("fast", 10) ]
    (Sched.dispatched sched);
  Alcotest.(check int) "every placement was a rebalance" 10 (Sched.rebalanced sched)

(* The estimator's service.cost fallback: a shard the scheduler has
   never routed through (no [sched.replica_cost] samples, no EWMA) is
   seeded from the per-service [service.cost] histogram the registry
   records for every invocation — so traffic served before this
   scheduler existed still informs placement. Here the fresh shard's
   static prior lies expensive while pre-scheduler history says it is
   cheap; without the fallback the first call would stay on the
   already-observed (and genuinely slow) replica. *)
let test_service_cost_seeds_estimate () =
  let observed = costed 0.5 and fresh = costed 0.001 in
  let sched =
    Sched.create ~mode:Sched.Adaptive
      [
        Sched.spec ~id:"observed" ~static_cost:0.001 observed;
        Sched.spec ~id:"fresh" ~static_cost:1.0 fresh;
      ]
  in
  let obs = Obs.measuring () in
  let m = obs.Obs.metrics in
  (* scheduler-fed history for "observed" only: it is slow *)
  for _ = 1 to 8 do
    Metrics.observe m ~labels:[ ("shard", "observed") ] "sched.replica_cost" 0.5
  done;
  (* pre-scheduler per-service history: the service is cheap where it
     actually ran — which was the fresh replica's backend *)
  for _ = 1 to 8 do
    Metrics.observe m ~labels:[ ("service", "s") ] "service.cost" 0.001
  done;
  let d = Sched.dispatch sched in
  for _ = 1 to 6 do
    ignore (d ~name:"s" ~params:[] ~obs ())
  done;
  Alcotest.(check (list (pair string int)))
    "service.cost history routes every call to the fresh replica"
    [ ("observed", 0); ("fresh", 6) ]
    (Sched.dispatched sched)

let test_round_robin_alternates () =
  let slow = costed 0.05 and fast = costed 0.01 in
  let sched =
    Sched.create ~mode:Sched.Round_robin
      [
        Sched.spec ~id:"slow" ~static_cost:0.05 slow;
        Sched.spec ~id:"fast" ~static_cost:0.01 fast;
      ]
  in
  drive sched 10;
  Alcotest.(check (list (pair string int)))
    "cost-blind rotation splits evenly"
    [ ("slow", 5); ("fast", 5) ]
    (Sched.dispatched sched)

(* ------------------------------------------------------------------ *)
(* A replica dying mid-run: calls on the dead peer exhaust their retry
   loop, re-route to the surviving replica, and the evaluation still
   completes with the single-registry answers. *)

let test_replica_death_reroutes () =
  let inst = City.generate city_cfg in
  let base =
    Lazy_eval.run ~registry:inst.City.registry ~schema:inst.City.schema
      ~strategy:Lazy_eval.nfqa_typed inst.City.query inst.City.doc
  in
  let mk_server () =
    let served = City.generate city_cfg in
    let server = Server.create ~registry:served.City.registry () in
    Server.start server;
    server
  in
  let doomed = mk_server () and survivor = mk_server () in
  let retry =
    {
      Registry.default_policy with
      Registry.max_retries = 1;
      base_backoff = 0.001;
      max_backoff = 0.002;
    }
  in
  let clients = ref [] in
  Fun.protect
    ~finally:(fun () ->
      List.iter Client.close !clients;
      Server.stop doomed;
      Server.stop survivor)
    (fun () ->
      let remote srv =
        let client = Client.create ~host:"127.0.0.1" ~port:(Server.port srv) () in
        clients := client :: !clients;
        let reg = Registry.create () in
        ignore (Remote.register ~memoize:false ~retry ~registry:reg client);
        reg
      in
      let r1 = remote doomed and r2 = remote survivor in
      let sched = Sched.create [ Sched.spec ~id:"doomed" r1; Sched.spec ~id:"survivor" r2 ] in
      (* the first reply is the doomed peer's last *)
      Server.kill_after_reply doomed;
      let fresh = City.generate city_cfg in
      let r =
        Lazy_eval.run ~registry:r1 ~schema:fresh.City.schema ~strategy:Lazy_eval.nfqa_typed
          ~dispatch:(Sched.dispatch sched) fresh.City.query fresh.City.doc
      in
      Alcotest.(check string)
        "answers identical to the local run" (digest base.Engine.answers)
        (digest r.Engine.answers);
      Alcotest.(check int) "same invocation count" base.Engine.invoked r.Engine.invoked;
      Alcotest.(check bool) "still complete" true r.Engine.complete;
      Alcotest.(check bool) "re-routing actually happened" true (r.Engine.rerouted_calls > 0);
      Alcotest.(check bool)
        "defeats were accounted (retries on the dead peer)" true (r.Engine.retries > 0))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "sched"
    [
      ( "differential",
        [
          Alcotest.test_case "replicated jobs=1" `Quick
            (test_differential ~name:"replicated" ~specs_of:replica_specs ~jobs:1);
          Alcotest.test_case "replicated jobs=4" `Quick
            (test_differential ~name:"replicated" ~specs_of:replica_specs ~jobs:4);
          Alcotest.test_case "sharded jobs=1" `Quick
            (test_differential ~name:"sharded" ~specs_of:shard_specs ~jobs:1);
          Alcotest.test_case "sharded jobs=4" `Quick
            (test_differential ~name:"sharded" ~specs_of:shard_specs ~jobs:4);
          Alcotest.test_case "replicated fates jobs=4" `Quick
            (test_fates ~name:"replicated" ~jobs:4);
          Alcotest.test_case "sharded fates jobs=4" `Quick
            (test_fates ~name:"sharded" ~jobs:4);
        ] );
      ( "reconciliation",
        [ Alcotest.test_case "report = metrics = trace across shards" `Quick test_reconciliation ]
      );
      ( "budgets",
        [
          Alcotest.test_case "exhaustion degrades to incomplete" `Quick test_budget_degrades;
          Alcotest.test_case "total budget rollup" `Quick test_total_budget;
          Alcotest.test_case "spec validation" `Quick test_spec_validation;
        ] );
      ( "placement",
        [
          Alcotest.test_case "adaptive prefers the cheap replica" `Quick
            test_adaptive_prefers_cheap;
          Alcotest.test_case "round-robin is cost-blind" `Quick test_round_robin_alternates;
          Alcotest.test_case "service.cost history seeds the estimate" `Quick
            test_service_cost_seeds_estimate;
        ] );
      ( "failover",
        [ Alcotest.test_case "mid-run replica death re-routes" `Quick test_replica_death_reroutes ]
      );
    ]
