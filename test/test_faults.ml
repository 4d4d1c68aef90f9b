(* Tests for the fault-injection layer: retry/backoff accounting on the
   simulated clock, timeout classification, schedule determinism, spec
   attributes, and the Def. 4 differential oracle — lazy evaluation
   under faults returns a subset of the fault-free naive result, with
   equality when retries mask every transient fault. *)

module Tree = Axml_xml.Tree
module Doc = Axml_doc
module Eval = Axml_query.Eval
module Registry = Axml_services.Registry
module Faults = Axml_services.Faults
module Spec = Axml_services.Spec
module Engine = Axml_engine.Engine
module Lazy_eval = Axml_core.Lazy_eval
module Synthetic = Axml_workload.Synthetic

let t = Tree.text

let no_transfer = { Registry.latency = 1.0; per_byte = 0.0 }

let policy ?(max_retries = 2) ?(base_backoff = 0.1) ?(backoff_factor = 2.0)
    ?(max_backoff = 10.0) ?(attempt_timeout = infinity) () =
  { Registry.max_retries; base_backoff; backoff_factor; max_backoff; attempt_timeout }

let feq = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Retry accounting *)

let test_permanent_failure_accounting () =
  let r = Registry.create () in
  Registry.register r ~name:"down" ~cost:no_transfer ~faults:[ Faults.Fail_transient ]
    ~retry:(policy ~max_retries:2 ()) (fun _ -> [ t "never" ]);
  match Registry.invoke r ~name:"down" ~params:[ t "k" ] () with
  | _ -> Alcotest.fail "expected Service_failure"
  | exception Registry.Service_failure inv ->
    Alcotest.(check bool) "failed" true inv.Registry.failed;
    Alcotest.(check int) "retries" 2 inv.Registry.retries;
    Alcotest.(check int) "timeouts" 0 inv.Registry.timeouts;
    Alcotest.(check int) "no response" 0 inv.Registry.response_bytes;
    (* backoff 0.1 then 0.2; three attempts at 1 s latency each *)
    feq "backoff" 0.3 inv.Registry.backoff_seconds;
    feq "cost" 3.3 inv.Registry.cost;
    (* the defeat is on the books *)
    Alcotest.(check int) "history" 1 (Registry.invocation_count r);
    Alcotest.(check int) "failed count" 1 (Registry.failed_count r);
    Alcotest.(check int) "exposures = all three attempts" 3 (Registry.fault_exposures r);
    Alcotest.(check int) "total retries" 2 (Registry.total_retries r);
    feq "total backoff" 0.3 (Registry.total_backoff r)

let test_backoff_cap () =
  let p = policy ~base_backoff:0.5 ~backoff_factor:3.0 ~max_backoff:1.0 ~max_retries:3 () in
  feq "retry 1" 0.5 (Registry.backoff_before p ~retry:1);
  feq "retry 2 capped" 1.0 (Registry.backoff_before p ~retry:2);
  feq "retry 3 capped" 1.0 (Registry.backoff_before p ~retry:3);
  let r = Registry.create () in
  Registry.register r
    ~name:"down"
    ~cost:{ Registry.latency = 0.0; per_byte = 0.0 }
    ~faults:[ Faults.Fail_transient ] ~retry:p
    (fun _ -> []);
  (match Registry.invoke r ~name:"down" ~params:[] () with
  | _ -> Alcotest.fail "expected Service_failure"
  | exception Registry.Service_failure inv ->
    feq "sum of capped backoffs" 2.5 inv.Registry.backoff_seconds;
    feq "cost is pure backoff" 2.5 inv.Registry.cost)

let test_backoff_edge_cases () =
  (* [retry] is 1-based: retry 0 — the first attempt — never waits, and
     neither does anything below it *)
  let p = policy ~base_backoff:0.5 ~backoff_factor:2.0 ~max_backoff:10.0 () in
  feq "retry 0 waits nothing" 0.0 (Registry.backoff_before p ~retry:0);
  feq "negative retry waits nothing" 0.0 (Registry.backoff_before p ~retry:(-3));
  feq "retry 1 waits the base" 0.5 (Registry.backoff_before p ~retry:1);
  (* non-integer factors: base * factor^(retry - 1) *)
  let p = policy ~base_backoff:0.1 ~backoff_factor:1.5 ~max_backoff:10.0 () in
  feq "factor 1.5, retry 1" 0.1 (Registry.backoff_before p ~retry:1);
  feq "factor 1.5, retry 2" 0.15 (Registry.backoff_before p ~retry:2);
  feq "factor 1.5, retry 3" 0.225 (Registry.backoff_before p ~retry:3);
  (* max_backoff below the base clamps even the first wait *)
  let p = policy ~base_backoff:2.0 ~backoff_factor:2.0 ~max_backoff:0.5 () in
  feq "clamped below the base" 0.5 (Registry.backoff_before p ~retry:1);
  (* a zero-retry policy never backs off: its single attempt is retry 0 *)
  let r = Registry.create () in
  Registry.register r ~name:"once" ~cost:no_transfer ~faults:[ Faults.Fail_transient ]
    ~retry:(policy ~max_retries:0 ~base_backoff:5.0 ()) (fun _ -> [ t "never" ]);
  match Registry.invoke r ~name:"once" ~params:[] () with
  | _ -> Alcotest.fail "expected Service_failure"
  | exception Registry.Service_failure inv ->
    Alcotest.(check int) "one attempt, zero retries" 0 inv.Registry.retries;
    feq "no backoff" 0.0 inv.Registry.backoff_seconds;
    feq "cost is one latency" 1.0 inv.Registry.cost

let test_timeout_classification () =
  let r = Registry.create () in
  (* the provider hangs for 5 s; the caller abandons each attempt at its
     0.5 s budget *)
  Registry.register r ~name:"hung" ~cost:no_transfer ~faults:[ Faults.Timeout 5.0 ]
    ~retry:(policy ~max_retries:1 ~base_backoff:0.25 ~backoff_factor:1.0 ~attempt_timeout:0.5 ())
    (fun _ -> [ t "never" ]);
  (match Registry.invoke r ~name:"hung" ~params:[] () with
  | _ -> Alcotest.fail "expected Service_failure"
  | exception Registry.Service_failure inv ->
    Alcotest.(check int) "both attempts timed out" 2 inv.Registry.timeouts;
    feq "each attempt consumes its budget" 1.25 inv.Registry.cost;
    feq "backoff between them" 0.25 inv.Registry.backoff_seconds);
  (* a slow response that misses the budget is also a timeout *)
  Registry.register r ~name:"slow" ~cost:no_transfer ~faults:[ Faults.Slow 2.0 ]
    ~retry:(policy ~max_retries:0 ~attempt_timeout:0.5 ())
    (fun _ -> [ t "late" ]);
  (match Registry.invoke r ~name:"slow" ~params:[] () with
  | _ -> Alcotest.fail "expected Service_failure"
  | exception Registry.Service_failure inv ->
    Alcotest.(check int) "timeout" 1 inv.Registry.timeouts;
    feq "abandoned at the budget" 0.5 inv.Registry.cost);
  Alcotest.(check int) "registry-wide timeouts" 3 (Registry.total_timeouts r)

let test_slow_within_budget_succeeds () =
  let r = Registry.create () in
  Registry.register r ~name:"slow" ~cost:no_transfer ~faults:[ Faults.Slow 0.25 ]
    ~retry:(policy ~attempt_timeout:2.0 ())
    (fun _ -> [ t "ok" ]);
  let result, inv = Registry.invoke r ~name:"slow" ~params:[] () in
  Alcotest.(check bool) "result" true (result = [ Tree.Text "ok" ]);
  Alcotest.(check bool) "not failed" false inv.Registry.failed;
  Alcotest.(check int) "no retries" 0 inv.Registry.retries;
  feq "latency + injected delay" 1.25 inv.Registry.cost

let test_request_ships_per_attempt () =
  let r = Registry.create () in
  Registry.register r
    ~name:"down"
    ~cost:{ Registry.latency = 0.0; per_byte = 1.0 }
    ~faults:[ Faults.Fail_transient ]
    ~retry:(policy ~max_retries:2 ~base_backoff:0.0 ())
    (fun _ -> []);
  (match Registry.invoke r ~name:"down" ~params:[ t "abcd" ] () with
  | _ -> Alcotest.fail "expected Service_failure"
  | exception Registry.Service_failure inv ->
    Alcotest.(check int) "3 attempts x 4 bytes" 12 inv.Registry.request_bytes;
    feq "per-byte time on every attempt" 12.0 inv.Registry.cost)

(* ------------------------------------------------------------------ *)
(* Schedule determinism *)

let flaky_log seed =
  let r = Registry.create () in
  Registry.set_fault_seed r seed;
  Registry.register r ~name:"a" ~cost:no_transfer ~faults:[ Faults.Flaky 0.5 ]
    ~retry:(policy ~max_retries:3 ()) (fun _ -> [ t "ra" ]);
  Registry.register r ~name:"b" ~cost:no_transfer ~faults:[ Faults.Flaky 0.7 ]
    ~retry:(policy ~max_retries:3 ()) (fun _ -> [ t "rb" ]);
  List.iter
    (fun name ->
      match Registry.invoke r ~name ~params:[ t "k" ] () with
      | _ -> ()
      | exception Registry.Service_failure _ -> ())
    [ "a"; "b"; "a"; "a"; "b"; "a"; "b"; "b" ];
  List.map
    (fun (i : Registry.invocation) ->
      (i.Registry.service, i.Registry.retries, i.Registry.failed, i.Registry.cost))
    (Registry.history r)

let test_schedule_determinism () =
  Alcotest.(check bool) "same seed, identical invocation log" true
    (flaky_log 42 = flaky_log 42);
  (* a draw under another seed differs (the PRNG splits by seed) *)
  let key = Faults.invocation_key "k" in
  Alcotest.(check bool) "seeds split the stream" true
    (Faults.uniform ~seed:0 ~service:"a" ~key ~retry:0 ~salt:0
    <> Faults.uniform ~seed:1 ~service:"a" ~key ~retry:0 ~salt:0);
  (* ... and so do distinct invocation keys: the draw is a property of
     the logical call, not of arrival order *)
  Alcotest.(check bool) "keys split the stream" true
    (Faults.uniform ~seed:0 ~service:"a" ~key:(Faults.invocation_key "k1") ~retry:0 ~salt:0
    <> Faults.uniform ~seed:0 ~service:"a" ~key:(Faults.invocation_key "k2") ~retry:0 ~salt:0)

let test_registry_matches_plan () =
  (* with max_retries = 0 each invocation is exactly one attempt, so the
     registry's outcomes must replay Faults.plan draw for draw. Draws
     are keyed by the serialized parameters (the logical call), so each
     distinct params forest gets its own fate — independent of the order
     the invocations happen to arrive in. *)
  let seed = 11 in
  let schedule = [ Faults.Flaky 0.5 ] in
  let r = Registry.create () in
  Registry.set_fault_seed r seed;
  Registry.register r ~name:"s" ~cost:no_transfer ~faults:schedule
    ~retry:(policy ~max_retries:0 ()) (fun _ -> [ t "ok" ]);
  let fates = Hashtbl.create 40 in
  for i = 0 to 39 do
    let params = [ t (Printf.sprintf "p%d" i) ] in
    let key = Faults.invocation_key (Axml_xml.Print.forest_to_string params) in
    let expected = Faults.plan ~seed ~service:"s" ~key ~retry:0 schedule in
    (match Registry.invoke r ~name:"s" ~params () with
    | _ -> Alcotest.(check bool) "plan said healthy" true (expected = Faults.Healthy)
    | exception Registry.Service_failure _ ->
      Alcotest.(check bool) "plan said dropped" true (expected = Faults.Dropped));
    Hashtbl.replace fates i expected
  done;
  (* replaying the same logical call repeats its fate exactly *)
  for i = 0 to 39 do
    let params = [ t (Printf.sprintf "p%d" i) ] in
    match Registry.invoke r ~name:"s" ~params () with
    | _ -> Alcotest.(check bool) "fate repeats (healthy)" true (Hashtbl.find fates i = Faults.Healthy)
    | exception Registry.Service_failure _ ->
      Alcotest.(check bool) "fate repeats (dropped)" true (Hashtbl.find fates i = Faults.Dropped)
  done

let test_retries_eventually_mask_flakiness () =
  let r = Registry.create () in
  Registry.register r ~name:"s" ~cost:no_transfer ~faults:[ Faults.Flaky 0.6 ]
    ~retry:(policy ~max_retries:60 ()) (fun _ -> [ t "ok" ]);
  for _ = 1 to 20 do
    let result, inv = Registry.invoke r ~name:"s" ~params:[] () in
    Alcotest.(check bool) "succeeded" true (result = [ Tree.Text "ok" ]);
    Alcotest.(check bool) "not failed" false inv.Registry.failed
  done;
  Alcotest.(check int) "nothing permanently failed" 0 (Registry.failed_count r)

let test_cache_hits_skip_faults () =
  let r = Registry.create () in
  let hits = ref 0 in
  Registry.register r ~name:"m" ~cost:no_transfer ~memoize:true ~faults:[ Faults.Slow 0.5 ]
    ~retry:(policy ())
    (fun _ ->
      incr hits;
      [ t "v" ]);
  let _, first = Registry.invoke r ~name:"m" ~params:[ t "k" ] () in
  feq "first pays the injected delay" 1.5 first.Registry.cost;
  let _, second = Registry.invoke r ~name:"m" ~params:[ t "k" ] () in
  Alcotest.(check bool) "cached" true second.Registry.cached;
  feq "cache hit dodges the fault layer" 0.0 second.Registry.cost;
  Alcotest.(check int) "no retries on a hit" 0 second.Registry.retries;
  Alcotest.(check int) "behavior ran once" 1 !hits;
  (* a permanently failing service caches nothing: every invocation fails *)
  Registry.register r ~name:"down" ~cost:no_transfer ~memoize:true
    ~faults:[ Faults.Fail_transient ] ~retry:(policy ~max_retries:1 ())
    (fun _ -> [ t "never" ]);
  for _ = 1 to 2 do
    match Registry.invoke r ~name:"down" ~params:[ t "k" ] () with
    | _ -> Alcotest.fail "expected Service_failure"
    | exception Registry.Service_failure inv ->
      Alcotest.(check bool) "not served from cache" false inv.Registry.cached
  done;
  Alcotest.(check int) "failed twice" 2 (Registry.failed_count r)

(* ------------------------------------------------------------------ *)
(* Remote providers, through a scripted transport (no sockets): the same
   retry loop on the wall clock, with bytes and seconds as the transport
   reports them. *)

let fast_policy =
  policy ~max_retries:2 ~base_backoff:0.005 ~max_backoff:0.02 ~attempt_timeout:5.0 ()

let answer ?(served_push = false) ~sent ~received ~elapsed forest () =
  (forest, { Registry.sent; received; served_push; elapsed })

let lose ?(transient = true) ?(timeout = false) ~sent ~received ~elapsed reason () =
  raise
    (Registry.Transport_error
       {
         wire = { Registry.sent; received; served_push = false; elapsed };
         transient;
         timeout;
         reason;
       })

(* A transport replaying [steps], one per attempt, and a count of the
   attempts it served. *)
let scripted steps =
  let steps = ref steps and calls = ref 0 in
  let transport ~name:_ ~params:_ ~push:_ ~timeout:_ ~obs:_ =
    incr calls;
    match !steps with
    | step :: rest ->
      steps := rest;
      step ()
    | [] -> Alcotest.fail "transport called past its script"
  in
  (transport, calls)

(* The [service.attempt] spans in order: outcome and transport. *)
let attempt_spans obs =
  let module Trace = Axml_obs.Trace in
  let str k (n : Trace.node) =
    match List.assoc_opt k n.Trace.node_attrs with Some (Trace.Str v) -> v | _ -> "-"
  in
  let rec walk (n : Trace.node) =
    (if n.Trace.node_name = "service.attempt" then [ (str "outcome" n, str "transport" n) ]
     else [])
    @ List.concat_map walk n.Trace.children
  in
  match Trace.tree obs.Axml_obs.Obs.trace with
  | Ok forest -> List.concat_map walk forest
  | Error m -> Alcotest.fail m

let backoff_instants obs =
  Axml_obs.Trace.events obs.Axml_obs.Obs.trace
  |> List.filter (fun (e : Axml_obs.Trace.event) ->
         e.kind = Axml_obs.Trace.Instant && e.name = "service.backoff")
  |> List.length

let test_remote_transient_timeout_ok () =
  let transport, calls =
    scripted
      [
        lose ~sent:10 ~received:0 ~elapsed:0.01 "connection reset";
        lose ~timeout:true ~sent:10 ~received:3 ~elapsed:0.02 "deadline";
        answer ~sent:12 ~received:40 ~elapsed:0.03 [ t "sunny" ];
      ]
  in
  let r = Registry.create () in
  Registry.register_remote r ~name:"forecast" ~retry:fast_policy transport;
  let obs = Axml_obs.Obs.create () in
  let result, inv = Registry.invoke r ~name:"forecast" ~params:[ t "Paris" ] ~obs () in
  Alcotest.(check int) "three attempts" 3 !calls;
  Alcotest.(check bool) "answer" true (result = [ t "sunny" ]);
  Alcotest.(check int) "retries" 2 inv.Registry.retries;
  Alcotest.(check int) "timeouts" 1 inv.Registry.timeouts;
  Alcotest.(check bool) "not failed" false inv.Registry.failed;
  Alcotest.(check int) "request bytes" 32 inv.Registry.request_bytes;
  Alcotest.(check int) "response bytes" 43 inv.Registry.response_bytes;
  let waits =
    Registry.backoff_before fast_policy ~retry:1 +. Registry.backoff_before fast_policy ~retry:2
  in
  feq "backoff" waits inv.Registry.backoff_seconds;
  feq "cost" (0.01 +. 0.02 +. 0.03 +. waits) inv.Registry.cost;
  Alcotest.(check (list (pair string string)))
    "attempt spans"
    [ ("transient", "net"); ("timeout", "net"); ("ok", "net") ]
    (attempt_spans obs);
  Alcotest.(check int) "backoff instants" 2 (backoff_instants obs)

let test_remote_fatal_first_attempt () =
  let transport, calls =
    scripted [ lose ~transient:false ~sent:8 ~received:5 ~elapsed:0.001 "unknown service" ]
  in
  let r = Registry.create () in
  Registry.register_remote r ~name:"gone" ~retry:fast_policy transport;
  let obs = Axml_obs.Obs.create () in
  (match Registry.invoke r ~name:"gone" ~params:[ t "k" ] ~obs () with
  | _ -> Alcotest.fail "expected Service_failure"
  | exception Registry.Service_failure inv ->
    Alcotest.(check int) "retries" 0 inv.Registry.retries;
    Alcotest.(check bool) "failed" true inv.Registry.failed;
    Alcotest.(check int) "request bytes" 8 inv.Registry.request_bytes;
    Alcotest.(check int) "response bytes" 5 inv.Registry.response_bytes;
    feq "no backoff" 0.0 inv.Registry.backoff_seconds);
  Alcotest.(check int) "one attempt" 1 !calls;
  Alcotest.(check (list (pair string string)))
    "attempt spans" [ ("fatal", "net") ] (attempt_spans obs);
  Alcotest.(check int) "no backoff instants" 0 (backoff_instants obs)

let test_remote_memoization () =
  let full = [ t "full" ] in
  let transport, calls =
    scripted
      [
        answer ~served_push:true ~sent:5 ~received:6 ~elapsed:0.0 [ t "pruned" ];
        answer ~sent:5 ~received:9 ~elapsed:0.0 full;
      ]
  in
  let r = Registry.create () in
  Registry.register_remote r ~name:"m" ~memoize:true ~retry:fast_policy transport;
  let push = Axml_query.Pattern.make (Axml_query.Pattern.Const "full") [] in
  let params = [ t "k" ] in
  let _, pruned = Registry.invoke r ~name:"m" ~params ~push () in
  Alcotest.(check bool) "served pushed" true pruned.Registry.pushed;
  (* a pushed reply is pruned: it must not answer the next call *)
  let result, shipped = Registry.invoke r ~name:"m" ~params () in
  Alcotest.(check int) "transport reached again" 2 !calls;
  Alcotest.(check bool) "full reply" true (result = full && not shipped.Registry.cached);
  (* a full reply is cached *)
  let result, hit = Registry.invoke r ~name:"m" ~params () in
  Alcotest.(check int) "no third attempt" 2 !calls;
  Alcotest.(check bool) "cached" true hit.Registry.cached;
  Alcotest.(check int) "no bytes" 0 (hit.Registry.request_bytes + hit.Registry.response_bytes);
  Alcotest.(check bool) "cached answer" true (result = full)

(* Injected faults reach local services only: a remote service keeps an
   empty schedule and retries exactly as its transport dictates. *)
let test_remote_skips_injected_faults () =
  let transport, calls =
    scripted
      [
        lose ~sent:4 ~received:0 ~elapsed:0.001 "connection reset";
        answer ~sent:4 ~received:6 ~elapsed:0.001 [ t "ok" ];
      ]
  in
  let r = Registry.create () in
  Registry.register_remote r ~name:"remote" ~retry:fast_policy transport;
  Registry.register r ~name:"local" (fun _ -> [ t "l" ]);
  Registry.inject_faults r ~seed:3 [ Faults.Fail_transient ];
  Alcotest.(check bool) "local gets the schedule" true
    (Registry.fault_schedule r "local" = [ Faults.Fail_transient ]);
  Alcotest.(check bool) "remote schedule stays empty" true
    (Registry.fault_schedule r "remote" = []);
  let result, inv = Registry.invoke r ~name:"remote" ~params:[ t "k" ] () in
  Alcotest.(check int) "two attempts" 2 !calls;
  Alcotest.(check bool) "answer" true (result = [ t "ok" ]);
  Alcotest.(check int) "one retry" 1 inv.Registry.retries;
  Alcotest.(check bool) "not failed" false inv.Registry.failed

(* ------------------------------------------------------------------ *)
(* Spec attributes *)

let test_spec_fault_attributes () =
  let r = Registry.create () in
  ignore
    (Spec.load_string r
       {|<services>
           <service name="wobbly" flaky="0.25" slow="0.125" retries="5" timeout="2.5" backoff="0.01">
             <default><x/></default>
           </service>
           <service name="dead" fail="true" retries="0"><default/></service>
           <service name="plain"><default/></service>
         </services>|});
  (match Registry.fault_schedule r "wobbly" with
  | [ Faults.Flaky p; Faults.Slow s ] ->
    feq "flaky" 0.25 p;
    feq "slow" 0.125 s
  | _ -> Alcotest.fail "unexpected schedule for wobbly");
  let p = Registry.retry_policy r "wobbly" in
  Alcotest.(check int) "retries" 5 p.Registry.max_retries;
  feq "timeout" 2.5 p.Registry.attempt_timeout;
  feq "backoff" 0.01 p.Registry.base_backoff;
  Alcotest.(check bool) "dead is down" true
    (Registry.fault_schedule r "dead" = [ Faults.Fail_transient ]);
  (match Registry.invoke r ~name:"dead" ~params:[] () with
  | _ -> Alcotest.fail "expected Service_failure"
  | exception Registry.Service_failure inv ->
    Alcotest.(check int) "no retries" 0 inv.Registry.retries);
  Alcotest.(check bool) "plain is healthy" true (Registry.fault_schedule r "plain" = []);
  Alcotest.(check bool) "plain gets the default policy" true
    (Registry.retry_policy r "plain" = Registry.default_policy)

let test_spec_malformed_fault_attributes () =
  List.iter
    (fun attrs ->
      let src = Printf.sprintf {|<services><service name="s" %s><default/></service></services>|} attrs in
      let r = Registry.create () in
      match Spec.load_string r src with
      | exception Spec.Error _ -> ()
      | _ -> Alcotest.failf "expected Spec.Error on %s" attrs)
    [
      {|flaky="1.5"|};
      {|flaky="-0.1"|};
      {|flaky="often"|};
      {|slow="-2"|};
      {|retries="-1"|};
      {|retries="many"|};
      {|timeout="0"|};
      {|timeout="-1"|};
      {|timeout="soon"|};
      {|backoff="-0.5"|};
      {|fail="maybe"|};
    ]

(* ------------------------------------------------------------------ *)
(* The differential oracle (Def. 4): lazy under faults ⊆ fault-free
   naive; equality when retries mask every transient fault. *)

(* Binding signatures and the fault-case generator are shared with the
   other suites; see test/gen.ml. *)
let tuples = Gen.tuples
let subset = Gen.subset

let case_cfg (c : Gen.fault_case) =
  {
    Synthetic.default_config with
    Synthetic.nodes = 150;
    seed = c.Gen.doc_seed;
    magic_fraction = 0.4;
    call_fraction = 0.7;
  }

let arb_case = Gen.arb_fault_case

let fault_free_reference c =
  let inst = Synthetic.generate (case_cfg c) in
  tuples
    (Engine.naive_run inst.Synthetic.registry inst.Synthetic.query inst.Synthetic.doc)
      .Engine.answers

let faulted_instance (c : Gen.fault_case) ~max_retries =
  let inst = Synthetic.generate (case_cfg c) in
  let schedule =
    Faults.Flaky c.Gen.rate :: (if c.Gen.permanent then [ Faults.Timeout 3.0 ] else [])
  in
  Registry.inject_faults inst.Synthetic.registry ~seed:c.Gen.fault_seed schedule;
  Registry.set_retry_policy inst.Synthetic.registry
    (policy ~max_retries ~base_backoff:0.01 ~max_backoff:0.1
       ~attempt_timeout:(if c.Gen.permanent then 0.5 else infinity)
       ());
  inst

let prop_lazy_under_faults_subset_of_naive =
  QCheck.Test.make ~name:"lazy under faults ⊆ fault-free naive (Def. 4)" ~count:300 arb_case
    (fun c ->
      let reference = fault_free_reference c in
      let inst = faulted_instance c ~max_retries:2 in
      let r =
        Lazy_eval.run ~registry:inst.Synthetic.registry ~schema:inst.Synthetic.schema
          inst.Synthetic.query inst.Synthetic.doc
      in
      let answers = tuples r.Engine.answers in
      subset answers reference
      && r.Engine.complete = (r.Engine.failed_calls = 0)
      && ((not r.Engine.complete) || answers = reference))

let prop_enough_retries_mask_transients =
  (* Flaky-only schedules with 30 retries: a call defeats all 31 attempts
     with probability <= 0.6^31 ~ 1e-7 at the rates drawn here, so the
     equality half of Def. 4 holds for every generated case. *)
  QCheck.Test.make ~name:"retries high enough ⇒ lazy under faults = fault-free naive" ~count:300
    Gen.arb_transient_fault_case
    (fun c ->
      let reference = fault_free_reference c in
      let inst = faulted_instance c ~max_retries:30 in
      let r =
        Lazy_eval.run ~registry:inst.Synthetic.registry ~schema:inst.Synthetic.schema
          inst.Synthetic.query inst.Synthetic.doc
      in
      r.Engine.complete && tuples r.Engine.answers = reference)

(* Same fault schedule, every named strategy: identical complete-flag
   semantics and the answer-subset invariant — catches a strategy whose
   failure path diverges (e.g. one that would splice an empty result). *)
let named_strategies =
  [
    ("nfqa", Lazy_eval.nfqa);
    ("nfqa_typed", Lazy_eval.nfqa_typed);
    ("lpq_only", Lazy_eval.lpq_only);
    ("with_fguide", Lazy_eval.with_fguide Lazy_eval.nfqa);
    ("with_push", Lazy_eval.with_push Lazy_eval.nfqa_typed);
  ]

let prop_all_strategies_degrade_gracefully =
  QCheck.Test.make ~name:"every strategy: subset invariant + complete semantics under faults"
    ~count:100 arb_case (fun c ->
      let reference = fault_free_reference c in
      List.for_all
        (fun (name, strategy) ->
          let inst = faulted_instance c ~max_retries:2 in
          let r =
            Lazy_eval.run ~registry:inst.Synthetic.registry ~schema:inst.Synthetic.schema
              ~strategy inst.Synthetic.query inst.Synthetic.doc
          in
          let answers = tuples r.Engine.answers in
          let ok =
            subset answers reference
            && r.Engine.complete = (r.Engine.failed_calls = 0)
            && ((not r.Engine.complete) || answers = reference)
          in
          if not ok then QCheck.Test.fail_reportf "strategy %s diverged" name else ok)
        named_strategies)

let prop_naive_under_faults_subset =
  QCheck.Test.make ~name:"naive under faults ⊆ fault-free naive" ~count:100 arb_case (fun c ->
      let reference = fault_free_reference c in
      let inst = faulted_instance c ~max_retries:2 in
      let r = Engine.naive_run inst.Synthetic.registry inst.Synthetic.query inst.Synthetic.doc in
      let answers = tuples r.Engine.answers in
      subset answers reference
      && r.Engine.complete = (r.Engine.failed_calls = 0)
      && ((not r.Engine.complete) || answers = reference))

(* ------------------------------------------------------------------ *)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "faults"
    [
      ( "retry",
        [
          quick "permanent failure accounting" test_permanent_failure_accounting;
          quick "backoff cap arithmetic" test_backoff_cap;
          quick "backoff edge cases" test_backoff_edge_cases;
          quick "timeout classification" test_timeout_classification;
          quick "slow within budget succeeds" test_slow_within_budget_succeeds;
          quick "request ships per attempt" test_request_ships_per_attempt;
          quick "retries mask flakiness" test_retries_eventually_mask_flakiness;
          quick "cache hits skip faults" test_cache_hits_skip_faults;
        ] );
      ( "remote",
        [
          quick "transient, timeout, ok" test_remote_transient_timeout_ok;
          quick "fatal first attempt" test_remote_fatal_first_attempt;
          quick "memoizes full replies only" test_remote_memoization;
          quick "injected faults skip remote services" test_remote_skips_injected_faults;
        ] );
      ( "determinism",
        [
          quick "same seed, same log" test_schedule_determinism;
          quick "registry replays Faults.plan" test_registry_matches_plan;
        ] );
      ( "spec",
        [
          quick "fault attributes" test_spec_fault_attributes;
          quick "malformed attributes" test_spec_malformed_fault_attributes;
        ] );
      ( "differential",
        [
          QCheck_alcotest.to_alcotest prop_lazy_under_faults_subset_of_naive;
          QCheck_alcotest.to_alcotest prop_enough_retries_mask_transients;
          QCheck_alcotest.to_alcotest prop_all_strategies_degrade_gracefully;
          QCheck_alcotest.to_alcotest prop_naive_under_faults_subset;
        ] );
    ]
