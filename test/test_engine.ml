(* Differential suite for the unified evaluation engine.

   The fixture constants below are the exact reports the pre-refactor
   evaluators — each still owning a private invocation driver — produced
   on these seeded workloads; they were captured before [lib/engine]
   existed. Replaying the same workloads through the engine must
   reproduce them bit for bit: answers (compared as a digest of their
   XML serialization), every counter including the fault accounting,
   and the per-invocation fault fates — at jobs = 1 and jobs = 4, for
   both strategies. The suite also covers the report ≡ metrics ≡ trace
   reconciliation invariant (now emitted from exactly one place), the
   budget guard at every pool width and the registry's single-flight
   memoization. *)

module Doc = Axml_doc
module P = Axml_query.Pattern
module Eval = Axml_query.Eval
module Tree = Axml_xml.Tree
module Registry = Axml_services.Registry
module Faults = Axml_services.Faults
module Engine = Axml_engine.Engine
module Lazy_eval = Axml_core.Lazy_eval
module City = Axml_workload.City
module Synthetic = Axml_workload.Synthetic
module Obs = Axml_obs.Obs
module Trace = Axml_obs.Trace
module Metrics = Axml_obs.Metrics
module Json = Axml_obs.Json
module Exec = Axml_exec.Exec

let with_pool jobs f =
  if jobs <= 1 then f None
  else begin
    let pool = Exec.create ~jobs () in
    Fun.protect ~finally:(fun () -> Exec.shutdown pool) (fun () -> f (Some pool))
  end

let digest answers =
  Digest.to_hex
    (Digest.string (Axml_xml.Print.forest_to_string (Eval.bindings_to_xml answers)))

(* ------------------------------------------------------------------ *)
(* Pre-refactor fixtures *)

type fixture = {
  f_digest : string;
  f_invoked : int;
  f_pushed : int;
  f_rounds : int;
  f_passes : int;
  f_relevance_evals : int;
  f_candidates_checked : int;
  f_layer_count : int;
  f_simulated : float;
  f_bytes : int;
  f_retries : int;
  f_timeouts : int;
  f_failed : int;
  f_backoff : float;
  f_complete : bool;
}

let city_faulty_naive =
  {
    f_digest = "3b7eda9da5631985a1ba767795adcd7e";
    f_invoked = 30;
    f_pushed = 0;
    f_rounds = 1;
    f_passes = 0;
    f_relevance_evals = 0;
    f_candidates_checked = 0;
    f_layer_count = 0;
    f_simulated = 0.901835;
    f_bytes = 19570;
    f_retries = 13;
    f_timeouts = 0;
    f_failed = 0;
    f_backoff = 2.2;
    f_complete = true;
  }

let city_faulty_lazy =
  {
    f_digest = "3b7eda9da5631985a1ba767795adcd7e";
    f_invoked = 17;
    f_pushed = 0;
    f_rounds = 2;
    f_passes = 9;
    f_relevance_evals = 16;
    f_candidates_checked = 0;
    f_layer_count = 7;
    f_simulated = 1.101856;
    f_bytes = 12685;
    f_retries = 6;
    f_timeouts = 0;
    f_failed = 0;
    f_backoff = 1.0;
    f_complete = true;
  }

let city_push_lazy =
  {
    f_digest = "d8565f3e39b695e7c1198adcbcebb491";
    f_invoked = 5;
    f_pushed = 5;
    f_rounds = 3;
    f_passes = 10;
    f_relevance_evals = 17;
    f_candidates_checked = 0;
    f_layer_count = 7;
    f_simulated = 0.150665;
    f_bytes = 968;
    f_retries = 0;
    f_timeouts = 0;
    f_failed = 0;
    f_backoff = 0.0;
    f_complete = true;
  }

let synth_faulty_naive =
  {
    f_digest = "d19b9966313f06b4b4a54c252942abf4";
    f_invoked = 48;
    f_pushed = 0;
    f_rounds = 1;
    f_passes = 0;
    f_relevance_evals = 0;
    f_candidates_checked = 0;
    f_layer_count = 0;
    f_simulated = 0.900004;
    f_bytes = 1618;
    f_retries = 71;
    f_timeouts = 0;
    f_failed = 17;
    f_backoff = 14.9;
    f_complete = false;
  }

let synth_faulty_lazy =
  {
    f_digest = "d19b9966313f06b4b4a54c252942abf4";
    f_invoked = 10;
    f_pushed = 0;
    f_rounds = 10;
    f_passes = 13;
    f_relevance_evals = 35;
    f_candidates_checked = 0;
    f_layer_count = 3;
    f_simulated = 4.50041;
    f_bytes = 410;
    f_retries = 20;
    f_timeouts = 0;
    f_failed = 0;
    f_backoff = 3.0;
    f_complete = true;
  }

let check_fixture name (f : fixture) (r : Engine.report) =
  let c what = name ^ ": " ^ what in
  Alcotest.(check string) (c "answers digest") f.f_digest (digest r.Engine.answers);
  Alcotest.(check int) (c "invoked") f.f_invoked r.Engine.invoked;
  Alcotest.(check int) (c "pushed") f.f_pushed r.Engine.pushed;
  Alcotest.(check int) (c "rounds") f.f_rounds r.Engine.rounds;
  Alcotest.(check int) (c "passes") f.f_passes r.Engine.passes;
  Alcotest.(check int) (c "relevance_evals") f.f_relevance_evals r.Engine.relevance_evals;
  Alcotest.(check int)
    (c "candidates_checked") f.f_candidates_checked r.Engine.candidates_checked;
  Alcotest.(check int) (c "layer_count") f.f_layer_count r.Engine.layer_count;
  Alcotest.(check (float 1e-9)) (c "simulated clock") f.f_simulated r.Engine.simulated_seconds;
  Alcotest.(check int) (c "bytes") f.f_bytes r.Engine.bytes_transferred;
  Alcotest.(check int) (c "retries") f.f_retries r.Engine.retries;
  Alcotest.(check int) (c "timeouts") f.f_timeouts r.Engine.timeouts;
  Alcotest.(check int) (c "failed_calls") f.f_failed r.Engine.failed_calls;
  Alcotest.(check (float 1e-9)) (c "backoff") f.f_backoff r.Engine.backoff_seconds;
  Alcotest.(check bool) (c "complete") f.f_complete r.Engine.complete

(* ------------------------------------------------------------------ *)
(* Workloads (identical to the pre-refactor capture runs) *)

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

let push_cfg = { City.default_config with City.hotels = 12; seed = 3 }
let synth_cfg = { Synthetic.default_config with Synthetic.nodes = 2000; seed = 13 }

let faulty_city () =
  let inst = City.generate city_cfg in
  Registry.inject_faults inst.City.registry ~seed:5 [ Faults.Flaky 0.3 ];
  inst

let faulty_synth () =
  let inst = Synthetic.generate synth_cfg in
  Registry.inject_faults inst.Synthetic.registry ~seed:9 [ Faults.Flaky 0.6 ];
  inst

let run_city_naive ?obs pool =
  let inst = faulty_city () in
  let r = Engine.naive_run ?pool ?obs inst.City.registry inst.City.query inst.City.doc in
  (r, inst.City.registry)

let run_city_lazy ?obs pool =
  let inst = faulty_city () in
  let r =
    Lazy_eval.run ~registry:inst.City.registry ~schema:inst.City.schema
      ~strategy:Lazy_eval.nfqa_typed ?pool ?obs inst.City.query inst.City.doc
  in
  (r, inst.City.registry)

let run_city_push ?obs pool =
  let inst = City.generate push_cfg in
  let r =
    Lazy_eval.run ~registry:inst.City.registry ~schema:inst.City.schema
      ~strategy:(Lazy_eval.with_push Lazy_eval.nfqa_typed) ?pool ?obs inst.City.query
      inst.City.doc
  in
  (r, inst.City.registry)

let run_synth_naive ?obs pool =
  let inst = faulty_synth () in
  let r =
    Engine.naive_run ?pool ?obs inst.Synthetic.registry inst.Synthetic.query
      inst.Synthetic.doc
  in
  (r, inst.Synthetic.registry)

let run_synth_lazy ?obs pool =
  let inst = faulty_synth () in
  let r =
    Lazy_eval.run ~registry:inst.Synthetic.registry ~schema:inst.Synthetic.schema
      ~strategy:Lazy_eval.nfqa_typed ?pool ?obs inst.Synthetic.query inst.Synthetic.doc
  in
  (r, inst.Synthetic.registry)

let fixtures =
  [
    ("city_faulty_naive", city_faulty_naive, run_city_naive);
    ("city_faulty_lazy", city_faulty_lazy, run_city_lazy);
    ("city_push_lazy", city_push_lazy, run_city_push);
    ("synth_faulty_naive", synth_faulty_naive, run_synth_naive);
    ("synth_faulty_lazy", synth_faulty_lazy, run_synth_lazy);
  ]

let test_fixtures ~jobs () =
  with_pool jobs (fun pool ->
      List.iter
        (fun (name, fixture, run) ->
          let r, _ = run ?obs:None pool in
          check_fixture (Printf.sprintf "%s@jobs=%d" name jobs) fixture r)
        fixtures)

(* An invocation's identity and fate, order-independent: concurrent
   histories interleave, so compare multisets. *)
let fates registry =
  List.sort compare
    (List.map
       (fun (i : Registry.invocation) ->
         ( i.Registry.service,
           i.Registry.request_bytes,
           i.Registry.retries,
           i.Registry.timeouts,
           i.Registry.failed ))
       (Registry.history registry))

let test_fault_fates_across_jobs () =
  List.iter
    (fun (name, run) ->
      let _, seq_reg = with_pool 1 (fun pool -> run ?obs:None pool) in
      let _, pooled_reg = with_pool 4 (fun pool -> run ?obs:None pool) in
      Alcotest.(check bool)
        (name ^ ": same fault fates at jobs=1 and jobs=4")
        true
        (fates seq_reg = fates pooled_reg))
    [
      ("city_faulty_naive", run_city_naive);
      ("city_faulty_lazy", run_city_lazy);
      ("synth_faulty_naive", run_synth_naive);
      ("synth_faulty_lazy", run_synth_lazy);
    ]

(* ------------------------------------------------------------------ *)
(* report ≡ metrics ≡ trace, for both strategies, through the one
   emission point in the engine *)

let rec count_named name (ns : Trace.node list) =
  List.fold_left
    (fun acc (n : Trace.node) ->
      acc + (if n.Trace.node_name = name then 1 else 0) + count_named name n.Trace.children)
    0 ns

let check_reconciles name (r : Engine.report) (obs : Obs.t) registry =
  let m = obs.Obs.metrics in
  Alcotest.(check (list string))
    (name ^ ": report = metrics") []
    (List.map (fun (x : Engine.mismatch) -> x.Engine.field) (Engine.reconcile r m));
  (match Trace.well_formed obs.Obs.trace with
  | Ok () -> ()
  | Error e -> Alcotest.fail (name ^ ": trace ill-formed: " ^ e));
  match Trace.tree obs.Obs.trace with
  | Error e -> Alcotest.fail (name ^ ": trace has no tree: " ^ e)
  | Ok forest ->
    let history = Registry.history registry in
    let uncached =
      List.filter (fun (i : Registry.invocation) -> not i.Registry.cached) history
    in
    let attempts =
      List.fold_left
        (fun acc (i : Registry.invocation) -> acc + 1 + i.Registry.retries)
        0 uncached
    in
    Alcotest.(check int)
      (name ^ ": one service.attempt span per wire attempt")
      attempts
      (count_named "service.attempt" forest);
    Alcotest.(check int)
      (name ^ ": one eval.round span per round")
      r.Engine.rounds
      (count_named "eval.round" forest)

let test_reconciliation () =
  List.iter
    (fun (name, run) ->
      let obs = Obs.create () in
      let r, registry = with_pool 4 (fun pool -> run ?obs:(Some obs) pool) in
      check_reconciles name r obs registry)
    [
      ("city_faulty_naive", run_city_naive);
      ("city_faulty_lazy", run_city_lazy);
      ("city_push_lazy", run_city_push);
      ("synth_faulty_naive", run_synth_naive);
    ]

(* The shared oracle is not vacuous: one metric drifting by one unit,
   counter or gauge, is reported as exactly that field. *)
let test_reconcile_names_the_drifted_field () =
  let run () =
    let obs = Obs.create () in
    let r, _ = run_city_lazy ~obs None in
    Alcotest.(check bool) "faults were hit" true (r.Engine.retries > 0);
    let drifted () =
      List.map
        (fun (x : Engine.mismatch) -> x.Engine.field)
        (Engine.reconcile r obs.Obs.metrics)
    in
    Alcotest.(check (list string)) "report = metrics after a faulty run" [] (drifted ());
    (r, obs.Obs.metrics, drifted)
  in
  let _, m, drifted = run () in
  Metrics.incr m "eval.retries";
  Alcotest.(check (list string)) "counter bumped" [ "retries" ] (drifted ());
  let r, m, drifted = run () in
  Metrics.set m "eval.view_rebuild_nodes" (float_of_int (r.Engine.view_rebuild_nodes + 1));
  Alcotest.(check (list string)) "gauge bumped" [ "view_rebuild_nodes" ] (drifted ())

(* ------------------------------------------------------------------ *)
(* The --report-json wire format, pinned byte for byte: every field's
   name, order and encoding, on a report whose fields all differ *)

let test_report_json_golden () =
  let doc =
    Doc.of_xml
      (Tree.Element
         { name = "hotel"; attrs = []; children = [ Tree.Text "Ritz" ] })
  in
  let r =
    {
      Engine.answers = [ { Eval.results = [ (1, Doc.root doc) ]; vars = [ ("x", "hotel") ] } ];
      invoked = 1;
      pushed = 2;
      rounds = 3;
      passes = 4;
      relevance_evals = 5;
      candidates_checked = 6;
      layer_count = 7;
      simulated_seconds = 8.25;
      analysis_seconds = 9.5;
      bytes_transferred = 10;
      retries = 11;
      timeouts = 12;
      failed_calls = 13;
      backoff_seconds = 14.75;
      full_nodes = 15;
      projected_nodes = 16;
      projected_bytes_saved = 17;
      sharded_calls = 18;
      rebalanced_calls = 19;
      rerouted_calls = 20;
      view_rebuild_nodes = 21;
      parallel_match_batches = 22;
      complete = false;
    }
  in
  Alcotest.(check string)
    "report JSON"
    ("{\"answers\":[{\"vars\":{\"x\":\"hotel\"},\"results\":[\"<hotel>Ritz</hotel>\"]}],"
   ^ "\"invoked\":1,\"pushed\":2,\"rounds\":3,\"passes\":4,\"relevance_evals\":5,"
   ^ "\"candidates_checked\":6,\"layer_count\":7,\"simulated_seconds\":8.25,"
   ^ "\"analysis_seconds\":9.5,\"bytes_transferred\":10,\"retries\":11,\"timeouts\":12,"
   ^ "\"failed_calls\":13,\"backoff_seconds\":14.75,\"full_nodes\":15,\"projected_nodes\":16,"
   ^ "\"projected_bytes_saved\":17,\"sharded_calls\":18,\"rebalanced_calls\":19,"
   ^ "\"rerouted_calls\":20,\"view_rebuild_nodes\":21,\"parallel_match_batches\":22,"
   ^ "\"complete\":false}")
    (Json.to_string (Engine.report_to_json r))

(* ------------------------------------------------------------------ *)
(* The whole-batch-fits-budget guard: the budget cuts at the same call
   at every pool width *)

let test_budget_cut_stable_across_jobs () =
  let run jobs =
    let inst = City.generate city_cfg in
    with_pool jobs (fun pool ->
        Engine.naive_run ~max_calls:5 ?pool inst.City.registry inst.City.query
          inst.City.doc)
  in
  let seq = run 1 in
  Alcotest.(check bool) "budget run is incomplete" false seq.Engine.complete;
  List.iter
    (fun jobs ->
      let r = run jobs in
      Alcotest.(check int)
        (Printf.sprintf "invoked at jobs=%d" jobs)
        seq.Engine.invoked r.Engine.invoked;
      Alcotest.(check string)
        (Printf.sprintf "answers at jobs=%d" jobs)
        (digest seq.Engine.answers) (digest r.Engine.answers);
      Alcotest.(check bool)
        (Printf.sprintf "complete at jobs=%d" jobs)
        seq.Engine.complete r.Engine.complete)
    [ 2; 4; 8 ]

(* ------------------------------------------------------------------ *)
(* Single-flight memoization: a pooled batch of identical calls to a
   memoized service runs the behaviour exactly once (the double-miss
   race regression) *)

let test_memo_single_flight () =
  let registry = Registry.create () in
  let mu = Mutex.create () in
  let runs = ref 0 in
  Registry.register registry ~name:"slow" ~memoize:true (fun params ->
      Mutex.protect mu (fun () -> incr runs);
      (* widen the race window: every duplicate has ample time to reach
         the cache while the first computation is still in flight *)
      Thread.yield ();
      Unix.sleepf 0.02;
      params);
  let params = [ Tree.Text "the-one-parameter" ] in
  let results =
    with_pool 8 (fun pool ->
        let pool = Option.get pool in
        Exec.map_batch pool
          (fun _ -> fst (Registry.invoke registry ~name:"slow" ~params ()))
          (List.init 8 Fun.id))
  in
  List.iter
    (fun r -> Alcotest.(check bool) "every caller got the result" true (r = params))
    results;
  Alcotest.(check int) "behaviour ran exactly once" 1 !runs;
  let history = Registry.history registry in
  Alcotest.(check int) "one invocation record per caller" 8 (List.length history);
  Alcotest.(check int) "exactly one full-cost (uncached) record" 1
    (List.length
       (List.filter (fun (i : Registry.invocation) -> not i.Registry.cached) history));
  Alcotest.(check int) "seven cache hits" 7
    (List.length (List.filter (fun (i : Registry.invocation) -> i.Registry.cached) history))

let test_memo_waiter_takes_over () =
  (* If the filler permanently fails, a waiter must take over as the
     next filler instead of deadlocking on the abandoned claim. *)
  let registry = Registry.create () in
  let mu = Mutex.create () in
  let runs = ref 0 in
  Registry.register registry ~name:"flaky" ~memoize:true
    ~retry:{ Registry.default_policy with Registry.max_retries = 0 }
    (fun params ->
      let n = Mutex.protect mu (fun () -> incr runs; !runs) in
      Thread.yield ();
      if n = 1 then failwith "first filler dies" else params);
  let params = [ Tree.Text "p" ] in
  let results =
    with_pool 4 (fun pool ->
        let pool = Option.get pool in
        Exec.map_batch pool
          (fun _ ->
            match Registry.invoke registry ~name:"flaky" ~params () with
            | forest, _ -> Some forest
            | exception _ -> None)
          (List.init 4 Fun.id))
  in
  let ok = List.filter_map Fun.id results in
  Alcotest.(check bool) "someone failed (the first filler)" true (List.length ok < 4);
  Alcotest.(check bool) "a waiter took over and succeeded" true (List.length ok >= 1);
  List.iter (fun r -> Alcotest.(check bool) "successors share the result" true (r = params)) ok;
  Alcotest.(check bool) "behaviour ran at most twice" true (!runs <= 2)

(* The same two regressions under raw-thread stress: many more threads
   than pool slots, several distinct keys, and a filler that fails a
   fixed number of times before succeeding. *)

let test_memo_stress () =
  let threads = 32 and keys = 5 in
  let registry = Registry.create () in
  let mu = Mutex.create () in
  let runs = ref 0 in
  Registry.register registry ~name:"slow" ~memoize:true (fun params ->
      Mutex.protect mu (fun () -> incr runs);
      Thread.yield ();
      Unix.sleepf 0.005;
      params);
  for key = 1 to keys do
    let params = [ Tree.Text (Printf.sprintf "key-%d" key) ] in
    let results = Array.make threads [] in
    let ts =
      List.init threads (fun i ->
          Thread.create
            (fun () -> results.(i) <- fst (Registry.invoke registry ~name:"slow" ~params ()))
            ())
    in
    List.iter Thread.join ts;
    Array.iter
      (fun r -> Alcotest.(check bool) "every thread got the result" true (r = params))
      results
  done;
  Alcotest.(check int) "one fill per key" keys !runs;
  let cached, missed =
    List.partition (fun (i : Registry.invocation) -> i.Registry.cached) (Registry.history registry)
  in
  Alcotest.(check int) "one uncached record per key" keys (List.length missed);
  Alcotest.(check int) "every other caller hit the cache"
    (keys * (threads - 1))
    (List.length cached)

let test_memo_stress_filler_failures () =
  (* The first three fills die; single-flight hands the claim to one
     waiter at a time, so exactly four runs happen, exactly three
     callers observe the failure, and everyone else shares the one
     successful fill. *)
  let threads = 16 in
  let registry = Registry.create () in
  let mu = Mutex.create () in
  let runs = ref 0 in
  Registry.register registry ~name:"flaky" ~memoize:true
    ~retry:{ Registry.default_policy with Registry.max_retries = 0 }
    (fun params ->
      let n = Mutex.protect mu (fun () -> incr runs; !runs) in
      Thread.yield ();
      Unix.sleepf 0.002;
      if n <= 3 then failwith "filler dies" else params);
  let params = [ Tree.Text "p" ] in
  let results = Array.make threads None in
  let ts =
    List.init threads (fun i ->
        Thread.create
          (fun () ->
            results.(i) <-
              (match Registry.invoke registry ~name:"flaky" ~params () with
              | forest, _ -> Some forest
              | exception _ -> None))
          ())
  in
  List.iter Thread.join ts;
  let ok = Array.to_list results |> List.filter_map Fun.id in
  Alcotest.(check int) "exactly four fills (three doomed + one good)" 4 !runs;
  Alcotest.(check int) "exactly three callers saw the failure" (threads - 3) (List.length ok);
  List.iter
    (fun r -> Alcotest.(check bool) "survivors share the result" true (r = params))
    ok

(* ------------------------------------------------------------------ *)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "engine"
    [
      ( "differential",
        [
          quick "pre-refactor fixtures at jobs=1" (test_fixtures ~jobs:1);
          quick "pre-refactor fixtures at jobs=4" (test_fixtures ~jobs:4);
          quick "fault fates at jobs=1 and jobs=4" test_fault_fates_across_jobs;
          quick "budget cuts identically at any jobs" test_budget_cut_stable_across_jobs;
        ] );
      ( "reconciliation",
        [
          quick "report = metrics = trace for both strategies" test_reconciliation;
          quick "reconcile names the drifted field" test_reconcile_names_the_drifted_field;
        ] );
      ("report", [ quick "report JSON is pinned byte for byte" test_report_json_golden ]);
      ( "memoization",
        [
          quick "pooled duplicates run the behaviour once" test_memo_single_flight;
          quick "waiter takes over a failed filler" test_memo_waiter_takes_over;
          quick "raw-thread stress: one fill per key" test_memo_stress;
          quick "raw-thread stress: filler failures hand over" test_memo_stress_filler_failures;
        ] );
    ]
