(* Tests for the Axml_exec worker pools (threads, and the process-wide
   domain pool behind the match fan-out) and the concurrent §4.4 batch
   path: order preservation, exception propagation, the inline fallback
   at one job and for small batches, concurrent callers of the domain
   pool, a qcheck property that no work is lost or duplicated, and
   a differential check that a pooled evaluation of a seeded faulty
   workload is identical to the sequential one — answers (bytes),
   counts, fault fates, metrics and trace. *)

module Exec = Axml_exec.Exec
module Eval = Axml_query.Eval
module Registry = Axml_services.Registry
module Faults = Axml_services.Faults
module Lazy_eval = Axml_core.Lazy_eval
module Engine = Axml_engine.Engine
module City = Axml_workload.City
module Obs = Axml_obs.Obs
module Trace = Axml_obs.Trace
module Metrics = Axml_obs.Metrics

let with_pool jobs f =
  let pool = Exec.create ~jobs () in
  Fun.protect ~finally:(fun () -> Exec.shutdown pool) (fun () -> f pool)

(* ------------------------------------------------------------------ *)
(* The pool itself *)

(* A map_batch case runs on a thread pool of [jobs] and on the
   process-wide domain pool alike: one worker loop serves both. *)
type mapper = { map : 'a 'b. ('a -> 'b) -> 'a list -> 'b list }

let on_both_pools jobs check =
  with_pool jobs (fun pool -> check "threads" { map = (fun f xs -> Exec.map_batch pool f xs) });
  check "domains" { map = Exec.map_domains }

let test_order_preserved () =
  on_both_pools 4 (fun kind { map } ->
      let xs = List.init 100 Fun.id in
      let ys =
        map
          (fun x ->
            if x mod 7 = 0 then Thread.yield ();
            x * x)
          xs
      in
      Alcotest.(check (list int)) (kind ^ ": squares in order") (List.map (fun x -> x * x) xs) ys)

exception Boom of int

let test_exception_propagation () =
  on_both_pools 4 (fun kind { map } ->
      let mu = Mutex.create () in
      let ran = ref 0 in
      let xs = List.init 50 Fun.id in
      match
        map
          (fun x ->
            Mutex.protect mu (fun () -> incr ran);
            if x mod 10 = 3 then raise (Boom x);
            x)
          xs
      with
      | _ -> Alcotest.fail (kind ^ ": expected Boom")
      | exception Boom i ->
        Alcotest.(check int) (kind ^ ": lowest failing index wins") 3 i;
        (* the batch joins before raising: nothing is abandoned mid-air *)
        Alcotest.(check int) (kind ^ ": every element was still processed") 50 !ran)

let test_small_batches_inline () =
  let me = (Thread.id (Thread.self ()), (Domain.self () :> int)) in
  on_both_pools 4 (fun kind { map } ->
      Alcotest.(check (list int)) (kind ^ ": empty batch") [] (map (fun _ -> assert false) []);
      match map (fun () -> (Thread.id (Thread.self ()), (Domain.self () :> int))) [ () ] with
      | [ who ] -> Alcotest.(check bool) (kind ^ ": singleton ran in the caller") true (who = me)
      | _ -> Alcotest.fail (kind ^ ": singleton batch lost its result"))

let test_concurrent_domain_fan_outs () =
  (* concurrent evaluations in one process each fan their match out on
     the one domain pool: every caller drains its own batch and gets its
     own results back *)
  let results = Array.make 4 [] in
  let caller k =
    for _ = 1 to 25 do
      results.(k) <- Exec.map_domains (fun x -> (k * 1000) + x) (List.init 16 Fun.id)
    done
  in
  List.iter Thread.join (List.init 4 (fun k -> Thread.create caller k));
  Array.iteri
    (fun k ys ->
      Alcotest.(check (list int))
        (Printf.sprintf "caller %d got its own results" k)
        (List.init 16 (fun x -> (k * 1000) + x))
        ys)
    results

let test_inline_at_one_job () =
  with_pool 1 (fun pool ->
      Alcotest.(check int) "no worker threads at jobs=1" 1 (Exec.jobs pool);
      let me = Thread.id (Thread.self ()) in
      let tids =
        Exec.map_batch pool (fun _ -> Thread.id (Thread.self ())) (List.init 8 Fun.id)
      in
      List.iter (fun tid -> Alcotest.(check int) "ran in the caller" me tid) tids);
  (* a shut-down pool degrades to inline instead of deadlocking *)
  let pool = Exec.create ~jobs:4 () in
  Exec.shutdown pool;
  Alcotest.(check (list int)) "inline after shutdown" [ 1; 2; 3 ]
    (Exec.map_batch pool (fun x -> x) [ 1; 2; 3 ])

let test_nested_batches () =
  (* the caller drains its own batch, so nesting map_batch on one pool
     cannot deadlock even with every worker busy *)
  with_pool 3 (fun pool ->
      let grid =
        Exec.map_batch pool
          (fun i -> Exec.map_batch pool (fun j -> (i * 10) + j) (List.init 4 Fun.id))
          (List.init 4 Fun.id)
      in
      Alcotest.(check (list (list int)))
        "nested batches complete"
        (List.init 4 (fun i -> List.init 4 (fun j -> (i * 10) + j)))
        grid)

let prop_no_lost_or_duplicated_work =
  QCheck.Test.make ~name:"map_batch loses and duplicates nothing" ~count:50
    QCheck.(pair (int_range 1 8) (small_list small_int))
    (fun (jobs, xs) ->
      let ok = ref true in
      on_both_pools jobs (fun _ { map } ->
          let mu = Mutex.create () in
          let seen = ref [] in
          let ys =
            map
              (fun x ->
                Mutex.protect mu (fun () -> seen := x :: !seen);
                x + 1)
              xs
          in
          ok :=
            !ok
            && ys = List.map (fun x -> x + 1) xs
            && List.sort compare !seen = List.sort compare xs);
      !ok)

(* ------------------------------------------------------------------ *)
(* Differential: pooled evaluation ≡ sequential evaluation *)

let answer_bytes (r : Engine.report) =
  Axml_xml.Print.forest_to_string (Eval.bindings_to_xml r.Engine.answers)

(* Every hotel intensional so layers are wide enough to really batch;
   five_star_fraction < 1 keeps the query selective. *)
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

(* One lazy evaluation of the seeded faulty city workload at [jobs]
   workers, under a full (trace + metrics) observability sink. *)
let run_city ~jobs =
  let inst = City.generate city_cfg in
  Registry.inject_faults inst.City.registry ~seed:5 [ Faults.Flaky 0.3 ];
  let obs = Obs.create () in
  let pool = if jobs > 1 then Some (Exec.create ~jobs ()) else None in
  Fun.protect
    ~finally:(fun () -> Option.iter Exec.shutdown pool)
    (fun () ->
      let r =
        Lazy_eval.run ~registry:inst.City.registry ~schema:inst.City.schema
          ~strategy:Lazy_eval.nfqa_typed ?pool ~obs inst.City.query inst.City.doc
      in
      (r, obs, inst.City.registry))

(* An invocation's identity and fate, in an order-independent shape:
   concurrent histories interleave, so we compare them as multisets. *)
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

let test_pooled_matches_sequential () =
  let seq, _, seq_reg = run_city ~jobs:1 in
  let pooled, _, pooled_reg = run_city ~jobs:4 in
  Alcotest.(check string) "byte-identical answers" (answer_bytes seq) (answer_bytes pooled);
  Alcotest.(check int) "identical invoked" seq.Engine.invoked pooled.Engine.invoked;
  Alcotest.(check int) "identical failed_calls" seq.Engine.failed_calls
    pooled.Engine.failed_calls;
  Alcotest.(check int) "identical retries" seq.Engine.retries pooled.Engine.retries;
  Alcotest.(check int) "identical timeouts" seq.Engine.timeouts pooled.Engine.timeouts;
  Alcotest.(check bool) "identical completeness" seq.Engine.complete
    pooled.Engine.complete;
  Alcotest.(check bool) "same fault fates" true (fates seq_reg = fates pooled_reg);
  Alcotest.(check (float 1e-9))
    "same simulated clock" seq.Engine.simulated_seconds
    pooled.Engine.simulated_seconds

let test_fault_determinism_across_jobs () =
  (* the fates of a seeded schedule are a property of the logical calls:
     any worker count replays them exactly *)
  let _, _, reg1 = run_city ~jobs:1 in
  let reference = fates reg1 in
  List.iter
    (fun jobs ->
      let _, _, reg = run_city ~jobs in
      Alcotest.(check bool)
        (Printf.sprintf "fates at jobs=%d" jobs)
        true
        (fates reg = reference))
    [ 2; 4; 8 ]

let rec count_named name (ns : Trace.node list) =
  List.fold_left
    (fun acc (n : Trace.node) ->
      acc + (if n.Trace.node_name = name then 1 else 0) + count_named name n.Trace.children)
    0 ns

let test_pooled_observability_reconciles () =
  let r, obs, reg = run_city ~jobs:4 in
  let m = obs.Obs.metrics in
  Alcotest.(check (list string))
    "report = metrics" []
    (List.map (fun (x : Engine.mismatch) -> x.Engine.field) (Engine.reconcile r m));
  (* metrics = trace: the absorbed fragments keep the span tree
     well-formed and no per-attempt span is lost *)
  (match Trace.well_formed obs.Obs.trace with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("pooled trace ill-formed: " ^ m));
  match Trace.tree obs.Obs.trace with
  | Error m -> Alcotest.fail ("pooled trace has no tree: " ^ m)
  | Ok forest ->
    let history = Registry.history reg in
    let attempts =
      List.fold_left
        (fun acc (i : Registry.invocation) ->
          if i.Registry.cached then acc else acc + 1 + i.Registry.retries)
        0 history
    in
    Alcotest.(check int)
      "one service.attempt span per wire attempt" attempts
      (count_named "service.attempt" forest);
    Alcotest.(check int)
      "one service.invoke span per uncached invocation"
      (List.length (List.filter (fun (i : Registry.invocation) -> not i.Registry.cached) history))
      (count_named "service.invoke" forest)

(* ------------------------------------------------------------------ *)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "exec"
    [
      ( "pool",
        [
          quick "order preserved" test_order_preserved;
          quick "exception propagation" test_exception_propagation;
          quick "jobs=1 runs inline" test_inline_at_one_job;
          quick "nested batches" test_nested_batches;
          quick "empty and singleton batches run inline" test_small_batches_inline;
          quick "concurrent domain fan-outs" test_concurrent_domain_fan_outs;
          QCheck_alcotest.to_alcotest prop_no_lost_or_duplicated_work;
        ] );
      ( "differential",
        [
          quick "pooled ≡ sequential" test_pooled_matches_sequential;
          quick "fault fates at any jobs" test_fault_determinism_across_jobs;
          quick "pooled observability reconciles" test_pooled_observability_reconciles;
        ] );
    ]
