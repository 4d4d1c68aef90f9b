(* Tests for the observability subsystem: the JSON printer/parser, span
   algebra (nesting, merge, exception safety), serialization round-trips
   (JSONL and Chrome trace_event), the metrics registry, and the
   differential reconciliation guarantee — on a seeded faulty workload
   the metrics totals and trace rollups equal the evaluator's printed
   report field for field. *)

module Json = Axml_obs.Json
module Trace = Axml_obs.Trace
module Metrics = Axml_obs.Metrics
module Obs = Axml_obs.Obs
module Doc = Axml_doc
module Registry = Axml_services.Registry
module Faults = Axml_services.Faults
module Naive = Axml_core.Naive
module Engine = Axml_engine.Engine
module Lazy_eval = Axml_core.Lazy_eval
module City = Axml_workload.City

let feq = Alcotest.(check (float 1e-6))

let with_temp_file suffix f =
  let path = Filename.temp_file "axml_obs_test" suffix in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

(* a deterministic strictly-increasing wall clock *)
let ticker () =
  let t = ref 0.0 in
  fun () ->
    t := !t +. 0.001;
    !t

(* ------------------------------------------------------------------ *)
(* JSON *)

let kitchen_sink =
  Json.Obj
    [
      ("null", Json.Null);
      ("bools", Json.List [ Json.Bool true; Json.Bool false ]);
      ("int", Json.Int (-42));
      ("float", Json.Float 0.1250);
      ("whole float", Json.Float 2.0);
      ("string", Json.String "a\"b\\c\nd\te\r\x01f");
      ("nested", Json.Obj [ ("xs", Json.List [ Json.Int 1; Json.Obj [] ]) ]);
      ("empty list", Json.List []);
    ]

let test_json_roundtrip () =
  List.iter
    (fun indent ->
      match Json.parse (Json.to_string ~indent kitchen_sink) with
      | Error m -> Alcotest.failf "parse failed (indent %d): %s" indent m
      | Ok v ->
        Alcotest.(check bool)
          (Printf.sprintf "round-trip at indent %d" indent)
          true (v = kitchen_sink))
    [ 0; 2 ]

let test_json_parse_errors () =
  List.iter
    (fun src ->
      match Json.parse src with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "expected a parse error on %S" src)
    [ "{"; "[1,]"; "tru"; "1 x"; "\"unterminated"; "{\"a\" 1}"; "" ]

let test_json_accessors () =
  let j = Json.Obj [ ("a", Json.List [ Json.Int 1; Json.Float 2.5 ]); ("s", Json.String "x") ] in
  Alcotest.(check bool) "member missing" true (Json.member "zzz" j = Json.Null);
  Alcotest.(check bool) "member on scalar" true (Json.member "a" (Json.Int 3) = Json.Null);
  Alcotest.(check int) "list length" 2 (List.length (Json.to_list (Json.member "a" j)));
  Alcotest.(check (option string)) "string" (Some "x") (Json.string_value (Json.member "s" j));
  Alcotest.(check (option int)) "int of float is None" None (Json.int_value (Json.Float 2.5));
  feq "float accepts int" 3.0 (Option.get (Json.float_value (Json.Int 3)))

let test_json_lines () =
  with_temp_file ".jsonl" (fun path ->
      let oc = open_out path in
      output_string oc "{\"a\": 1}\n\n17\n\"s\"\n";
      close_out oc;
      match Json.parse_lines path with
      | Error m -> Alcotest.fail m
      | Ok vs -> Alcotest.(check int) "three non-empty lines" 3 (List.length vs))

let test_json_escapes () =
  match Json.parse {|"a\nbA\t\\"|} with
  | Ok (Json.String s) -> Alcotest.(check string) "escapes" "a\nbA\t\\" s
  | Ok _ -> Alcotest.fail "not a string"
  | Error m -> Alcotest.fail m

(* Adversarial inputs: unicode escapes, control characters, integer
   extremes and deep nesting must round-trip; near-miss garbage must be
   rejected, not silently accepted. *)

let test_json_unicode_escapes () =
  let cases =
    [
      ("\"\\u0041\"", "A");
      ("\"\\u00e9\"", "\xc3\xa9");  (* 2-byte UTF-8 *)
      ("\"\\u20AC\"", "\xe2\x82\xac");  (* 3-byte UTF-8, uppercase hex *)
      ("\"\\u0000\"", "\x00");
      ("\"\\u001f\\u007F\"", "\x1f\x7f");
    ]
  in
  List.iter
    (fun (src, expected) ->
      match Json.parse src with
      | Ok (Json.String s) -> Alcotest.(check string) src expected s
      | Ok _ -> Alcotest.failf "%s: not a string" src
      | Error m -> Alcotest.failf "%s: %s" src m)
    cases;
  (* whatever the printer emits for control characters must load back *)
  let hostile = Json.String "\x00\x01\x1f \"quote\" \\back\\ \xc3\xa9 \xe2\x82\xac" in
  match Json.parse (Json.to_string hostile) with
  | Ok v -> Alcotest.(check bool) "control chars round-trip" true (v = hostile)
  | Error m -> Alcotest.fail m

let test_json_unicode_rejection () =
  List.iter
    (fun src ->
      match Json.parse src with
      | Error _ -> ()
      | Ok v -> Alcotest.failf "accepted %S as %s" src (Json.to_string v))
    [
      {|"\u12_3"|};  (* int_of_string leniency: underscores are not hex *)
      {|"\u 123"|};
      {|"\u12"|};  (* truncated *)
      {|"\uZZZZ"|};
      {|"\u0x41"|};
      {|"\q"|};
    ]

let test_json_int_extremes () =
  List.iter
    (fun i ->
      match Json.parse (Json.to_string (Json.Int i)) with
      | Ok (Json.Int j) -> Alcotest.(check int) (string_of_int i) i j
      | Ok _ -> Alcotest.failf "%d did not come back as an int" i
      | Error m -> Alcotest.fail m)
    [ 0; -1; 1; max_int; min_int; max_int - 1; min_int + 1 ]

let test_json_deep_nesting () =
  let depth = 500 in
  let rec build d = if d = 0 then Json.Int 7 else Json.Obj [ ("k", build (d - 1)) ] in
  let rec probe d j =
    if d = 0 then Alcotest.(check bool) "leaf" true (j = Json.Int 7)
    else probe (d - 1) (Json.member "k" j)
  in
  let deep = build depth in
  match Json.parse (Json.to_string deep) with
  | Ok v -> probe depth v
  | Error m -> Alcotest.fail m

(* ------------------------------------------------------------------ *)
(* Trace: span algebra *)

let test_span_nesting () =
  let tr = Trace.create ~clock:(ticker ()) () in
  let a = Trace.open_span tr ~cat:"outer" "a" in
  let b = Trace.open_span tr ~attrs:[ ("k", Trace.Int 1); ("keep", Trace.Bool true) ] "b" in
  Trace.instant tr ~attrs:[ ("note", Trace.Str "hi") ] "i";
  Trace.close_span tr ~attrs:[ ("k", Trace.Int 2) ] b;
  Trace.close_span tr a;
  (match Trace.well_formed tr with
  | Ok () -> ()
  | Error m -> Alcotest.failf "well_formed: %s" m);
  match Trace.tree tr with
  | Error m -> Alcotest.fail m
  | Ok [ root ] ->
    Alcotest.(check string) "root" "a" root.Trace.node_name;
    Alcotest.(check string) "category" "outer" root.Trace.node_cat;
    (match root.Trace.children with
    | [ b_node ] ->
      Alcotest.(check string) "child" "b" b_node.Trace.node_name;
      (* close attrs win on duplicate keys, open-only attrs survive *)
      Alcotest.(check bool) "close wins" true
        (List.assoc "k" b_node.Trace.node_attrs = Trace.Int 2);
      Alcotest.(check bool) "open attr kept" true
        (List.assoc "keep" b_node.Trace.node_attrs = Trace.Bool true);
      (match b_node.Trace.children with
      | [ i_node ] ->
        Alcotest.(check string) "instant nested" "i" i_node.Trace.node_name;
        feq "instants have no width" 0.0 (i_node.Trace.wall_end -. i_node.Trace.wall_start)
      | _ -> Alcotest.fail "instant not attached to b")
    | _ -> Alcotest.fail "b not attached to a")
  | Ok _ -> Alcotest.fail "expected one root"

let test_lifo_violation_detected () =
  let tr = Trace.create ~clock:(ticker ()) () in
  let a = Trace.open_span tr "a" in
  let _b = Trace.open_span tr "b" in
  Trace.close_span tr a;
  match Trace.well_formed tr with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "closing out of LIFO order must not be well-formed"

let test_unclosed_span_detected () =
  let tr = Trace.create ~clock:(ticker ()) () in
  let _a = Trace.open_span tr "a" in
  match Trace.well_formed tr with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "an open span must not be well-formed"

let test_with_span_closes_on_raise () =
  let tr = Trace.create ~clock:(ticker ()) () in
  (try Trace.with_span tr "risky" (fun () -> failwith "boom") with Failure _ -> ());
  (match Trace.well_formed tr with
  | Ok () -> ()
  | Error m -> Alcotest.failf "well_formed after raise: %s" m);
  match Trace.tree tr with
  | Ok [ n ] ->
    Alcotest.(check bool) "raised attr recorded" true
      (List.mem_assoc "raised" n.Trace.node_attrs)
  | _ -> Alcotest.fail "expected exactly the closed risky span"

let test_sim_clock () =
  let tr = Trace.create ~clock:(ticker ()) () in
  let a = Trace.open_span tr "a" in
  Trace.advance tr 1.5;
  Trace.advance tr 0.5;
  feq "advance accumulates" 2.0 (Trace.sim_now tr);
  Trace.close_span tr a;
  match Trace.tree tr with
  | Ok [ n ] ->
    feq "span saw the simulated interval" 2.0 (n.Trace.sim_end -. n.Trace.sim_start)
  | _ -> Alcotest.fail "tree"

let test_null_trace_is_free () =
  let tr = Trace.null in
  Alcotest.(check bool) "disabled" false (Trace.enabled tr);
  let s = Trace.open_span tr ~attrs:[ ("k", Trace.Int 1) ] "a" in
  Alcotest.(check bool) "none handle" true (s = Trace.none);
  Trace.advance tr 5.0;
  Trace.close_span tr s;
  Trace.instant tr "i";
  Alcotest.(check int) "nothing recorded" 0 (List.length (Trace.events tr));
  feq "sim untouched" 0.0 (Trace.sim_now tr);
  Alcotest.(check bool) "vacuously well-formed" true (Trace.well_formed tr = Ok ())

(* ------------------------------------------------------------------ *)
(* Trace: serialization round-trips *)

let sample_trace () =
  let tr = Trace.create ~clock:(ticker ()) () in
  let root = Trace.open_span tr ~cat:"eval" ~attrs:[ ("q", Trace.Str "city") ] "eval.run" in
  let round = Trace.open_span tr ~attrs:[ ("calls", Trace.Int 2) ] "eval.round" in
  let inv = Trace.open_span tr ~cat:"service" ~attrs:[ ("bytes", Trace.Int 10) ] "service.invoke" in
  Trace.advance tr 0.25;
  Trace.close_span tr inv;
  let inv2 = Trace.open_span tr ~cat:"service" ~attrs:[ ("bytes", Trace.Int 32) ] "service.invoke" in
  Trace.advance tr 0.25;
  Trace.close_span tr inv2;
  Trace.close_span tr ~attrs:[ ("batch_cost_s", Trace.Float 0.5) ] round;
  Trace.instant tr "eval.note";
  Trace.close_span tr root;
  tr

let rec flatten (n : Trace.node) = n :: List.concat_map flatten n.Trace.children
let flatten_forest ns = List.concat_map flatten ns
let names ns = List.map (fun (n : Trace.node) -> n.Trace.node_name) (flatten_forest ns)

let test_jsonl_roundtrip () =
  let tr = sample_trace () in
  let expected = match Trace.tree tr with Ok ns -> ns | Error m -> Alcotest.fail m in
  with_temp_file ".jsonl" (fun path ->
      Trace.write_jsonl path tr;
      match Trace.load_file path with
      | Error m -> Alcotest.fail m
      | Ok loaded ->
        (* JSONL is the exact format: the loaded forest is the original *)
        Alcotest.(check bool) "identical forest" true (loaded = expected))

let test_chrome_roundtrip () =
  let tr = sample_trace () in
  let expected = match Trace.tree tr with Ok ns -> ns | Error m -> Alcotest.fail m in
  with_temp_file ".trace.json" (fun path ->
      Trace.write_chrome path tr;
      match Trace.load_file path with
      | Error m -> Alcotest.fail m
      | Ok loaded ->
        Alcotest.(check (list string)) "same span structure" (names expected) (names loaded);
        let pick which ns =
          List.filter (fun (n : Trace.node) -> n.Trace.node_name = which) (flatten_forest ns)
        in
        List.iter2
          (fun (a : Trace.node) (b : Trace.node) ->
            Alcotest.(check bool) "attrs survive args" true
              (List.assoc "bytes" a.Trace.node_attrs = List.assoc "bytes" b.Trace.node_attrs);
            feq "sim interval survives" (a.Trace.sim_end -. a.Trace.sim_start)
              (b.Trace.sim_end -. b.Trace.sim_start))
          (pick "service.invoke" expected) (pick "service.invoke" loaded))

let test_chrome_closes_partial_traces () =
  let tr = Trace.create ~clock:(ticker ()) () in
  let _root = Trace.open_span tr "eval.run" in
  let inner = Trace.open_span tr "eval.round" in
  Trace.close_span tr inner;
  (* the root is still open: the Chrome writer synthesizes its end *)
  with_temp_file ".trace.json" (fun path ->
      Trace.write_chrome path tr;
      match Trace.load_file path with
      | Error m -> Alcotest.fail m
      | Ok [ root ] ->
        Alcotest.(check string) "root survived" "eval.run" root.Trace.node_name;
        Alcotest.(check int) "child survived" 1 (List.length root.Trace.children)
      | Ok _ -> Alcotest.fail "expected one root")

let test_chrome_is_valid_trace_event_json () =
  let tr = sample_trace () in
  let json = Trace.to_chrome tr in
  (* re-parse what we print; check the trace_event envelope *)
  match Json.parse (Json.to_string json) with
  | Error m -> Alcotest.fail m
  | Ok j ->
    let evs = Json.to_list (Json.member "traceEvents" j) in
    Alcotest.(check bool) "has events" true (List.length evs > 0);
    List.iter
      (fun ev ->
        let ph = Json.string_value (Json.member "ph" ev) in
        Alcotest.(check bool) "known phase" true
          (match ph with Some ("B" | "E" | "i" | "M") -> true | _ -> false);
        match ph with
        | Some "M" -> ()
        | _ ->
          Alcotest.(check bool) "timestamped" true (Json.float_value (Json.member "ts" ev) <> None);
          Alcotest.(check bool) "on a known thread" true
            (match Json.int_value (Json.member "tid" ev) with Some (1 | 2) -> true | _ -> false))
      evs

let test_rollup () =
  let tr = sample_trace () in
  match Trace.tree tr with
  | Ok [ root ] -> Alcotest.(check int) "bytes rollup" 42 (Trace.rollup_int "bytes" root)
  | _ -> Alcotest.fail "tree"

(* ------------------------------------------------------------------ *)
(* Metrics *)

let test_counters () =
  let m = Metrics.create () in
  Metrics.incr m "c";
  Metrics.incr m ~by:4 "c";
  Alcotest.(check int) "count" 5 (Metrics.count m "c");
  Metrics.incr m ~labels:[ ("service", "a") ] "svc";
  Metrics.incr m ~labels:[ ("service", "b") ] ~by:2 "svc";
  (* label order at the call site is irrelevant *)
  Metrics.incr m ~labels:[ ("x", "1"); ("service", "a") ] "svc2";
  Metrics.incr m ~labels:[ ("service", "a"); ("x", "1") ] "svc2";
  Alcotest.(check int) "per-label" 1 (Metrics.count m ~labels:[ ("service", "a") ] "svc");
  Alcotest.(check int) "total over labels" 3 (Metrics.total_count m "svc");
  Alcotest.(check int) "sorted labels collapse" 2 (Metrics.total_count m "svc2");
  Metrics.add m "f" 0.25;
  Metrics.add m "f" 0.5;
  feq "float counter" 0.75 (Metrics.value m "f");
  Alcotest.(check int) "unrecorded reads zero" 0 (Metrics.count m "nope")

let test_counter_rejects_negative () =
  let m = Metrics.create () in
  (match Metrics.incr m ~by:(-1) "c" with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "negative incr must raise");
  match Metrics.add m "c" (-0.5) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "negative add must raise"

let test_gauges_and_kind_mismatch () =
  let m = Metrics.create () in
  Metrics.set m "g" 3.0;
  Metrics.set m "g" 1.5;
  feq "last write wins" 1.5 (Metrics.value m "g");
  (match Metrics.incr m "g" with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "incr on a gauge must raise");
  Metrics.incr m "c";
  match Metrics.observe m "c" 1.0 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "observe into a counter must raise"

let test_histograms () =
  let m = Metrics.create () in
  let buckets = [ 0.1; 1.0; 10.0 ] in
  List.iter (fun v -> Metrics.observe m ~buckets "h" v) [ 0.05; 0.5; 0.5; 5.0; 50.0 ];
  Alcotest.(check int) "observation count" 5 (Metrics.total_count m "h");
  feq "observation sum" 56.05 (Metrics.total m "h");
  let snap = Metrics.snapshot m in
  let hists = Json.to_list (Json.member "histograms" snap) in
  match hists with
  | [ h ] ->
    Alcotest.(check (option string)) "name" (Some "h") (Json.string_value (Json.member "name" h));
    let cumulative =
      List.map
        (fun b -> Option.get (Json.int_value (Json.member "count" b)))
        (Json.to_list (Json.member "buckets" h))
    in
    (* cumulative counts over le 0.1 / 1.0 / 10.0 / inf *)
    Alcotest.(check (list int)) "cumulative buckets" [ 1; 3; 4; 5 ] cumulative
  | _ -> Alcotest.fail "expected exactly one histogram"

let test_quantiles () =
  let m = Metrics.create () in
  let buckets = [ 0.1; 1.0; 10.0 ] in
  List.iter (fun v -> Metrics.observe m ~buckets "h" v) [ 0.05; 0.5; 0.5; 5.0; 50.0 ];
  (* p50: rank 2.5 crosses in (0.1, 1.0], two observations inside,
     1.5 of them below the rank → 0.1 + 0.9 · 0.75 *)
  (match Metrics.quantile m "h" 0.5 with
  | None -> Alcotest.fail "p50 missing"
  | Some v -> feq "p50 interpolates inside its bucket" 0.775 v);
  (* p95: rank 4.75 lands on the overflow observation (50.0), which
     clamps to the last finite upper bound *)
  (match Metrics.quantile m "h" 0.95 with
  | None -> Alcotest.fail "p95 missing"
  | Some v -> feq "p95 clamps to the last finite bound" 10.0 v);
  (* q = 1 with everything inside the finite buckets reaches the
     enclosing bucket's upper bound *)
  let m2 = Metrics.create () in
  Metrics.observe m2 ~buckets "h" 0.5;
  (match Metrics.quantile m2 "h" 1.0 with
  | None -> Alcotest.fail "q=1 missing"
  | Some v -> feq "q=1 is the bucket upper bound" 1.0 v);
  (* labels address distinct histograms *)
  Metrics.observe m ~labels:[ ("shard", "r1") ] ~buckets "h" 0.05;
  (match Metrics.quantile m ~labels:[ ("shard", "r1") ] "h" 0.5 with
  | None -> Alcotest.fail "labeled p50 missing"
  | Some v -> feq "labeled histogram is its own" 0.05 v);
  (* every no-answer case is None, never an exception *)
  Alcotest.(check (option (float 0.0))) "q out of range (high)" None (Metrics.quantile m "h" 1.5);
  Alcotest.(check (option (float 0.0)))
    "q out of range (negative)" None
    (Metrics.quantile m "h" (-0.1));
  Alcotest.(check (option (float 0.0))) "missing instrument" None (Metrics.quantile m "nope" 0.5);
  Metrics.incr m "c";
  Alcotest.(check (option (float 0.0))) "not a histogram" None (Metrics.quantile m "c" 0.5);
  Alcotest.(check (option (float 0.0)))
    "disabled registry" None
    (Metrics.quantile Metrics.null "h" 0.5)

let test_snapshot_shape () =
  let m = Metrics.create () in
  Metrics.incr m ~labels:[ ("service", "x") ] "b";
  Metrics.incr m "a";
  Metrics.set m "g" 2.0;
  let snap = Metrics.snapshot m in
  match Json.parse (Json.to_string ~indent:2 snap) with
  | Error e -> Alcotest.fail e
  | Ok j ->
    let counters = Json.to_list (Json.member "counters" j) in
    let names = List.filter_map (fun c -> Json.string_value (Json.member "name" c)) counters in
    (* sorted by name so snapshots diff cleanly *)
    Alcotest.(check (list string)) "sorted counters" [ "a"; "b" ] names;
    Alcotest.(check int) "one gauge" 1 (List.length (Json.to_list (Json.member "gauges" j)))

let test_null_metrics_is_free () =
  let m = Metrics.null in
  Alcotest.(check bool) "disabled" false (Metrics.enabled m);
  Metrics.incr m "c";
  Metrics.observe m "h" 1.0;
  Metrics.set m "g" 1.0;
  Alcotest.(check int) "records nothing" 0 (Metrics.count m "c");
  let snap = Metrics.snapshot m in
  Alcotest.(check int) "empty snapshot" 0 (List.length (Json.to_list (Json.member "counters" snap)))

(* ------------------------------------------------------------------ *)
(* Differential reconciliation: on a seeded faulty workload, the
   metrics totals and the trace rollups must equal the evaluator's
   report field for field — the instrumentation is an independent
   accounting path for the same quantities. *)

let int_attr k (n : Trace.node) =
  match List.assoc_opt k n.Trace.node_attrs with Some (Trace.Int i) -> i | _ -> 0

let float_attr k (n : Trace.node) =
  match List.assoc_opt k n.Trace.node_attrs with
  | Some (Trace.Float f) -> f
  | Some (Trace.Int i) -> float_of_int i
  | _ -> 0.0

let spans_named name forest =
  List.filter (fun (n : Trace.node) -> n.Trace.node_name = name) (flatten_forest forest)

let sum_int k ns = List.fold_left (fun acc n -> acc + int_attr k n) 0 ns
let sum_float k ns = List.fold_left (fun acc n -> acc +. float_attr k n) 0.0 ns

let faulty_city ?(rate = 0.5) () =
  let inst = City.generate { City.default_config with City.hotels = 25 } in
  Registry.inject_faults inst.City.registry ~seed:7 [ Faults.Flaky rate ];
  Registry.set_retry_policy inst.City.registry
    {
      Registry.default_policy with
      Registry.max_retries = 6;
      base_backoff = 0.05;
      max_backoff = 0.4;
    };
  inst

let test_lazy_reconciliation () =
  let inst = faulty_city () in
  let obs = Obs.create () in
  let r =
    Lazy_eval.run ~registry:inst.City.registry ~schema:inst.City.schema ~obs inst.City.query
      inst.City.doc
  in
  (* the workload must actually exercise the fault machinery *)
  Alcotest.(check bool) "faults were hit" true (r.Lazy_eval.retries > 0);
  let m = obs.Obs.metrics in
  (* metrics vs report: the eval.* counters *)
  Alcotest.(check int) "invoked" r.Lazy_eval.invoked (Metrics.count m "eval.invoked");
  Alcotest.(check int) "pushed" r.Lazy_eval.pushed (Metrics.count m "eval.pushed");
  Alcotest.(check int) "rounds" r.Lazy_eval.rounds (Metrics.count m "eval.rounds");
  Alcotest.(check int) "passes" r.Lazy_eval.passes (Metrics.count m "eval.passes");
  Alcotest.(check int) "detections" r.Lazy_eval.relevance_evals
    (Metrics.count m "eval.relevance_evals");
  Alcotest.(check int) "retries" r.Lazy_eval.retries (Metrics.count m "eval.retries");
  Alcotest.(check int) "timeouts" r.Lazy_eval.timeouts (Metrics.count m "eval.timeouts");
  Alcotest.(check int) "failed calls" r.Lazy_eval.failed_calls (Metrics.count m "eval.failed_calls");
  Alcotest.(check int) "bytes" r.Lazy_eval.bytes_transferred (Metrics.count m "eval.bytes");
  feq "backoff" r.Lazy_eval.backoff_seconds (Metrics.value m "eval.backoff_seconds");
  feq "simulated seconds" r.Lazy_eval.simulated_seconds (Metrics.value m "eval.simulated_seconds");
  (* the service-layer counters tell the same story from below *)
  Alcotest.(check int) "service invocations"
    (r.Lazy_eval.invoked + r.Lazy_eval.failed_calls)
    (Metrics.total_count m "service.invocations");
  Alcotest.(check int) "service retries" r.Lazy_eval.retries
    (Metrics.total_count m "service.retries");
  Alcotest.(check int) "service timeouts" r.Lazy_eval.timeouts
    (Metrics.total_count m "service.timeouts");
  feq "service backoff" r.Lazy_eval.backoff_seconds (Metrics.total m "service.backoff_seconds");
  Alcotest.(check int) "service bytes" r.Lazy_eval.bytes_transferred
    (Metrics.total_count m "service.request_bytes" + Metrics.total_count m "service.response_bytes");
  (* trace rollups: the span forest is well-formed and sums to the report *)
  (match Trace.well_formed obs.Obs.trace with
  | Ok () -> ()
  | Error e -> Alcotest.failf "trace not well-formed: %s" e);
  (match Trace.tree obs.Obs.trace with
  | Error e -> Alcotest.fail e
  | Ok forest ->
    let invokes = spans_named "service.invoke" forest in
    Alcotest.(check int) "one invoke span per attempt sequence"
      (r.Lazy_eval.invoked + r.Lazy_eval.failed_calls)
      (List.length invokes);
    Alcotest.(check int) "trace bytes" r.Lazy_eval.bytes_transferred (sum_int "bytes" invokes);
    Alcotest.(check int) "trace retries" r.Lazy_eval.retries (sum_int "retries" invokes);
    Alcotest.(check int) "trace timeouts" r.Lazy_eval.timeouts (sum_int "timeouts" invokes);
    feq "trace backoff" r.Lazy_eval.backoff_seconds (sum_float "backoff_s" invokes);
    match spans_named "eval.run" forest with
    | [ root ] ->
      Alcotest.(check int) "root invoked" r.Lazy_eval.invoked (int_attr "invoked" root);
      Alcotest.(check int) "root rounds" r.Lazy_eval.rounds (int_attr "rounds" root);
      Alcotest.(check int) "root passes" r.Lazy_eval.passes (int_attr "passes" root);
      Alcotest.(check int) "root bytes" r.Lazy_eval.bytes_transferred (int_attr "bytes" root)
    | _ -> Alcotest.fail "expected exactly one eval.run root");
  (* the --report-json wire format round-trips and agrees with both *)
  match Json.parse (Json.to_string (Engine.report_to_json r)) with
  | Error e -> Alcotest.fail e
  | Ok j ->
    let field k = Option.get (Json.int_value (Json.member k j)) in
    Alcotest.(check int) "json invoked" (Metrics.count m "eval.invoked") (field "invoked");
    Alcotest.(check int) "json retries" (Metrics.count m "eval.retries") (field "retries");
    Alcotest.(check int) "json timeouts" (Metrics.count m "eval.timeouts") (field "timeouts");
    Alcotest.(check int) "json bytes" (Metrics.count m "eval.bytes") (field "bytes_transferred");
    feq "json backoff"
      (Metrics.value m "eval.backoff_seconds")
      (Option.get (Json.float_value (Json.member "backoff_seconds" j)));
    Alcotest.(check int) "json answers" (List.length r.Lazy_eval.answers)
      (List.length (Json.to_list (Json.member "answers" j)))

(* The analysis phases outside detection and rounds have spans too: one
   [eval.plan] directly under [eval.run], one [eval.push_pattern] per
   pushed round, each accounting for that round's calls, and one
   [doc.splice] per invocation, directly under its [eval.round]. *)
let test_plan_and_push_spans () =
  let inst = City.generate { City.default_config with City.hotels = 10 } in
  let obs = Obs.create () in
  let r =
    Lazy_eval.run
      ~strategy:(Lazy_eval.with_push Lazy_eval.nfqa_typed)
      ~registry:inst.City.registry ~schema:inst.City.schema ~obs inst.City.query inst.City.doc
  in
  let root =
    match Trace.tree obs.Obs.trace with
    | Error e -> Alcotest.fail e
    | Ok [ root ] when root.Trace.node_name = "eval.run" -> root
    | Ok _ -> Alcotest.fail "expected a single eval.run root"
  in
  Alcotest.(check int) "one eval.plan directly under eval.run" 1
    (List.length
       (List.filter (fun (n : Trace.node) -> n.Trace.node_name = "eval.plan") root.Trace.children));
  let pushes = spans_named "eval.push_pattern" [ root ] in
  Alcotest.(check bool) "pushed" true (r.Lazy_eval.pushed > 0);
  Alcotest.(check int) "one push_pattern span per round" r.Lazy_eval.rounds (List.length pushes);
  Alcotest.(check int) "push_pattern calls = round calls"
    (sum_int "calls" (spans_named "eval.round" [ root ]))
    (sum_int "calls" pushes);
  List.iter
    (fun n -> Alcotest.(check bool) "every pushed batch has a source" true (int_attr "sources" n > 0))
    pushes;
  Alcotest.(check int) "one doc.splice span per invocation" r.Lazy_eval.invoked
    (List.length (spans_named "doc.splice" [ root ]));
  Alcotest.(check int) "every doc.splice sits directly under an eval.round" r.Lazy_eval.invoked
    (List.length
       (List.concat_map
          (fun (n : Trace.node) ->
            List.filter (fun (c : Trace.node) -> c.Trace.node_name = "doc.splice") n.Trace.children)
          (spans_named "eval.round" [ root ])))

let test_naive_reconciliation () =
  let inst = faulty_city () in
  let obs = Obs.create () in
  let r = Naive.run ~obs inst.City.registry inst.City.query inst.City.doc in
  let m = obs.Obs.metrics in
  Alcotest.(check int) "invoked" r.Naive.invoked (Metrics.count m "eval.invoked");
  Alcotest.(check int) "rounds" r.Naive.rounds (Metrics.count m "eval.rounds");
  Alcotest.(check int) "retries" r.Naive.retries (Metrics.count m "eval.retries");
  Alcotest.(check int) "timeouts" r.Naive.timeouts (Metrics.count m "eval.timeouts");
  Alcotest.(check int) "failed" r.Naive.failed_calls (Metrics.count m "eval.failed_calls");
  Alcotest.(check int) "bytes" r.Naive.bytes_transferred (Metrics.count m "eval.bytes");
  feq "backoff" r.Naive.backoff_seconds (Metrics.value m "eval.backoff_seconds");
  (match Trace.tree obs.Obs.trace with
  | Error e -> Alcotest.fail e
  | Ok forest ->
    Alcotest.(check int) "round spans" r.Naive.rounds
      (List.length (spans_named "eval.round" forest));
    Alcotest.(check int) "invoke spans"
      (r.Naive.invoked + r.Naive.failed_calls)
      (List.length (spans_named "service.invoke" forest));
    Alcotest.(check int) "trace bytes" r.Naive.bytes_transferred
      (sum_int "bytes" (spans_named "service.invoke" forest)));
  match Json.parse (Json.to_string (Engine.report_to_json r)) with
  | Error e -> Alcotest.fail e
  | Ok j ->
    Alcotest.(check (option int)) "json invoked" (Some r.Naive.invoked)
      (Json.int_value (Json.member "invoked" j))

let test_observation_does_not_perturb () =
  (* the same seeded workload, watched and unwatched, must evaluate
     identically — instrumentation reads the computation, never steers it *)
  let run obs =
    let inst = faulty_city () in
    Lazy_eval.run ~registry:inst.City.registry ~schema:inst.City.schema ~obs inst.City.query
      inst.City.doc
  in
  let watched = run (Obs.create ()) in
  let unwatched = run Obs.null in
  Alcotest.(check int) "invoked" unwatched.Lazy_eval.invoked watched.Lazy_eval.invoked;
  Alcotest.(check int) "rounds" unwatched.Lazy_eval.rounds watched.Lazy_eval.rounds;
  Alcotest.(check int) "retries" unwatched.Lazy_eval.retries watched.Lazy_eval.retries;
  Alcotest.(check int) "bytes" unwatched.Lazy_eval.bytes_transferred
    watched.Lazy_eval.bytes_transferred;
  feq "simulated seconds" unwatched.Lazy_eval.simulated_seconds
    watched.Lazy_eval.simulated_seconds;
  Alcotest.(check int) "answers" (List.length unwatched.Lazy_eval.answers)
    (List.length watched.Lazy_eval.answers)

(* ------------------------------------------------------------------ *)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "obs"
    [
      ( "json",
        [
          quick "round-trip" test_json_roundtrip;
          quick "parse errors" test_json_parse_errors;
          quick "accessors" test_json_accessors;
          quick "jsonl" test_json_lines;
          quick "escapes" test_json_escapes;
          quick "unicode escapes" test_json_unicode_escapes;
          quick "unicode rejection" test_json_unicode_rejection;
          quick "int extremes" test_json_int_extremes;
          quick "deep nesting" test_json_deep_nesting;
        ] );
      ( "trace",
        [
          quick "span nesting and attr merge" test_span_nesting;
          quick "LIFO violation detected" test_lifo_violation_detected;
          quick "unclosed span detected" test_unclosed_span_detected;
          quick "with_span closes on raise" test_with_span_closes_on_raise;
          quick "simulated clock" test_sim_clock;
          quick "null sink is free" test_null_trace_is_free;
          quick "jsonl round-trip" test_jsonl_roundtrip;
          quick "chrome round-trip" test_chrome_roundtrip;
          quick "chrome closes partial traces" test_chrome_closes_partial_traces;
          quick "chrome envelope is valid" test_chrome_is_valid_trace_event_json;
          quick "bytes rollup" test_rollup;
        ] );
      ( "metrics",
        [
          quick "counters and labels" test_counters;
          quick "negative increments rejected" test_counter_rejects_negative;
          quick "gauges and kind mismatch" test_gauges_and_kind_mismatch;
          quick "histogram buckets" test_histograms;
          quick "histogram quantiles" test_quantiles;
          quick "snapshot shape" test_snapshot_shape;
          quick "null registry is free" test_null_metrics_is_free;
        ] );
      ( "reconciliation",
        [
          quick "lazy report = metrics = trace rollups" test_lazy_reconciliation;
          quick "plan and push_pattern spans" test_plan_and_push_spans;
          quick "naive report = metrics = trace rollups" test_naive_reconciliation;
          quick "observation does not perturb evaluation" test_observation_does_not_perturb;
        ] );
    ]
