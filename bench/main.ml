(* Benchmark harness: regenerates every experiment of the reproduction
   (see DESIGN.md §3 and EXPERIMENTS.md). Each experiment prints one
   table; a final Bechamel section micro-benchmarks the core operation
   behind each table.

   Usage: main.exe [--metrics-dir DIR]
            [e1|e2|e3|e4|e5|e6|e7|e8|e9|e9smoke|e10|e11|e11smoke|e12|e12smoke|e13|e13smoke|e14|e14smoke|micro]...
   (default: everything)

   With [--metrics-dir DIR], each experiment runs with a metrics-only
   observability sink and dumps the accumulated eval.* / service.*
   counters to DIR/<exp>.metrics.json when it finishes (see
   EXPERIMENTS.md, "Metrics snapshots"). *)

module Doc = Axml_doc
module P = Axml_query.Pattern
module Eval = Axml_query.Eval
module Schema = Axml_schema.Schema
module Sat = Axml_schema.Sat
module Registry = Axml_services.Registry
module Faults = Axml_services.Faults
module Witness = Axml_services.Witness
module Relevance = Axml_core.Relevance
module Nfq = Axml_core.Nfq
module Lpq = Axml_core.Lpq
module Influence = Axml_core.Influence
module Typing = Axml_core.Typing
module Fguide = Axml_core.Fguide
module Engine = Axml_engine.Engine
module Lazy_eval = Axml_core.Lazy_eval
module Project = Axml_project.Project
module City = Axml_workload.City
module Goingout = Axml_workload.Goingout
module Synthetic = Axml_workload.Synthetic
module Adversary = Axml_workload.Adversary
module Obs = Axml_obs.Obs
module Metrics = Axml_obs.Metrics
module Trace = Axml_obs.Trace
module Server = Axml_net.Server
module Client = Axml_net.Client
module Remote = Axml_net.Remote
module Exec = Axml_exec.Exec
module Sched = Axml_sched.Sched

(* ------------------------------------------------------------------ *)
(* Per-experiment metrics snapshots.

   [bench_obs] is threaded (as [~obs]) through every [Lazy_eval.run] /
   [Engine.naive_run] call site below. Without [--metrics-dir] it is the no-op
   sink, so the experiments measure exactly what they measured before;
   with it, each experiment accumulates one metrics registry (counters
   sum over every run the experiment performs) that is written out as
   DIR/<exp>.metrics.json. *)

let metrics_dir : string option ref = ref None
let bench_obs = ref Obs.null

let with_snapshot name f () =
  (bench_obs :=
     match !metrics_dir with Some _ -> Obs.measuring () | None -> Obs.null);
  f ();
  match !metrics_dir with
  | None -> ()
  | Some dir ->
    if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
    let path = Filename.concat dir (name ^ ".metrics.json") in
    Metrics.write path !bench_obs.Obs.metrics;
    Printf.eprintf "[bench] wrote %s\n%!" path

(* ------------------------------------------------------------------ *)
(* Small table printer *)

let print_table ~title ~header rows =
  let widths =
    List.fold_left
      (fun acc row -> List.map2 (fun w cell -> max w (String.length cell)) acc row)
      (List.map String.length header)
      rows
  in
  let line c =
    print_string "+";
    List.iter (fun w -> print_string (String.make (w + 2) c ^ "+")) widths;
    print_newline ()
  in
  let print_row row =
    print_string "|";
    List.iter2 (fun w cell -> Printf.printf " %-*s |" w cell) widths row;
    print_newline ()
  in
  Printf.printf "\n== %s ==\n" title;
  line '-';
  print_row header;
  line '=';
  List.iter print_row rows;
  line '-'

let secs f = Printf.sprintf "%.3f" f
let ms f = Printf.sprintf "%.2f" (f *. 1000.0)

(* A horizontal grouped bar chart — the textual analogue of the paper's
   evaluation figures. Bars are log-scaled when the series spans more
   than two decades (the naive/lazy gap does). *)
let print_figure ~title ~unit rows =
  Printf.printf "\n== %s ==\n" title;
  let values = List.concat_map (fun (_, series) -> List.map snd series) rows in
  let vmax = List.fold_left Float.max 1e-12 values in
  let vmin_pos =
    List.fold_left (fun acc v -> if v > 0.0 then Float.min acc v else acc) vmax values
  in
  let log_scale = vmax /. Float.max 1e-12 vmin_pos > 100.0 in
  let width = 46 in
  let bar v =
    let frac =
      if v <= 0.0 then 0.0
      else if log_scale then
        let lo = log10 vmin_pos -. 0.3 and hi = log10 vmax in
        (log10 v -. lo) /. Float.max 1e-9 (hi -. lo)
      else v /. vmax
    in
    let n = max (if v > 0.0 then 1 else 0) (int_of_float (frac *. float_of_int width)) in
    String.make (min width n) '#'
  in
  let name_width =
    List.fold_left
      (fun acc (_, series) ->
        List.fold_left (fun acc (name, _) -> max acc (String.length name)) acc series)
      0 rows
  in
  List.iter
    (fun (label, series) ->
      List.iteri
        (fun i (name, v) ->
          Printf.printf "%8s | %-*s %-*s %g %s\n"
            (if i = 0 then label else "")
            name_width name width (bar v) v unit)
        series;
      print_newline ())
    rows;
  if log_scale then print_endline "         (log scale)"

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let tuples answers =
  List.map (fun (b : Eval.binding) -> b.Eval.vars) answers |> List.sort_uniq compare

(* ------------------------------------------------------------------ *)
(* E1: naive materialization vs lazy NFQA, sweeping document scale.
   Claim (abstract, §1): pruning irrelevant calls cuts evaluation time by
   orders of magnitude. Both sides invoke sequentially here; parallelism
   is studied separately in E5. *)

let e1 () =
  let sequential = { Lazy_eval.nfqa_typed with Lazy_eval.parallel = false } in
  (* A selective query over a call-rich document: few hotels are "Best
     Western", most data is intensional — the regime the paper's claim is
     about. *)
  let series = ref [] in
  let rows =
    List.map
      (fun hotels ->
        let cfg =
          {
            City.default_config with
            City.hotels;
            target_fraction = 0.05;
            intensional_rating_fraction = 0.7;
            intensional_nearby_fraction = 0.7;
            museums_per_hotel = 4;
            restaurants_per_hotel = 6;
          }
        in
        let naive_inst = City.generate cfg in
        let initial_calls = Doc.count_calls naive_inst.City.doc in
        let naive =
          Engine.naive_run ~parallel:false ~obs:!bench_obs naive_inst.City.registry
            naive_inst.City.query naive_inst.City.doc
        in
        let lazy_inst = City.generate cfg in
        let lzy =
          Lazy_eval.run ~registry:lazy_inst.City.registry ~schema:lazy_inst.City.schema
            ~strategy:sequential ~obs:!bench_obs lazy_inst.City.query lazy_inst.City.doc
        in
        assert (tuples naive.Engine.answers = tuples lzy.Engine.answers);
        let speedup =
          naive.Engine.simulated_seconds /. Float.max 1e-9 lzy.Engine.simulated_seconds
        in
        series :=
          ( string_of_int hotels,
            [
              ("naive", naive.Engine.simulated_seconds);
              ("lazy", lzy.Engine.simulated_seconds);
            ] )
          :: !series;
        [
          string_of_int hotels;
          string_of_int initial_calls;
          string_of_int naive.Engine.invoked;
          secs naive.Engine.simulated_seconds;
          string_of_int lzy.Engine.invoked;
          secs lzy.Engine.simulated_seconds;
          Printf.sprintf "%.1fx" speedup;
          string_of_int (List.length (tuples lzy.Engine.answers));
        ])
      [ 10; 20; 40; 80; 160; 320 ]
  in
  print_table ~title:"E1: naive vs lazy (sequential invocations, typed NFQA)"
    ~header:
      [
        "hotels";
        "doc calls";
        "naive calls";
        "naive time(s)";
        "lazy calls";
        "lazy time(s)";
        "speedup";
        "answers";
      ]
    rows;
  print_figure ~title:"Figure E1: total evaluation time vs document size" ~unit:"s"
    (List.rev !series)

(* ------------------------------------------------------------------ *)
(* E2: accuracy/efficiency of relevance detection (§3, §5, §6.1):
   LPQ vs NFQ vs lenient-typed vs exact-typed NFQ. *)

let e2 () =
  let cfg = { City.default_config with City.hotels = 50 } in
  let strategies =
    [
      ("LPQ", Lazy_eval.lpq_only);
      ("NFQ", Lazy_eval.nfqa);
      ("NFQ+relaxed joins", { Lazy_eval.nfqa with Lazy_eval.relax_joins = true });
      ("NFQ+lenient types", Lazy_eval.nfqa_lenient);
      ("NFQ+exact types", Lazy_eval.nfqa_typed);
    ]
  in
  let naive_inst = City.generate cfg in
  let naive =
    Engine.naive_run ~parallel:false ~obs:!bench_obs naive_inst.City.registry naive_inst.City.query
      naive_inst.City.doc
  in
  let rows =
    List.map
      (fun (name, strategy) ->
        let strategy = { strategy with Lazy_eval.parallel = false } in
        let inst = City.generate cfg in
        let r =
          Lazy_eval.run ~registry:inst.City.registry ~schema:inst.City.schema ~strategy
            ~obs:!bench_obs inst.City.query inst.City.doc
        in
        assert (tuples r.Engine.answers = tuples naive.Engine.answers);
        [
          name;
          string_of_int r.Engine.invoked;
          string_of_int r.Engine.relevance_evals;
          ms r.Engine.analysis_seconds;
          secs r.Engine.simulated_seconds;
        ])
      strategies
  in
  let naive_row =
    [
      "naive (all calls)";
      string_of_int naive.Engine.invoked;
      "0";
      "0.00";
      secs naive.Engine.simulated_seconds;
    ]
  in
  print_table ~title:"E2: relevance detection strategies (50 hotels)"
    ~header:[ "strategy"; "calls"; "detections"; "analysis(ms)"; "service time(s)" ]
    (naive_row :: rows)

(* ------------------------------------------------------------------ *)
(* E3: F-guide speedup for relevance detection (§6.2), sweeping document
   size. Detection = evaluate every NFQ of the query once. *)

let e3 () =
  let series = ref [] in
  let rows =
    List.map
      (fun nodes ->
        let inst = Synthetic.generate { Synthetic.default_config with Synthetic.nodes } in
        let doc = inst.Synthetic.doc in
        let rqs = Nfq.of_query inst.Synthetic.query in
        let top_down, t_top =
          wall (fun () ->
              List.concat_map (fun rq -> Relevance.relevant_calls rq doc) rqs
              |> List.map (fun (n : Doc.node) -> n.Doc.id)
              |> List.sort_uniq compare)
        in
        (* a third engine: PathStack streaming over the LPQ chains,
           followed by the anchored NFQ filter *)
        let pathstacked, t_ps =
          wall (fun () ->
              List.concat_map
                (fun rq ->
                  let steps =
                    List.map
                      (fun (axis, label) -> { Axml_query.Pathstack.axis; label })
                      (Relevance.guide_steps rq)
                  in
                  Axml_query.Pathstack.matches steps doc
                  |> List.filter (fun c -> Relevance.retrieves rq doc c))
                rqs
              |> List.map (fun (n : Doc.node) -> n.Doc.id)
              |> List.sort_uniq compare)
        in
        let guide, t_build = wall (fun () -> Fguide.build doc) in
        let guided, t_guide =
          wall (fun () ->
              List.concat_map
                (fun rq ->
                  Fguide.candidates guide (Relevance.guide_steps rq)
                  |> List.filter (fun c -> Relevance.retrieves rq doc c))
                rqs
              |> List.map (fun (n : Doc.node) -> n.Doc.id)
              |> List.sort_uniq compare)
        in
        assert (top_down = guided);
        assert (top_down = pathstacked);
        series :=
          ( string_of_int (Doc.size doc),
            [ ("tree walk", t_top); ("pathstack", t_ps); ("f-guide", t_build +. t_guide) ] )
          :: !series;
        [
          string_of_int (Doc.size doc);
          string_of_int (Doc.count_calls doc);
          string_of_int (List.length top_down);
          ms t_top;
          ms t_ps;
          ms t_build;
          ms t_guide;
          Printf.sprintf "%.1fx" (t_top /. Float.max 1e-9 t_guide);
        ])
      [ 1_000; 5_000; 20_000; 50_000; 100_000 ]
  in
  print_table ~title:"E3: relevance detection: tree walk vs PathStack vs F-guide"
    ~header:
      [
        "doc nodes";
        "calls";
        "relevant";
        "top-down(ms)";
        "pathstack(ms)";
        "guide build(ms)";
        "guided(ms)";
        "speedup";
      ]
    rows;
  print_figure ~title:"Figure E3: relevance detection time vs document size" ~unit:"s"
    (List.rev !series)

(* ------------------------------------------------------------------ *)
(* E4: query pushing (§7): bytes shipped and service time with and
   without pushing, sweeping the selectivity of the query constant. *)

let e4 () =
  let series = ref [] in
  let rows =
    List.map
      (fun five_star_fraction ->
        let cfg =
          { City.default_config with City.hotels = 50; blurb_bytes = 2048; five_star_fraction }
        in
        let run strategy =
          let inst = City.generate cfg in
          Lazy_eval.run ~registry:inst.City.registry ~schema:inst.City.schema ~strategy
            ~obs:!bench_obs inst.City.query inst.City.doc
        in
        let plain = run Lazy_eval.nfqa_typed in
        let pushed = run (Lazy_eval.with_push Lazy_eval.nfqa_typed) in
        assert (tuples plain.Engine.answers = tuples pushed.Engine.answers);
        series :=
          ( Printf.sprintf "%.0f%%" (five_star_fraction *. 100.0),
            [
              ("full results", float_of_int plain.Engine.bytes_transferred);
              ("pushed", float_of_int pushed.Engine.bytes_transferred);
            ] )
          :: !series;
        [
          Printf.sprintf "%.0f%%" (five_star_fraction *. 100.0);
          string_of_int plain.Engine.bytes_transferred;
          string_of_int pushed.Engine.bytes_transferred;
          Printf.sprintf "%.1fx"
            (float_of_int plain.Engine.bytes_transferred
            /. Float.max 1.0 (float_of_int pushed.Engine.bytes_transferred));
          secs plain.Engine.simulated_seconds;
          secs pushed.Engine.simulated_seconds;
          string_of_int (List.length (tuples pushed.Engine.answers));
        ])
      [ 0.05; 0.2; 0.5; 0.9 ]
  in
  print_table ~title:"E4: query pushing (50 hotels, 2 KiB review blurbs)"
    ~header:
      [ "5-star rate"; "bytes"; "bytes(push)"; "reduction"; "time(s)"; "time(s, push)"; "answers" ]
    rows;
  print_figure ~title:"Figure E4: bytes transferred vs query selectivity" ~unit:"B"
    (List.rev !series)

(* ------------------------------------------------------------------ *)
(* E5: sequencing optimizations (§4): layering, parallel invocation,
   after-layer simplification, vs plain NFQA. *)

let e5 () =
  let cfg =
    {
      City.default_config with
      City.hotels = 40;
      extensional_fraction = 0.3;
      intensional_rating_fraction = 0.8;
      intensional_nearby_fraction = 0.8;
    }
  in
  let base = { Lazy_eval.nfqa with Lazy_eval.layering = false; parallel = false } in
  let variants =
    [
      ("plain NFQA", base);
      ("+ layering", { base with Lazy_eval.layering = true });
      ("+ parallel (*)", { base with Lazy_eval.layering = true; parallel = true });
      ( "+ simplify",
        { base with Lazy_eval.layering = true; parallel = true; simplify_after_layer = true } );
      ( "no shared ctx",
        { base with Lazy_eval.layering = true; parallel = true; share_contexts = false } );
      ( "+ dedup",
        { base with Lazy_eval.layering = true; parallel = true; containment_dedup = true } );
      ( "speculative",
        { base with Lazy_eval.layering = true; parallel = true; speculative = true } );
    ]
  in
  let reference = ref None in
  let rows =
    List.map
      (fun (name, strategy) ->
        let inst = City.generate cfg in
        let r =
          Lazy_eval.run ~registry:inst.City.registry ~schema:inst.City.schema ~strategy
            ~obs:!bench_obs inst.City.query inst.City.doc
        in
        (match !reference with
        | None -> reference := Some (tuples r.Engine.answers)
        | Some t -> assert (t = tuples r.Engine.answers));
        [
          name;
          string_of_int r.Engine.layer_count;
          string_of_int r.Engine.relevance_evals;
          string_of_int r.Engine.rounds;
          string_of_int r.Engine.invoked;
          ms r.Engine.analysis_seconds;
          secs r.Engine.simulated_seconds;
        ])
      variants
  in
  print_table ~title:"E5: call sequencing (40 hotels, mostly intensional)"
    ~header:
      [ "variant"; "layers"; "detections"; "rounds"; "calls"; "analysis(ms)"; "service time(s)" ]
    rows

(* ------------------------------------------------------------------ *)
(* E6: exact vs lenient type analysis (§5 complexity vs §6.1), sweeping
   schema size. *)

let inflate_schema base extra =
  let s = ref base in
  for i = 1 to extra do
    let name = Printf.sprintf "extra%d" i in
    s :=
      Schema.add_element !s name
        (Axml_automata.Regex.of_string
           (Printf.sprintf "name.address.extra%d?" (1 + (i mod max 1 extra))));
    s :=
      Schema.add_function !s
        (Printf.sprintf "getextra%d" i)
        {
          Schema.input = Axml_automata.Regex.Sym "data";
          output = Axml_automata.Regex.of_string (name ^ "*");
        }
  done;
  !s

let e6 () =
  let cfg = { City.default_config with City.hotels = 30 } in
  let rows =
    List.map
      (fun extra ->
        let inst = City.generate cfg in
        let schema = inflate_schema inst.City.schema extra in
        let symbol_count = List.length (Schema.all_symbols schema) in
        let time_mode mode =
          let inst = City.generate cfg in
          let strategy =
            match mode with
            | `Exact -> Lazy_eval.nfqa_typed
            | `Lenient -> { Lazy_eval.nfqa_typed with Lazy_eval.typing = Lazy_eval.Lenient_types }
          in
          let r =
            Lazy_eval.run ~registry:inst.City.registry ~schema ~strategy ~obs:!bench_obs
              inst.City.query inst.City.doc
          in
          (r.Engine.analysis_seconds, r.Engine.invoked)
        in
        let exact_t, exact_calls = time_mode `Exact in
        let lenient_t, lenient_calls = time_mode `Lenient in
        [
          string_of_int extra;
          string_of_int symbol_count;
          ms exact_t;
          string_of_int exact_calls;
          ms lenient_t;
          string_of_int lenient_calls;
        ])
      [ 0; 10; 50; 200 ]
  in
  print_table ~title:"E6: exact vs lenient type analysis (30 hotels)"
    ~header:[ "extra defs"; "symbols"; "exact(ms)"; "calls"; "lenient(ms)"; "calls(len)" ]
    rows;
  (* Accuracy half of the trade-off: a disjunctive content model
     (menu = veg | meat) can never provide both children of the pattern,
     which the exact single-word test sees and the lenient graph-schema
     test does not — so lenient invokes calls that exact prunes. *)
  let disjunctive_schema =
    Schema.of_string
      {|functions:
  getmenu = [in: data, out: menu]
elements:
  shop = menu | getmenu
  menu = veg | meat
  veg  = data
  meat = data
|}
  in
  let accuracy_rows =
    List.map
      (fun shops ->
        let xml =
          "<street>"
          ^ String.concat ""
              (List.init shops (fun i ->
                   Printf.sprintf
                     {|<shop><axml:call name="getmenu"><k>%d</k></axml:call></shop>|} i))
          ^ "</street>"
        in
        let query =
          Axml_query.Parser.parse {|/street/shop/menu[veg="lettuce"][meat="beef"]|}
        in
        let run typing =
          let doc = Doc.parse xml in
          let registry = Registry.create () in
          Registry.register registry ~name:"getmenu" (fun _ ->
              [ Axml_xml.Tree.element "menu" [ Axml_xml.Tree.element "veg" [ Axml_xml.Tree.text "lettuce" ] ] ]);
          let strategy = { Lazy_eval.nfqa with Lazy_eval.typing } in
          Lazy_eval.run ~registry ~schema:disjunctive_schema ~strategy ~obs:!bench_obs query doc
        in
        let exact = run Lazy_eval.Exact_types in
        let lenient = run Lazy_eval.Lenient_types in
        [
          string_of_int shops;
          string_of_int exact.Engine.invoked;
          string_of_int lenient.Engine.invoked;
          secs exact.Engine.simulated_seconds;
          secs lenient.Engine.simulated_seconds;
        ])
      [ 10; 50; 200 ]
  in
  print_table ~title:"E6b: pruning accuracy on a disjunctive content model"
    ~header:[ "pending calls"; "exact invokes"; "lenient invokes"; "exact time(s)"; "lenient time(s)" ]
    accuracy_rows

(* ------------------------------------------------------------------ *)
(* E7: graceful degradation under faulty services. Every service gets a
   seeded Flaky schedule; transient failures are retried with exponential
   backoff on the simulated clock. The claim: lazy evaluation degrades
   gracefully — invoking fewer calls means fewer fault exposures, less
   retry/backoff waiting, and (at high fault rates, where retry budgets
   run out) fewer permanently lost subtrees than naive materialization. *)

let e7 () =
  let cfg = { City.default_config with City.hotels = 50 } in
  let policy =
    {
      Registry.default_policy with
      Registry.max_retries = 12;
      base_backoff = 0.05;
      max_backoff = 0.5;
    }
  in
  (* fault-free naive materialization: the Def. 4 oracle *)
  let reference =
    let inst = City.generate cfg in
    tuples
      (Engine.naive_run ~parallel:false ~obs:!bench_obs inst.City.registry inst.City.query
         inst.City.doc)
        .Engine.answers
  in
  let series = ref [] in
  let rows =
    List.map
      (fun rate ->
        let prepare () =
          let inst = City.generate cfg in
          Registry.inject_faults inst.City.registry ~seed:7 [ Faults.Flaky rate ];
          Registry.set_retry_policy inst.City.registry policy;
          inst
        in
        let naive_inst = prepare () in
        let naive =
          Engine.naive_run ~parallel:false ~obs:!bench_obs naive_inst.City.registry
            naive_inst.City.query naive_inst.City.doc
        in
        let naive_exposures = Registry.fault_exposures naive_inst.City.registry in
        let lazy_inst = prepare () in
        let lzy =
          Lazy_eval.run ~registry:lazy_inst.City.registry ~schema:lazy_inst.City.schema
            ~strategy:{ Lazy_eval.nfqa_typed with Lazy_eval.parallel = false }
            ~obs:!bench_obs lazy_inst.City.query lazy_inst.City.doc
        in
        let lazy_exposures = Registry.fault_exposures lazy_inst.City.registry in
        (* Def. 4 leniency: faults lose bindings, never fabricate them. *)
        let subset xs ys = List.for_all (fun x -> List.mem x ys) xs in
        assert (subset (tuples naive.Engine.answers) reference);
        assert (subset (tuples lzy.Engine.answers) reference);
        if naive.Engine.complete then assert (tuples naive.Engine.answers = reference);
        if lzy.Engine.complete then assert (tuples lzy.Engine.answers = reference);
        (* graceful degradation: fewer calls => strictly fewer exposures *)
        if rate > 0.0 then assert (lazy_exposures < naive_exposures);
        series :=
          ( Printf.sprintf "%.0f%%" (rate *. 100.0),
            [
              ("naive exposures", float_of_int naive_exposures);
              ("lazy exposures", float_of_int lazy_exposures);
            ] )
          :: !series;
        [
          Printf.sprintf "%.0f%%" (rate *. 100.0);
          string_of_int naive.Engine.invoked;
          string_of_int naive_exposures;
          string_of_int naive.Engine.failed_calls;
          secs naive.Engine.simulated_seconds;
          string_of_bool naive.Engine.complete;
          string_of_int lzy.Engine.invoked;
          string_of_int lazy_exposures;
          string_of_int lzy.Engine.failed_calls;
          secs lzy.Engine.simulated_seconds;
          string_of_bool lzy.Engine.complete;
        ])
      [ 0.0; 0.1; 0.2; 0.3; 0.5; 0.7 ]
  in
  print_table ~title:"E7: fault-rate sweep (50 hotels, 12 retries, exp. backoff 50 ms..0.5 s)"
    ~header:
      [
        "fault rate";
        "naive calls";
        "faults";
        "lost";
        "time(s)";
        "complete";
        "lazy calls";
        "faults";
        "lost";
        "time(s)";
        "complete";
      ]
    rows;
  print_figure ~title:"Figure E7: fault exposures vs fault rate" ~unit:" faults"
    (List.rev !series);
  (* E7b: starve the retry budget at a fixed 50% fault rate. Permanently
     failed calls stay in the document as unexpanded function nodes; the
     answers degrade to a subset of the fault-free result (never wrong
     bindings), and the complete flag reports the loss. *)
  let rate = 0.5 in
  let budget_rows =
    List.map
      (fun max_retries ->
        let prepare () =
          let inst = City.generate cfg in
          Registry.inject_faults inst.City.registry ~seed:7 [ Faults.Flaky rate ];
          Registry.set_retry_policy inst.City.registry
            { policy with Registry.max_retries };
          inst
        in
        let naive_inst = prepare () in
        let naive =
          Engine.naive_run ~parallel:false ~obs:!bench_obs naive_inst.City.registry
            naive_inst.City.query naive_inst.City.doc
        in
        let lazy_inst = prepare () in
        let lzy =
          Lazy_eval.run ~registry:lazy_inst.City.registry ~schema:lazy_inst.City.schema
            ~strategy:{ Lazy_eval.nfqa_typed with Lazy_eval.parallel = false }
            ~obs:!bench_obs lazy_inst.City.query lazy_inst.City.doc
        in
        let subset xs ys = List.for_all (fun x -> List.mem x ys) xs in
        assert (subset (tuples naive.Engine.answers) reference);
        assert (subset (tuples lzy.Engine.answers) reference);
        assert (lzy.Engine.complete = (lzy.Engine.failed_calls = 0));
        if lzy.Engine.complete then assert (tuples lzy.Engine.answers = reference);
        [
          string_of_int max_retries;
          string_of_int naive.Engine.failed_calls;
          string_of_int (List.length (tuples naive.Engine.answers));
          string_of_bool naive.Engine.complete;
          string_of_int lzy.Engine.failed_calls;
          string_of_int (List.length (tuples lzy.Engine.answers));
          string_of_bool lzy.Engine.complete;
        ])
      [ 0; 1; 2; 4; 8 ]
  in
  print_table
    ~title:
      (Printf.sprintf
         "E7b: retry budget at %.0f%% fault rate (reference: %d answers fault-free)"
         (rate *. 100.0) (List.length reference))
    ~header:
      [
        "max retries";
        "naive lost";
        "answers";
        "complete";
        "lazy lost";
        "answers";
        "complete";
      ]
    budget_rows

(* ------------------------------------------------------------------ *)
(* E8: query pushing over a real wire. E4 measures pushing against the
   simulated cost model; E8 reruns the comparison against an actual
   [axmld] peer on loopback — the city services live behind a TCP
   server, the evaluator invokes them through the [Remote] transport,
   and the table reports what really crossed the wire (frame bytes,
   both directions) plus wall-clock time. Loopback has neither the
   50 ms latency nor the 1 µs/byte of the simulated model, so the
   absolute times are much smaller than E4's; the byte reduction is the
   transferable number (see EXPERIMENTS.md §E8). *)

let e8 () =
  let series = ref [] in
  let rows =
    List.map
      (fun blurb_bytes ->
        (* seed 1 yields a non-empty answer set at this scale *)
        let cfg =
          { City.default_config with City.hotels = 8; seed = 1; blurb_bytes }
        in
        let served = City.generate cfg in
        let server = Server.create ~registry:served.City.registry () in
        Server.start server;
        Fun.protect
          ~finally:(fun () -> Server.stop server)
          (fun () ->
            let run ~push =
              let inst = City.generate cfg in
              let registry = Registry.create () in
              let client =
                Client.create ~host:"127.0.0.1" ~port:(Server.port server) ()
              in
              Fun.protect
                ~finally:(fun () -> Client.close client)
                (fun () ->
                  ignore (Remote.register ~memoize:false ~registry client);
                  let strategy =
                    if push then Lazy_eval.with_push Lazy_eval.nfqa_typed
                    else Lazy_eval.nfqa_typed
                  in
                  let r, elapsed =
                    wall (fun () ->
                        Lazy_eval.run ~registry ~schema:inst.City.schema ~strategy
                          ~obs:!bench_obs inst.City.query inst.City.doc)
                  in
                  let bytes =
                    List.fold_left
                      (fun acc (i : Registry.invocation) ->
                        acc + i.Registry.request_bytes + i.Registry.response_bytes)
                      0 (Registry.history registry)
                  in
                  (r, bytes, elapsed))
            in
            let plain, plain_bytes, plain_wall = run ~push:false in
            let pushed, pushed_bytes, pushed_wall = run ~push:true in
            assert (tuples plain.Engine.answers = tuples pushed.Engine.answers);
            assert (plain.Engine.complete && pushed.Engine.complete);
            series :=
              ( Printf.sprintf "%dB" blurb_bytes,
                [
                  ("full results", float_of_int plain_bytes);
                  ("pushed", float_of_int pushed_bytes);
                ] )
              :: !series;
            [
              string_of_int blurb_bytes;
              string_of_int plain.Engine.invoked;
              string_of_int plain_bytes;
              string_of_int pushed_bytes;
              Printf.sprintf "%.1fx"
                (float_of_int plain_bytes /. Float.max 1.0 (float_of_int pushed_bytes));
              ms plain_wall;
              ms pushed_wall;
              string_of_int (List.length (tuples pushed.Engine.answers));
            ]))
      [ 256; 1024; 4096 ]
  in
  print_table ~title:"E8: query pushing over loopback TCP (8 hotels)"
    ~header:
      [
        "blurb";
        "calls";
        "wire bytes";
        "wire bytes(push)";
        "reduction";
        "wall(ms)";
        "wall(ms, push)";
        "answers";
      ]
    rows;
  print_figure ~title:"Figure E8: bytes on the wire vs review blurb size" ~unit:"B"
    (List.rev !series)

(* ------------------------------------------------------------------ *)
(* E9: real concurrent batch invocation (§4.4 on the wall clock). The
   simulated cost model charges a parallel batch the max of its members'
   costs; E9 checks the wall clock agrees once the calls really overlap.
   The city services live behind loopback [axmld] peers that sleep
   [delay] real seconds per request ([Server.create ~delay], the
   [axml serve --latency] knob); the evaluator invokes them through
   [Remote] with a worker pool at --jobs 1/2/4/8. The answers (bytes),
   the invocation count and completeness must be identical at every jobs
   level — only the wall clock is allowed to move. The speedup ceiling
   is the width of the narrowest layer, not the jobs count, so the
   column to read is wall(s) against the j=1 baseline. *)

(* One evaluation at [jobs] workers against [servers], the advertised
   services split alternately across the peers. Returns the answers
   serialized to bytes, so equality means byte-identical output. *)
let e9_run ~servers ~cfg ~jobs =
  let inst = City.generate cfg in
  let registry = Registry.create () in
  let clients =
    List.map
      (fun srv ->
        Client.create ~pool_size:(max 4 jobs) ~host:"127.0.0.1"
          ~port:(Server.port srv) ())
      servers
  in
  Fun.protect
    ~finally:(fun () -> List.iter Client.close clients)
    (fun () ->
      (match clients with
      | [ c1; c2 ] ->
        let names =
          List.map
            (fun (s : Axml_net.Wire.service_info) -> s.Axml_net.Wire.name)
            (Client.services c1 ())
        in
        let a, b =
          List.partition (fun n -> Hashtbl.hash n mod 2 = 0) names
        in
        ignore (Remote.register ~memoize:false ~names:a ~registry c1);
        ignore (Remote.register ~memoize:false ~names:b ~registry c2)
      | cs ->
        List.iter (fun c -> ignore (Remote.register ~memoize:false ~registry c)) cs);
      let pool = if jobs > 1 then Some (Exec.create ~jobs ()) else None in
      Fun.protect
        ~finally:(fun () -> Option.iter Exec.shutdown pool)
        (fun () ->
          let r, elapsed =
            wall (fun () ->
                Lazy_eval.run ~registry ~schema:inst.City.schema
                  ~strategy:Lazy_eval.nfqa_typed ?pool ~obs:!bench_obs
                  inst.City.query inst.City.doc)
          in
          let answer_bytes =
            Axml_xml.Print.forest_to_string (Eval.bindings_to_xml r.Engine.answers)
          in
          (r, answer_bytes, elapsed)))

let e9_sweep ~title ~hotels ~delay ~jobs_list =
  (* Every hotel is an extensional "Best Western" with an intensional
     rating and nearby list: each layer is [hotels] calls wide, so the
     pool has real §4.4 batches to overlap. *)
  let cfg =
    {
      City.default_config with
      City.hotels;
      seed = 1;
      extensional_fraction = 1.0;
      intensional_rating_fraction = 1.0;
      intensional_nearby_fraction = 1.0;
      target_fraction = 1.0;
      five_star_fraction = 1.0;
    }
  in
  let mk_server () =
    let served = City.generate cfg in
    let server = Server.create ~delay ~registry:served.City.registry () in
    Server.start server;
    server
  in
  let servers = [ mk_server (); mk_server () ] in
  Fun.protect
    ~finally:(fun () -> List.iter Server.stop servers)
    (fun () ->
      let runs = List.map (fun jobs -> (jobs, e9_run ~servers ~cfg ~jobs)) jobs_list in
      let _, (base, base_answers, base_wall) = List.hd runs in
      let rows =
        List.map
          (fun (jobs, (r, answers, elapsed)) ->
            (* the §4.4 contract: concurrency must not change the result *)
            assert (answers = base_answers);
            assert (r.Engine.invoked = base.Engine.invoked);
            assert (r.Engine.complete = base.Engine.complete);
            [
              string_of_int jobs;
              string_of_int r.Engine.invoked;
              secs r.Engine.simulated_seconds;
              secs elapsed;
              Printf.sprintf "%.2fx" (base_wall /. Float.max 1e-9 elapsed);
              string_of_int (List.length (tuples r.Engine.answers));
            ])
          runs
      in
      print_table ~title
        ~header:[ "jobs"; "invoked"; "sim(s)"; "wall(s)"; "speedup"; "answers" ]
        rows;
      runs)

let e9 () =
  ignore
    (e9_sweep
       ~title:
         "E9: worker-pool speedup over 2 loopback peers (12 hotels, 50 ms injected latency)"
       ~hotels:12 ~delay:0.05 ~jobs_list:[ 1; 2; 4; 8 ])

(* The CI-sized variant: 2 peers, 20 ms, jobs 1 vs 4, and a hard
   assertion that pooling actually beat sequential on the wall clock. *)
let e9smoke () =
  match
    e9_sweep ~title:"E9 (smoke): 2 loopback peers (8 hotels, 20 ms injected latency)"
      ~hotels:8 ~delay:0.02 ~jobs_list:[ 1; 4 ]
  with
  | [ (1, (_, _, wall1)); (4, (_, _, wall4)) ] ->
    if wall4 >= wall1 then begin
      Printf.eprintf "e9smoke: no speedup (wall(4)=%.3fs >= wall(1)=%.3fs)\n" wall4 wall1;
      exit 1
    end
  | _ -> assert false

(* ------------------------------------------------------------------ *)
(* E10: adversarial families vs the call budget. Each row runs one
   hostile Adversary family (fault-free) under the lazy NFQA strategy
   at a given max_calls budget and reports the unified engine report
   fields: the bounded families converge to complete answers once the
   budget covers their call count; the unbounded one burns exactly the
   budget and reports incomplete at every setting. *)

let e10 () =
  let budgets = [ 8; 32; 128 ] in
  let rows =
    List.concat_map
      (fun (name, family) ->
        let cfg = { Adversary.default_config with Adversary.family; seed = 11; scale = 40 } in
        List.map
          (fun budget ->
            (* evaluation expands the document in place: fresh instance per row *)
            let inst = Adversary.generate cfg in
            let strategy = { Lazy_eval.nfqa with Lazy_eval.max_calls = budget } in
            let initial_calls = Adversary.total_calls inst in
            let r, elapsed =
              wall (fun () ->
                  Lazy_eval.run ~registry:inst.Adversary.registry ~strategy ~obs:!bench_obs
                    inst.Adversary.query inst.Adversary.doc)
            in
            [
              name;
              string_of_int budget;
              string_of_int initial_calls;
              string_of_int r.Engine.invoked;
              string_of_int r.Engine.rounds;
              string_of_int r.Engine.bytes_transferred;
              string_of_int (List.length (tuples r.Engine.answers));
              (if r.Engine.complete then "yes" else "no");
              ms elapsed;
            ])
          budgets)
      Adversary.families
  in
  print_table ~title:"E10: adversarial families vs call budget (lazy NFQA, seed 11, scale 40)"
    ~header:
      [ "family"; "budget"; "calls"; "invoked"; "rounds"; "bytes"; "answers"; "complete"; "wall(ms)" ]
    rows

(* ------------------------------------------------------------------ *)
(* E11: type-based document projection — projected vs full. Each
   workload is evaluated twice under the typed lazy strategy, without
   and with the schema-derived projector (lib/project: the §5
   type-based relevance analysis applied to the data, not just the
   calls). Projection must not change the answers — every row pair
   asserts byte-identical tuples — so the columns to read are nodes
   (full → kept, over the initial document plus every spliced result
   forest), saved(B) (serialized bytes the projector discarded) and
   wire(B) (the initial document's size in the wire tree encoding, full
   vs projected; no peer ships documents, so it is a size measure only).
   live(kw) is a coarse residency proxy —
   live heap kwords after a forced major collection at the end of the
   run. *)

let e11_wire_bytes tr =
  String.length (Axml_obs.Json.to_string (Axml_net.Wire.(to_json tree) tr))

let e11_arm ~make ~project =
  (* fresh instance per arm: evaluation expands the document in place *)
  let doc, query, schema, registry = make () in
  let projector = if project then Some (Project.compile ~schema query) else None in
  let wire =
    let tr = Doc.to_xml doc in
    e11_wire_bytes (match projector with None -> tr | Some p -> fst (Project.tree p tr))
  in
  let r, elapsed =
    wall (fun () ->
        Lazy_eval.run ~registry ~schema ~strategy:Lazy_eval.nfqa_typed ?projector
          ~obs:!bench_obs query doc)
  in
  Gc.full_major ();
  (r, wire, elapsed, (Gc.stat ()).Gc.live_words / 1000)

let e11_workloads =
  let adversary family seed scale () =
    let inst =
      Adversary.generate { Adversary.default_config with Adversary.family; seed; scale }
    in
    (inst.Adversary.doc, inst.Adversary.query, inst.Adversary.schema, inst.Adversary.registry)
  in
  [
    ("skewed-fanout", adversary Adversary.Skewed_fanout 11 40);
    ("bounded-recursion", adversary Adversary.Bounded_recursion 11 40);
    ( "city",
      fun () ->
        let inst = City.generate { City.default_config with City.hotels = 20; seed = 3 } in
        (inst.City.doc, inst.City.query, inst.City.schema, inst.City.registry) );
  ]

let e11 () =
  let rows =
    List.concat_map
      (fun (name, make) ->
        let rf, wire_f, wall_f, live_f = e11_arm ~make ~project:false in
        let rp, wire_p, wall_p, live_p = e11_arm ~make ~project:true in
        (* the soundness contract: projection never changes the answers *)
        assert (tuples rf.Engine.answers = tuples rp.Engine.answers);
        assert (rf.Engine.complete = rp.Engine.complete);
        let mk arm (r, wire, elapsed, live) =
          [
            name;
            arm;
            (if r.Engine.full_nodes = 0 then "-"
             else Printf.sprintf "%d->%d" r.Engine.full_nodes r.Engine.projected_nodes);
            string_of_int r.Engine.invoked;
            string_of_int r.Engine.projected_bytes_saved;
            string_of_int wire;
            string_of_int (List.length (tuples r.Engine.answers));
            (if r.Engine.complete then "yes" else "no");
            ms elapsed;
            string_of_int live;
          ]
        in
        [ mk "full" (rf, wire_f, wall_f, live_f); mk "projected" (rp, wire_p, wall_p, live_p) ])
      e11_workloads
  in
  print_table
    ~title:"E11: type-based projection, projected vs full (lazy typed NFQA, identical answers)"
    ~header:
      [ "workload"; "arm"; "nodes"; "invoked"; "saved(B)"; "wire(B)"; "answers"; "complete"; "wall(ms)"; "live(kw)" ]
    rows

(* The CI-sized variant: skewed fan-out only, with hard assertions that
   projection saved document bytes, shrank the wire payload, and left
   the answers byte-identical. *)
let e11smoke () =
  let make =
    match List.assoc_opt "skewed-fanout" e11_workloads with
    | Some make -> make
    | None -> assert false
  in
  let rf, wire_f, _, _ = e11_arm ~make ~project:false in
  let rp, wire_p, _, _ = e11_arm ~make ~project:true in
  if tuples rf.Engine.answers <> tuples rp.Engine.answers then begin
    Printf.eprintf "e11smoke: answers differ under projection\n";
    exit 1
  end;
  if rp.Engine.projected_bytes_saved <= 0 then begin
    Printf.eprintf "e11smoke: projection saved no bytes (saved=%d, nodes %d->%d)\n"
      rp.Engine.projected_bytes_saved rp.Engine.full_nodes rp.Engine.projected_nodes;
    exit 1
  end;
  if wire_p >= wire_f then begin
    Printf.eprintf "e11smoke: projected wire payload %dB >= full %dB\n" wire_p wire_f;
    exit 1
  end;
  Printf.printf
    "e11smoke: ok (saved %dB in-document, wire %dB -> %dB, %d answers unchanged)\n"
    rp.Engine.projected_bytes_saved wire_f wire_p
    (List.length (tuples rp.Engine.answers))

(* ------------------------------------------------------------------ *)
(* E12: replica balancing over skewed loopback peers. Two [axmld] peers
   serve the full city registry, one fast and one 5x slower
   ([Server.create ~delay]); each peer gets [slots] concurrent request
   slots — the per-endpoint capacity the scheduler manages. The arms:

     unsharded     one registry on the fast peer, no scheduler — the
                   reference answers (and the E9-style uncapped run)
     replicas=1    the fast peer behind the scheduler, capacity-capped
     round-robin   both peers, cost-blind rotation
     adaptive      both peers, least-loaded-first on the EWMA/p95 cost

   The §4.4 contract extends to routing: every arm must produce the
   reference answers and invocation count — only the wall clock and the
   shard split may move. The wall-clock claims under test: adaptive
   beats round-robin (it drains through the fast peer instead of
   parking half the batch behind the slow one), and two replicas beat
   one (extra capacity, same answers). *)

let e12_arm ~cfg ~jobs ~mk_sched servers =
  let inst = City.generate cfg in
  let clients =
    List.map
      (fun srv ->
        Client.create ~pool_size:(max 4 jobs) ~host:"127.0.0.1" ~port:(Server.port srv) ())
      servers
  in
  Fun.protect
    ~finally:(fun () -> List.iter Client.close clients)
    (fun () ->
      (* one registry per peer: a full replica each, never memoized, so
         every invocation really crosses the wire *)
      let registries =
        List.map
          (fun c ->
            let r = Registry.create () in
            ignore (Remote.register ~memoize:false ~registry:r c);
            r)
          clients
      in
      let sched = mk_sched registries in
      let dispatch = Option.map Sched.dispatch sched in
      let registry = List.hd registries in
      let pool = if jobs > 1 then Some (Exec.create ~jobs ()) else None in
      Fun.protect
        ~finally:(fun () -> Option.iter Exec.shutdown pool)
        (fun () ->
          let go obs (i : City.t) =
            Lazy_eval.run ~registry ~schema:i.City.schema ~strategy:Lazy_eval.nfqa_typed ?pool
              ~obs ?dispatch i.City.query i.City.doc
          in
          (* one untimed warmup on its own (identical) instance —
             evaluation materializes the document's calls in place —
             fills the TCP connection pools and lets the scheduler's
             cost estimates converge, so the timed run measures
             steady-state placement for every arm *)
          ignore (go Obs.null (City.generate cfg));
          let r, elapsed = wall (fun () -> go !bench_obs inst) in
          let answer_bytes =
            Axml_xml.Print.forest_to_string (Eval.bindings_to_xml r.Engine.answers)
          in
          (r, answer_bytes, elapsed)))

let e12_sweep ~title ~hotels ~fast ~slow ~jobs ~slots =
  let cfg =
    {
      City.default_config with
      City.hotels;
      seed = 1;
      extensional_fraction = 1.0;
      intensional_rating_fraction = 1.0;
      intensional_nearby_fraction = 1.0;
      target_fraction = 1.0;
      five_star_fraction = 1.0;
    }
  in
  let mk_server delay =
    let served = City.generate cfg in
    let server = Server.create ~delay ~registry:served.City.registry () in
    Server.start server;
    server
  in
  let servers = [ mk_server fast; mk_server slow ] in
  Fun.protect
    ~finally:(fun () -> List.iter Server.stop servers)
    (fun () ->
      let spec_of id regs i = Sched.spec ~id ~slots (List.nth regs i) in
      let arms =
        [
          ("unsharded", (fun _ -> None), [ List.hd servers ]);
          ( "replicas=1",
            (fun regs -> Some (Sched.create [ spec_of "fast" regs 0 ])),
            [ List.hd servers ] );
          ( "round-robin x2",
            (fun regs ->
              Some
                (Sched.create ~mode:Sched.Round_robin
                   [ spec_of "fast" regs 0; spec_of "slow" regs 1 ])),
            servers );
          ( "adaptive x2",
            (fun regs ->
              Some
                (Sched.create ~mode:Sched.Adaptive
                   [ spec_of "fast" regs 0; spec_of "slow" regs 1 ])),
            servers );
        ]
      in
      let runs =
        List.map (fun (name, mk_sched, arm_servers) ->
            (name, e12_arm ~cfg ~jobs ~mk_sched arm_servers))
          arms
      in
      let _, (base, base_answers, _) = List.hd runs in
      let rows =
        List.map
          (fun (name, (r, answers, elapsed)) ->
            (* routing must not change the result, only the clock *)
            assert (answers = base_answers);
            assert (r.Engine.invoked = base.Engine.invoked);
            assert (r.Engine.complete = base.Engine.complete);
            [
              name;
              string_of_int r.Engine.invoked;
              string_of_int r.Engine.sharded_calls;
              string_of_int r.Engine.rebalanced_calls;
              secs elapsed;
            ])
          runs
      in
      print_table ~title
        ~header:[ "arm"; "invoked"; "sharded"; "rebalanced"; "wall(s)" ]
        rows;
      List.map (fun (name, (_, _, elapsed)) -> (name, elapsed)) runs)

let e12 () =
  ignore
    (e12_sweep
       ~title:
         "E12: replica balancing over 2 loopback peers (16 hotels, 20 ms vs 100 ms, 2 slots, \
          jobs=16)"
       ~hotels:16 ~fast:0.02 ~slow:0.1 ~jobs:16 ~slots:2)

(* The CI-sized variant, with hard assertions on the two wall-clock
   claims: adaptive beats round-robin, and two replicas beat one. *)
let e12smoke () =
  let walls =
    e12_sweep
      ~title:"E12 (smoke): 2 loopback peers (12 hotels, 20 ms vs 100 ms, 2 slots, jobs=12)"
      ~hotels:12 ~fast:0.02 ~slow:0.1 ~jobs:12 ~slots:2
  in
  let w n = List.assoc n walls in
  if w "adaptive x2" >= w "round-robin x2" then begin
    Printf.eprintf "e12smoke: adaptive (%.3fs) did not beat round-robin (%.3fs)\n"
      (w "adaptive x2") (w "round-robin x2");
    exit 1
  end;
  if w "adaptive x2" >= w "replicas=1" then begin
    Printf.eprintf "e12smoke: two replicas (%.3fs) did not beat one (%.3fs)\n" (w "adaptive x2")
      (w "replicas=1");
    exit 1
  end;
  Printf.printf "e12smoke: ok (adaptive %.3fs < round-robin %.3fs, < one replica %.3fs)\n"
    (w "adaptive x2") (w "round-robin x2") (w "replicas=1")

(* ------------------------------------------------------------------ *)
(* E13: event-loop server under connection pressure — one server, raw
   concurrent connections in the thousands, binary vs JSON framing on
   the city workload. Every connection handshakes (always JSON), then
   issues [rounds] gethotels requests; the binary arms advertise
   cap_binary and so negotiate the binary codec. Clients speak through
   raw fds with blocking Wire.send/recv (NOT the Client pool, whose
   health check selects — fd *values* past 1024 are exactly what the
   epoll loop exists for). Asserted invariants: every reply in every
   arm is byte-identical (serialized forest digest), and binary moves
   strictly fewer wire bytes. *)

module Wire = Axml_net.Wire

type e13_result = {
  e13_setup : float;  (* seconds to dial + handshake every connection *)
  e13_wall : float;  (* seconds for the request phase *)
  e13_bytes : int;  (* request-phase wire bytes, both directions *)
  e13_alloc : float;  (* bytes allocated process-wide during the arm *)
  e13_digest : string;  (* digest of the (identical) serialized replies *)
  e13_requests : int;
}

let e13_cfg hotels =
  (* all-intensional: gethotels answers with every hotel subtree, a
     meaty forest whose encoding cost is what the codecs compete on *)
  { City.default_config with City.hotels = hotels; seed = 7; extensional_fraction = 0.0 }

let e13_arm ~port ~binary ~conns ~threads ~rounds =
  let caps = if binary then [ Wire.cap_binary ] else [] in
  let invoke id =
    Wire.Invoke
      { id; service = "gethotels"; params = [ Axml_xml.Tree.text "NY" ]; push = None }
  in
  let alloc0 = Gc.allocated_bytes () in
  let dial () =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
    let scr = Wire.scratch () in
    ignore (Wire.send ~scratch:scr fd (Wire.Hello { version = Wire.version; caps }));
    match Wire.recv ~scratch:scr fd with
    | Wire.Welcome { caps = server_caps; _ }, _ ->
      let codec =
        if binary && List.mem Wire.cap_binary server_caps then Wire.Binary else Wire.Json
      in
      (fd, codec, scr, ref 0)
    | _ -> failwith "e13: handshake failed"
  in
  let pool, e13_setup = wall (fun () -> Array.init conns (fun _ -> dial ())) in
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun (fd, _, _, _) -> try Unix.close fd with Unix.Unix_error _ -> ())
        pool)
    (fun () ->
      let exchange (fd, codec, scr, next) =
        incr next;
        let sent = Wire.send ~codec ~scratch:scr fd (invoke !next) in
        match Wire.recv ~scratch:scr fd with
        | Wire.Result { id; forest; _ }, got when id = !next ->
          (sent + got, Digest.string (Axml_xml.Print.forest_to_string forest))
        | _ -> failwith "e13: unexpected reply"
      in
      (* one untimed probe pins the expected answer for the whole arm *)
      let _, e13_digest = exchange pool.(0) in
      let bytes_total = Atomic.make 0 in
      let errors = Atomic.make [] in
      let run_thread t () =
        try
          let local = ref 0 in
          for _ = 1 to rounds do
            Array.iteri
              (fun i conn ->
                if i mod threads = t then begin
                  let b, d = exchange conn in
                  if d <> e13_digest then failwith "e13: reply differs within arm";
                  local := !local + b
                end)
              pool
          done;
          ignore (Atomic.fetch_and_add bytes_total !local)
        with e -> Atomic.set errors (e :: Atomic.get errors)
      in
      let (), e13_wall =
        wall (fun () ->
            let ts = List.init threads (fun t -> Thread.create (run_thread t) ()) in
            List.iter Thread.join ts)
      in
      (match Atomic.get errors with [] -> () | e :: _ -> raise e);
      {
        e13_setup;
        e13_wall;
        e13_bytes = Atomic.get bytes_total;
        e13_alloc = Gc.allocated_bytes () -. alloc0;
        e13_digest;
        e13_requests = conns * rounds;
      })

let e13_sweep ~title ~hotels ~conns ~threads_list ~rounds =
  let served = City.generate (e13_cfg hotels) in
  let server = Server.create ~registry:served.City.registry () in
  Server.start server;
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () ->
      let port = Server.port server in
      let arms =
        List.concat_map
          (fun threads ->
            List.map
              (fun binary ->
                ((binary, threads), e13_arm ~port ~binary ~conns ~threads ~rounds))
              [ false; true ])
          threads_list
      in
      let _, base = List.hd arms in
      List.iter
        (fun (_, r) ->
          (* the acceptance bar: every arm answers byte-identically *)
          assert (r.e13_digest = base.e13_digest))
        arms;
      let rows =
        List.map
          (fun ((binary, threads), r) ->
            [
              (if binary then "binary" else "json");
              string_of_int threads;
              string_of_int conns;
              string_of_int r.e13_requests;
              secs r.e13_setup;
              secs r.e13_wall;
              Printf.sprintf "%.2f" (float_of_int r.e13_bytes /. 1048576.0);
              Printf.sprintf "%.1f" (r.e13_alloc /. 1048576.0);
              Printf.sprintf "%.0f" (float_of_int r.e13_requests /. Float.max 1e-9 r.e13_wall);
            ])
          arms
      in
      print_table ~title
        ~header:
          [ "wire"; "threads"; "conns"; "requests"; "setup(s)"; "wall(s)"; "wire(MB)"; "alloc(MB)"; "req/s" ]
        rows;
      arms)

let e13 () =
  let arms =
    e13_sweep
      ~title:"E13: 2000 concurrent connections through one event-loop server (24 hotels)"
      ~hotels:24 ~conns:2000 ~threads_list:[ 4; 16 ] ~rounds:2
  in
  List.iter
    (fun threads ->
      let find binary = List.assoc (binary, threads) arms in
      let j = find false and b = find true in
      if b.e13_bytes >= j.e13_bytes then begin
        Printf.eprintf "e13: binary moved %d B >= json %d B at %d threads\n" b.e13_bytes
          j.e13_bytes threads;
        exit 1
      end)
    [ 4; 16 ]

(* The CI-sized variant: 64 connections, 8 client threads, best of two
   runs per arm (the smoke assertion is about codec cost, not scheduler
   noise), hard-asserting byte-identical answers, strictly fewer wire
   bytes, and binary wall <= JSON wall. *)
let e13smoke () =
  let served = City.generate (e13_cfg 12) in
  let server = Server.create ~registry:served.City.registry () in
  Server.start server;
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () ->
      let port = Server.port server in
      let run binary = e13_arm ~port ~binary ~conns:64 ~threads:8 ~rounds:4 in
      let j1 = run false in
      let b1 = run true in
      let j2 = run false in
      let b2 = run true in
      if j1.e13_digest <> b1.e13_digest then begin
        Printf.eprintf "e13smoke: binary and json answers differ\n";
        exit 1
      end;
      if b1.e13_bytes >= j1.e13_bytes then begin
        Printf.eprintf "e13smoke: binary moved %d B >= json %d B\n" b1.e13_bytes
          j1.e13_bytes;
        exit 1
      end;
      let jw = Float.min j1.e13_wall j2.e13_wall in
      let bw = Float.min b1.e13_wall b2.e13_wall in
      if bw > jw then begin
        Printf.eprintf "e13smoke: binary wall %.3fs > json wall %.3fs\n" bw jw;
        exit 1
      end;
      Printf.printf
        "e13smoke: ok (binary %.3fs <= json %.3fs, %d B < %d B, answers identical)\n" bw jw
        b1.e13_bytes j1.e13_bytes)

(* ------------------------------------------------------------------ *)
(* E14: intra-document parallel match/detect. One Skewed_fanout
   Adversary instance is padded with cold ballast sections (pure data,
   no calls, keys never "magic") so the //item descendant sweep — not
   service invocation — dominates the run. The same evaluation is run
   at several --match-jobs levels: answers and every report counter
   must be byte-identical at every level (hard assert, even on one
   core); on a multi-core machine jobs=4 must also beat jobs=1 on the
   wall clock. *)

let e14_ballast doc ~sections ~items =
  let root = Doc.root doc in
  for s = 0 to sections - 1 do
    let item i =
      Doc.elem doc "item"
        [
          Doc.elem doc "key" [ Doc.data doc (Printf.sprintf "cold-%d-%d" s i) ];
          Doc.elem doc "payload" [ Doc.data doc "ballast" ];
        ]
    in
    Doc.append_child doc root (Doc.elem doc "section" (List.init items item))
  done

(* The cross-arm fingerprint: serialized answers plus every counter that
   must not move with the jobs level (analysis_seconds is wall-clock and
   parallel_match_batches is the parallelism accounting itself). *)
let e14_fingerprint (r : Engine.report) =
  let answers = Axml_xml.Print.forest_to_string (Eval.bindings_to_xml r.Engine.answers) in
  Printf.sprintf "%s|%d|%d|%d|%d|%d|%d|%d|%b" (Digest.to_hex (Digest.string answers))
    r.Engine.invoked r.Engine.rounds r.Engine.passes r.Engine.relevance_evals
    r.Engine.candidates_checked r.Engine.layer_count r.Engine.view_rebuild_nodes
    r.Engine.complete

let e14_arm ~scale ~sections ~items ~jobs =
  let inst =
    Adversary.generate
      { Adversary.default_config with Adversary.family = Adversary.Skewed_fanout; scale }
  in
  let doc = inst.Adversary.doc in
  e14_ballast doc ~sections ~items;
  let nodes = Doc.size doc in
  let strategy = Lazy_eval.with_match_jobs jobs Lazy_eval.nfqa in
  let r, w =
    wall (fun () ->
        Lazy_eval.run ~registry:inst.Adversary.registry ~strategy ~obs:!bench_obs
          inst.Adversary.query doc)
  in
  (nodes, r, w)

let e14_sweep ~title ~scale ~sections ~items ~jobs_list =
  let arms = List.map (fun jobs -> (jobs, e14_arm ~scale ~sections ~items ~jobs)) jobs_list in
  let _, (_, base, base_wall) = List.hd arms in
  let base_fp = e14_fingerprint base in
  List.iter
    (fun (jobs, (_, r, _)) ->
      if e14_fingerprint r <> base_fp then begin
        Printf.eprintf "e14: answers/counters diverge at match-jobs %d\n" jobs;
        exit 1
      end)
    arms;
  print_table ~title
    ~header:[ "match-jobs"; "nodes"; "wall(s)"; "analysis(s)"; "batches"; "speedup" ]
    (List.map
       (fun (jobs, ((nodes, r, w) : int * Engine.report * float)) ->
         [
           string_of_int jobs;
           string_of_int nodes;
           secs w;
           secs r.Engine.analysis_seconds;
           string_of_int r.Engine.parallel_match_batches;
           Printf.sprintf "%.2fx" (base_wall /. Float.max 1e-9 w);
         ])
       arms);
  arms

(* The strict wall-clock bar only applies where a speedup is physically
   possible: on a single-core machine the domain pool has no helper, the
   chunks run one after another on the caller and the fan-out can only
   cost overhead, so the timing assertion is skipped (the byte-identity
   assertion above always runs). *)
let e14_assert_speedup ~label arms =
  let wall_of j =
    let _, _, w = List.assoc j arms in
    w
  in
  if Domain.recommended_domain_count () >= 2 then begin
    if wall_of 4 >= wall_of 1 then begin
      Printf.eprintf "%s: match-jobs 4 wall %.3fs >= match-jobs 1 wall %.3fs\n" label
        (wall_of 4) (wall_of 1);
      exit 1
    end;
    Printf.printf "%s: ok (jobs=4 %.3fs < jobs=1 %.3fs, answers identical)\n" label
      (wall_of 4) (wall_of 1)
  end
  else
    Printf.printf
      "%s: single core (recommended_domain_count < 2), timing bar skipped; answers \
       identical at every jobs level\n"
      label

let e14 () =
  let arms =
    e14_sweep
      ~title:
        "E14: intra-document parallel matching, million-node skewed doc (match-jobs sweep)"
      ~scale:100 ~sections:64 ~items:3125 ~jobs_list:[ 1; 2; 4; 8 ]
  in
  e14_assert_speedup ~label:"e14" arms

(* CI-sized: ~20k-node doc, jobs 1 vs 4 — same hard byte-identity bar,
   same core-gated timing bar. *)
let e14smoke () =
  let arms =
    e14_sweep ~title:"E14 smoke: parallel matching, ~20k-node skewed doc" ~scale:30
      ~sections:16 ~items:250 ~jobs_list:[ 1; 4 ]
  in
  e14_assert_speedup ~label:"e14smoke" arms

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: the inner operation of each table. *)

let micro () =
  let open Bechamel in
  let open Toolkit in
  (* Prepared inputs, shared across iterations. *)
  let small_city = City.generate { City.default_config with City.hotels = 10 } in
  let nfqs = Nfq.of_query small_city.City.query in
  let synth = Synthetic.generate { Synthetic.default_config with Synthetic.nodes = 20_000 } in
  let synth_rqs = Nfq.of_query synth.Synthetic.query in
  let synth_guide = Fguide.build synth.Synthetic.doc in
  let resto_forest =
    List.init 20 (fun i ->
        Axml_xml.Parse.tree
          (Printf.sprintf
             "<restaurant><name>R%d</name><address>A</address><rating>%d</rating><review>%s</review></restaurant>"
             i
             (1 + (i mod 5))
             (String.make 512 'x')))
  in
  let push_pattern =
    Nfq.optimistic (Axml_query.Parser.parse {|/restaurant[name=$X!][address=$Y!][rating="5"]|}).P.root
  in
  let sat_query = small_city.City.query in
  let tests =
    [
      Test.make ~name:"e1:lazy-run(10 hotels)"
        (Staged.stage (fun () ->
             let inst = City.generate { City.default_config with City.hotels = 10 } in
             Lazy_eval.run ~registry:inst.City.registry ~schema:inst.City.schema
               ~strategy:Lazy_eval.nfqa_typed inst.City.query inst.City.doc));
      Test.make ~name:"e2:nfq-detection"
        (Staged.stage (fun () ->
             List.concat_map (fun rq -> Relevance.relevant_calls rq small_city.City.doc) nfqs));
      Test.make ~name:"e3:fguide-candidates(20k)"
        (Staged.stage (fun () ->
             List.concat_map
               (fun rq -> Fguide.candidates synth_guide (Relevance.guide_steps rq))
               synth_rqs));
      Test.make ~name:"e3:pathstack(20k)"
        (Staged.stage
           (let chains =
              List.map
                (fun rq ->
                  List.map
                    (fun (axis, label) -> { Axml_query.Pathstack.axis; label })
                    (Relevance.guide_steps rq))
                synth_rqs
            in
            fun () ->
              List.concat_map
                (fun steps -> Axml_query.Pathstack.matches steps synth.Synthetic.doc)
                chains));
      Test.make ~name:"e4:witness-prune"
        (Staged.stage (fun () -> Witness.prune push_pattern resto_forest));
      Test.make ~name:"e5:layering" (Staged.stage (fun () -> Influence.layers nfqs));
      Test.make ~name:"e6:sat-exact"
        (Staged.stage (fun () ->
             Sat.create (Schema.of_string City.schema_src) [ sat_query.P.root ]));
      (* Observability overhead: the same lazy run with the no-op sink vs
         live tracing+metrics. The acceptance bar is parity for the null
         sink against the e1 baseline (which never mentions obs). *)
      Test.make ~name:"obs:lazy-run-null"
        (Staged.stage (fun () ->
             let inst = City.generate { City.default_config with City.hotels = 10 } in
             Lazy_eval.run ~registry:inst.City.registry ~schema:inst.City.schema
               ~strategy:Lazy_eval.nfqa_typed ~obs:Obs.null inst.City.query inst.City.doc));
      Test.make ~name:"obs:lazy-run-traced"
        (Staged.stage (fun () ->
             let inst = City.generate { City.default_config with City.hotels = 10 } in
             Lazy_eval.run ~registry:inst.City.registry ~schema:inst.City.schema
               ~strategy:Lazy_eval.nfqa_typed ~obs:(Obs.create ()) inst.City.query
               inst.City.doc));
    ]
  in
  let grouped = Test.make_grouped ~name:"axml" ~fmt:"%s/%s" tests in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] grouped in
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols ->
      let estimate = match Analyze.OLS.estimates ols with Some (e :: _) -> e | _ -> nan in
      let r2 = match Analyze.OLS.r_square ols with Some r -> r | None -> nan in
      rows := [ name; Printf.sprintf "%.0f" estimate; Printf.sprintf "%.4f" r2 ] :: !rows)
    results;
  print_table ~title:"Micro-benchmarks (Bechamel, monotonic clock)"
    ~header:[ "benchmark"; "ns/run"; "r^2" ]
    (List.sort compare !rows)

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("e1", e1);
    ("e2", e2);
    ("e3", e3);
    ("e4", e4);
    ("e5", e5);
    ("e6", e6);
    ("e7", e7);
    ("e8", e8);
    ("e9", e9);
    ("e9smoke", e9smoke);
    ("e10", e10);
    ("e11", e11);
    ("e11smoke", e11smoke);
    ("e12", e12);
    ("e12smoke", e12smoke);
    ("e13", e13);
    ("e13smoke", e13smoke);
    ("e14", e14);
    ("e14smoke", e14smoke);
    ("micro", micro);
  ]

let () =
  let rec parse names = function
    | "--metrics-dir" :: dir :: rest ->
      metrics_dir := Some dir;
      parse names rest
    | "--metrics-dir" :: [] ->
      prerr_endline "--metrics-dir expects a directory argument";
      exit 2
    | name :: rest -> parse (name :: names) rest
    | [] -> List.rev names
  in
  let requested =
    match parse [] (List.tl (Array.to_list Sys.argv)) with
    | [] -> List.map fst experiments
    | names -> names
  in
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some f -> with_snapshot name f ()
      | None ->
        Printf.eprintf "unknown experiment %S (available: %s)\n" name
          (String.concat ", " (List.map fst experiments));
        exit 2)
    requested
