(** The unified evaluation runtime. Every evaluation strategy — naive
    materialization (§1) and the NFQA lazy evaluator (§4) alike — is a
    loop that picks batches of pending calls; the engine owns everything
    below that choice: the registry exchange (thread-safe request half,
    optionally on a worker pool), the sequential in-order apply half
    (document splicing, counters, strategy hooks), the §4.4
    whole-batch-fits-budget pooling guard, failed-call tombstones and
    graceful-degradation accounting, the simulated clock, and all
    [eval.*] span/metric emission — so the report ≡ metrics ≡ trace
    reconciliation invariant lives in exactly one place. *)

module P = Axml_query.Pattern
module Eval = Axml_query.Eval
module Doc = Axml_doc
module Registry = Axml_services.Registry
module Obs = Axml_obs.Obs
module Trace = Axml_obs.Trace
module Metrics = Axml_obs.Metrics
module Exec = Axml_exec.Exec
module Project = Axml_project.Project

let log_src = Logs.Src.create "axml.engine" ~doc:"unified evaluation engine"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* ------------------------------------------------------------------ *)
(* The one report *)

(** The single evaluation report. Strategies that do not perform
    relevance analysis (naive) leave the analysis fields at zero. *)
type report = {
  answers : Eval.binding list;
  invoked : int;
  pushed : int;
  rounds : int;  (** invocation rounds (batches or single calls) *)
  passes : int;  (** full evaluation sweeps over a layer *)
  relevance_evals : int;  (** NFQ/LPQ evaluations performed *)
  candidates_checked : int;  (** F-guide candidates filtered *)
  layer_count : int;
  simulated_seconds : float;  (** service latency + transfer, aggregated *)
  analysis_seconds : float;
      (** CPU time spent detecting relevant calls and planning the
          query (layers, ★ flags, push checks) *)
  bytes_transferred : int;
  retries : int;  (** retried service attempts, summed over invocations *)
  timeouts : int;  (** attempts classified as timeouts *)
  failed_calls : int;  (** calls left unexpanded after retry exhaustion *)
  backoff_seconds : float;  (** simulated seconds spent backing off *)
  full_nodes : int;  (** nodes handed to the projector; 0 without one *)
  projected_nodes : int;  (** nodes surviving projection; 0 without one *)
  projected_bytes_saved : int;  (** serialized bytes of dropped subtrees *)
  sharded_calls : int;  (** calls placed on a named shard; 0 unsharded *)
  rebalanced_calls : int;  (** calls the balancer moved off shard 0 *)
  rerouted_calls : int;  (** failed-replica calls salvaged elsewhere *)
  view_rebuild_nodes : int;
      (** snapshot-view nodes (re)indexed after the initial build:
          incremental splice patches plus any full rebuilds *)
  parallel_match_batches : int;
      (** intra-document parallel match dispatches; 0 when sequential *)
  complete : bool;  (** the answers are the full snapshot result *)
}

(* The report's fields, each defined once: its JSON key (also the
   summary label), the [eval.*] instrument bumped or set alongside it,
   that instrument's kind, its attribute on the strategy's root span,
   and its accessor. The JSON, the final gauges, the root span, the
   metrics reconciliation and the printed summary all read this table;
   the counter increments stay where the tallies are bumped, so
   [reconcile] compares two independent tallies. *)

type kind = Counter | Gauge
type value = Int of (report -> int) | Float of (report -> float) | Bool of (report -> bool)

type field = {
  name : string;
  metric : string;
  kind : kind;
  span : string option;
  value : value;
}

let field ?metric ?span name kind value =
  { name; metric = Option.value metric ~default:("eval." ^ name); kind; span; value }

let fields =
  [
    field "invoked" Counter (Int (fun r -> r.invoked)) ~span:"invoked";
    field "pushed" Counter (Int (fun r -> r.pushed));
    field "rounds" Counter (Int (fun r -> r.rounds)) ~span:"rounds";
    field "passes" Counter (Int (fun r -> r.passes)) ~span:"passes";
    field "relevance_evals" Counter (Int (fun r -> r.relevance_evals));
    field "candidates_checked" Counter (Int (fun r -> r.candidates_checked));
    field "layer_count" Gauge (Int (fun r -> r.layer_count));
    field "simulated_seconds" Gauge (Float (fun r -> r.simulated_seconds)) ~span:"simulated_s";
    field "analysis_seconds" Gauge (Float (fun r -> r.analysis_seconds));
    field "bytes_transferred" Counter
      (Int (fun r -> r.bytes_transferred))
      ~metric:"eval.bytes" ~span:"bytes";
    field "retries" Counter (Int (fun r -> r.retries));
    field "timeouts" Counter (Int (fun r -> r.timeouts));
    field "failed_calls" Counter (Int (fun r -> r.failed_calls));
    field "backoff_seconds" Counter (Float (fun r -> r.backoff_seconds));
    field "full_nodes" Gauge (Int (fun r -> r.full_nodes));
    field "projected_nodes" Gauge (Int (fun r -> r.projected_nodes));
    field "projected_bytes_saved" Gauge (Int (fun r -> r.projected_bytes_saved));
    field "sharded_calls" Counter (Int (fun r -> r.sharded_calls));
    field "rebalanced_calls" Counter (Int (fun r -> r.rebalanced_calls));
    field "rerouted_calls" Counter (Int (fun r -> r.rerouted_calls));
    field "view_rebuild_nodes" Gauge (Int (fun r -> r.view_rebuild_nodes));
    field "parallel_match_batches" Gauge (Int (fun r -> r.parallel_match_batches));
    field "complete" Gauge (Bool (fun r -> r.complete)) ~span:"complete";
  ]

(* the value a metric of this field holds: booleans are 0/1 gauges *)
let to_float r = function
  | Int f -> float_of_int (f r)
  | Float f -> f r
  | Bool f -> if f r then 1.0 else 0.0

let report_to_json (r : report) : Axml_obs.Json.t =
  let module J = Axml_obs.Json in
  let answer (b : Eval.binding) =
    J.Obj
      [
        ("vars", J.Obj (List.map (fun (x, v) -> (x, J.String v)) b.Eval.vars));
        ( "results",
          J.List
            (List.map
               (fun (_, n) -> J.String (Axml_xml.Print.to_string (Doc.node_to_xml n)))
               b.Eval.results) );
      ]
  in
  J.Obj
    (("answers", J.List (List.map answer r.answers))
    :: List.map
         (fun f ->
           ( f.name,
             match f.value with
             | Int g -> J.Int (g r)
             | Float g -> J.Float (g r)
             | Bool g -> J.Bool (g r) ))
         fields)

type mismatch = { field : string; report : float; metrics : float }

let reconcile r m =
  List.filter_map
    (fun f ->
      let report = to_float r f.value and metrics = Metrics.value m f.metric in
      let agree =
        match f.value with
        | Float _ ->
          Float.abs (report -. metrics)
          <= 1e-6 *. (1.0 +. Float.abs report +. Float.abs metrics)
        | Int _ | Bool _ -> report = metrics
      in
      if agree then None else Some { field = f.name; report; metrics })
    fields

let differing a b =
  List.filter_map
    (fun f ->
      if f.name <> "analysis_seconds" && to_float a f.value <> to_float b f.value then
        Some f.name
      else None)
    fields

let summary r =
  String.concat ""
    (List.filter_map
       (fun f ->
         let shown =
           match f.value with
           | Int g -> if g r = 0 then None else Some (string_of_int (g r))
           | Float g -> if g r = 0.0 then None else Some (Printf.sprintf "%g" (g r))
           | Bool g -> Some (string_of_bool (g r))
         in
         Option.map (Printf.sprintf "%s=%s\n" f.name) shown)
       fields)

(* ------------------------------------------------------------------ *)
(* Call helpers *)

let call_params (call : Doc.node) = List.map Doc.node_to_xml call.Doc.children

let call_name_exn (call : Doc.node) =
  match call.Doc.label with
  | Doc.Call { fname; _ } -> fname
  | Doc.Elem _ | Doc.Data _ -> invalid_arg "not a function node"

(* ------------------------------------------------------------------ *)
(* Routing *)

(* Where a call actually went. The default (registry-direct) dispatch
   reports [no_route]; a scheduler reports the shard it picked, whether
   the balancer moved the call off the first eligible shard, and how
   many failed replica attempts were salvaged by re-routing before the
   result came back. Only successful dispatches carry a route — a call
   that permanently fails has no placement to report. *)
type route = { shard : string option; rebalanced : bool; rerouted : int }

let no_route = { shard = None; rebalanced = false; rerouted = 0 }

type dispatch =
  name:string ->
  params:Axml_xml.Tree.forest ->
  ?push:P.node ->
  obs:Obs.t ->
  unit ->
  Axml_xml.Tree.forest * Registry.invocation * route

(* ------------------------------------------------------------------ *)
(* The invocation driver *)

type t = {
  registry : Registry.t;
  dispatch : dispatch;
  doc : Doc.t;
  obs : Obs.t;
  pool : Exec.pool option;
  max_calls : int;
  (* calls whose retry budget was exhausted: left in place as unexpanded
     function nodes, never re-attempted *)
  failed : (int, unit) Hashtbl.t;
  projector : Project.t option;
  mutable projection : Project.stats;
  (* [Doc.view_indexed_total] right after [create] built the initial
     snapshot: [finish] differences against it so the report counts only
     the view work done during the run *)
  view_baseline : int;
  mutable on_replace : parent:Doc.node -> invoked:Doc.node -> added:Doc.node list -> unit;
  mutable invoked : int;
  mutable pushed : int;
  mutable rounds : int;
  mutable simulated_seconds : float;
  mutable bytes : int;
  mutable retries : int;
  mutable timeouts : int;
  mutable backoff_seconds : float;
  mutable sharded_calls : int;
  mutable rebalanced_calls : int;
  mutable rerouted_calls : int;
  mutable budget_hit : bool;
}

type accounting = Max | Sum

let registry_dispatch registry : dispatch =
 fun ~name ~params ?push ~obs () ->
  let result, inv = Registry.invoke registry ~name ~params ?push ~obs () in
  (result, inv, no_route)

let create ?(max_calls = 100_000) ?pool ?(obs = Obs.null) ?projector ?dispatch registry
    (doc : Doc.t) =
  (* Layer 1: project the initial document before any strategy sees it. *)
  let projection =
    match projector with None -> Project.zero_stats | Some p -> Project.doc p doc
  in
  (* Index the (projected) document once up front: strategies hit this
     cached snapshot, and every splice from here on patches it
     incrementally instead of forcing full rebuilds. *)
  ignore (Doc.View.snapshot doc);
  {
    registry;
    dispatch = (match dispatch with Some d -> d | None -> registry_dispatch registry);
    doc;
    obs;
    pool;
    max_calls;
    failed = Hashtbl.create 8;
    projector;
    projection;
    view_baseline = Doc.view_indexed_total doc;
    on_replace = (fun ~parent:_ ~invoked:_ ~added:_ -> ());
    invoked = 0;
    pushed = 0;
    rounds = 0;
    simulated_seconds = 0.0;
    bytes = 0;
    retries = 0;
    timeouts = 0;
    backoff_seconds = 0.0;
    sharded_calls = 0;
    rebalanced_calls = 0;
    rerouted_calls = 0;
    budget_hit = false;
  }

let on_replace t f = t.on_replace <- f
let invoked t = t.invoked
let failed_calls t = Hashtbl.length t.failed
let permanently_failed t id = Hashtbl.mem t.failed id
let simulated_seconds t = t.simulated_seconds

let account t (inv : Registry.invocation) =
  t.retries <- t.retries + inv.Registry.retries;
  t.timeouts <- t.timeouts + inv.Registry.timeouts;
  t.backoff_seconds <- t.backoff_seconds +. inv.Registry.backoff_seconds;
  t.bytes <- t.bytes + inv.Registry.request_bytes + inv.Registry.response_bytes;
  (* the mirror of the report counters — same increments, so the metrics
     snapshot reconciles with the report exactly *)
  let m = t.obs.Obs.metrics in
  Metrics.incr m ~by:inv.Registry.retries "eval.retries";
  Metrics.incr m ~by:inv.Registry.timeouts "eval.timeouts";
  Metrics.add m "eval.backoff_seconds" inv.Registry.backoff_seconds;
  Metrics.incr m ~by:(inv.Registry.request_bytes + inv.Registry.response_bytes) "eval.bytes"

(* One invocation is split in two halves. [request] is the worker-safe
   half: just the registry exchange (thread-safe, only reads the
   document), with failures captured as data. [apply] is the sequential
   half: document mutation, the strategy's [on_replace] hook and every
   counter — always run on the coordinating thread, in batch input
   order, so neither the engine nor the strategy state needs locks. *)

type outcome =
  | O_ok of Axml_xml.Tree.forest * Registry.invocation * route
  | O_failed of Registry.invocation

let request t ~obs ?push (call : Doc.node) =
  match t.dispatch ~name:(call_name_exn call) ~params:(call_params call) ?push ~obs () with
  | result, inv, route -> O_ok (result, inv, route)
  | exception Registry.Service_failure inv -> O_failed inv

let apply t ?push (call : Doc.node) outcome =
  let name = call_name_exn call in
  match outcome with
  | O_ok (result, inv, route) ->
    Log.debug (fun m ->
        m "invoke [%d]%s%s%s"
          (match call.Doc.label with Doc.Call { call_id; _ } -> call_id | _ -> -1)
          name
          (if push = None then "" else " (pushed)")
          (match route.shard with None -> "" | Some s -> " @" ^ s));
    (* Layer 2: project the freshly materialized result {e before} it is
       spliced, so F-guides and function scans only ever observe the
       projected document — and so the splice is the only mutation,
       keeping the incremental snapshot-view patch valid (post-splice
       pruning would invalidate it and force full O(n) rebuilds). *)
    let tr = t.obs.Obs.trace in
    let span = if Trace.enabled tr then Trace.open_span tr "doc.splice" else Trace.none in
    let parent = call.Doc.parent in
    let result =
      match (t.projector, parent) with
      | Some p, Some parent ->
        let kept, st = Project.spliced_forest p ~parent result in
        t.projection <- Project.add_stats t.projection st;
        kept
      | _ -> result
    in
    let added = Doc.replace_call t.doc call result in
    (* [replace_call] detached the call and rejects a parentless one, so
       the splice point was captured above and exists *)
    t.on_replace ~parent:(Option.get parent) ~invoked:call ~added;
    if Trace.enabled tr then
      Trace.close_span tr ~attrs:[ ("added", Trace.Int (List.length added)) ] span;
    t.invoked <- t.invoked + 1;
    Metrics.incr t.obs.Obs.metrics "eval.invoked";
    if inv.Registry.pushed then begin
      t.pushed <- t.pushed + 1;
      Metrics.incr t.obs.Obs.metrics "eval.pushed"
    end;
    (match route.shard with
    | None -> ()
    | Some _ ->
      t.sharded_calls <- t.sharded_calls + 1;
      Metrics.incr t.obs.Obs.metrics "eval.sharded_calls");
    if route.rebalanced then begin
      t.rebalanced_calls <- t.rebalanced_calls + 1;
      Metrics.incr t.obs.Obs.metrics "eval.rebalanced_calls"
    end;
    if route.rerouted > 0 then begin
      t.rerouted_calls <- t.rerouted_calls + route.rerouted;
      Metrics.incr t.obs.Obs.metrics ~by:route.rerouted "eval.rerouted_calls"
    end;
    account t inv;
    inv.Registry.cost
  | O_failed inv ->
    (* Graceful degradation: the call stays in place as an unexpanded
       function node; the answer may only lose bindings (Def. 4). *)
    Log.debug (fun m ->
        m "invoke [%d]%s permanently failed (%d retries, %d timeouts)"
          (match call.Doc.label with Doc.Call { call_id; _ } -> call_id | _ -> -1)
          name inv.Registry.retries inv.Registry.timeouts);
    Hashtbl.replace t.failed call.Doc.id ();
    Metrics.incr t.obs.Obs.metrics "eval.failed_calls";
    account t inv;
    inv.Registry.cost

(* A batch of calls. With a pool and [Max] accounting (a §4.4 parallel
   batch), the members' registry exchanges run concurrently — condition
   ★ guarantees no member's parameters depend on another member's
   result, so requesting against the pre-batch document is exactly what
   the sequential order does too — and the apply phase then runs
   sequentially in input order, which keeps answers, counters and
   traces identical to the sequential path. The pool is only used when
   the whole batch fits in the remaining call budget, so the budget
   cuts at the same call at every jobs level. A call reached with the
   budget exhausted is skipped and marks [budget_hit]. *)
let invoke_batch t ?push ~accounting calls =
  let combine worst cost =
    match accounting with Max -> Float.max worst cost | Sum -> worst +. cost
  in
  let pooled =
    match (t.pool, accounting) with
    | Some pool, Max
      when Exec.jobs pool > 1
           && List.length calls > 1
           && t.invoked + List.length calls <= t.max_calls ->
      Some pool
    | _ -> None
  in
  match pooled with
  | None ->
    List.fold_left
      (fun worst call ->
        if t.invoked >= t.max_calls then begin
          t.budget_hit <- true;
          worst
        end
        else combine worst (apply t ?push call (request t ~obs:t.obs ?push call)))
      0.0 calls
  | Some pool ->
    let outcomes =
      Exec.map_batch pool
        (fun call ->
          let obs = Obs.fork t.obs in
          (obs, request t ~obs ?push call))
        calls
    in
    List.fold_left2
      (fun worst call (obs, outcome) ->
        Obs.join t.obs obs;
        combine worst (apply t ?push call outcome))
      0.0 calls outcomes

let round ?(attrs = []) ?push ~accounting t calls =
  t.rounds <- t.rounds + 1;
  Metrics.incr t.obs.Obs.metrics "eval.rounds";
  let tr = t.obs.Obs.trace in
  let span =
    if Trace.enabled tr then Trace.open_span tr ~attrs "eval.round" else Trace.none
  in
  let batch_cost = invoke_batch t ?push ~accounting calls in
  if Trace.enabled tr then
    Trace.close_span tr ~attrs:[ ("batch_cost_s", Trace.Float batch_cost) ] span;
  t.simulated_seconds <- t.simulated_seconds +. batch_cost;
  batch_cost

(* ------------------------------------------------------------------ *)
(* Finishing: final gauges, the root span, the report *)

let finish ?passes ?(relevance_evals = 0) ?(candidates_checked = 0) ?layer_count
    ?analysis_seconds ?(parallel_match_batches = 0) t ~root ~answers ~budget_ok =
  let r =
    {
      answers;
      invoked = t.invoked;
      pushed = t.pushed;
      rounds = t.rounds;
      passes = Option.value passes ~default:0;
      relevance_evals;
      candidates_checked;
      layer_count = Option.value layer_count ~default:0;
      simulated_seconds = t.simulated_seconds;
      analysis_seconds = Option.value analysis_seconds ~default:0.0;
      bytes_transferred = t.bytes;
      retries = t.retries;
      timeouts = t.timeouts;
      failed_calls = Hashtbl.length t.failed;
      backoff_seconds = t.backoff_seconds;
      full_nodes = t.projection.Project.full_nodes;
      projected_nodes = t.projection.Project.kept_nodes;
      projected_bytes_saved = t.projection.Project.bytes_saved;
      sharded_calls = t.sharded_calls;
      rebalanced_calls = t.rebalanced_calls;
      rerouted_calls = t.rerouted_calls;
      view_rebuild_nodes = Doc.view_indexed_total t.doc - t.view_baseline;
      parallel_match_batches;
      complete = budget_ok && Hashtbl.length t.failed = 0;
    }
  in
  if Obs.enabled t.obs then begin
    let m = t.obs.Obs.metrics in
    Metrics.set m "eval.answers" (float_of_int (List.length answers));
    List.iter
      (fun f -> if f.kind = Gauge then Metrics.set m f.metric (to_float r f.value))
      fields;
    let attr f =
      Option.map
        (fun a ->
          ( a,
            match f.value with
            | Int g -> Trace.Int (g r)
            | Float g -> Trace.Float (g r)
            | Bool g -> Trace.Bool (g r) ))
        f.span
    in
    Trace.close_span t.obs.Obs.trace ~attrs:(List.filter_map attr fields) root
  end;
  r

(* ------------------------------------------------------------------ *)
(* The naive strategy (§1): every visible call is relevant, one round
   per fixpoint iteration, until no visible call remains (or the
   budget cuts). A degenerate client of the driver above. *)

let naive_run ?max_calls ?(parallel = true) ?pool ?(obs = Obs.null) ?projector ?dispatch
    registry (q : P.t) (d : Doc.t) : report =
  let tr = obs.Obs.trace in
  let root = if Trace.enabled tr then Trace.open_span tr "eval.naive" else Trace.none in
  let t = create ?max_calls ?pool ~obs ?projector ?dispatch registry d in
  let continue = ref true in
  while !continue do
    let calls =
      List.filter
        (fun (c : Doc.node) -> not (permanently_failed t c.Doc.id))
        (Doc.visible_function_nodes d)
    in
    if calls = [] then continue := false
    else begin
      ignore
        (round t
           ~accounting:(if parallel then Max else Sum)
           ~attrs:
             [ ("calls", Trace.Int (List.length calls)); ("parallel", Trace.Bool parallel) ]
           calls);
      if t.budget_hit then continue := false
    end
  done;
  let answers = Eval.eval q d in
  finish t ~root ~answers ~budget_ok:(not t.budget_hit)
