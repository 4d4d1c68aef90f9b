(** The lazy query evaluator: the NFQA algorithm of §4.1 with every
    refinement of the paper available as a strategy switch —

    - relevance detection by NFQs (exact, §3.2) or LPQs (relaxed, §3.1 /
      §6.1),
    - type-based pruning with exact or lenient satisfiability (§5, §6.1),
    - relaxed variable joins (§6.1),
    - F-guide candidate retrieval with anchored filtering (§6.2),
    - NFQ layering by the may-influence relation (§4.3),
    - parallel invocation under the independence condition ★ (§4.4),
    - after-layer simplification of remaining NFQs (§4.3),
    - query pushing (§7).

    The evaluator mutates the document in place (invoked calls are
    replaced by their results) and returns the exact snapshot result of
    the original query on the final document, together with the
    measurements the benchmarks report. *)

module P = Axml_query.Pattern
module Eval = Axml_query.Eval
module Exec = Axml_exec.Exec

let log_src = Logs.Src.create "axml.lazy" ~doc:"NFQA lazy evaluation trace"

module Log = (val Logs.src_log log_src : Logs.LOG)
module Doc = Axml_doc
module Schema = Axml_schema.Schema
module Sat = Axml_schema.Sat
module Obs = Axml_obs.Obs
module Trace = Axml_obs.Trace
module Metrics = Axml_obs.Metrics
module Engine = Axml_engine.Engine

type relevance_mode =
  | Nfq_relevance  (** node-focused queries: exact relevant-call detection *)
  | Lpq_relevance  (** linear path queries: cheaper, superset *)

type typing_mode =
  | No_types
  | Lenient_types  (** graph-schema satisfiability (§6.1) *)
  | Exact_types  (** single-word satisfiability (§5) *)

type strategy = {
  relevance : relevance_mode;
  typing : typing_mode;
  relax_joins : bool;  (** ignore variable joins during detection (§6.1) *)
  use_fguide : bool;  (** candidates from the F-guide, then anchored checks (§6.2) *)
  layering : bool;  (** process NFQs layer by layer (§4.3) *)
  parallel : bool;  (** batch-invoke for independent NFQs (§4.4) *)
  speculative : bool;
      (** batch-invoke even without independence — §4.4's "calling
          functions in parallel just in case": fewer rounds, possibly
          some unnecessary calls *)
  simplify_after_layer : bool;
      (** drop the OR/() branches of finished layers from the remaining
          NFQs (§4.3) *)
  push : bool;  (** ship [sub_q_v] with the calls (§7) *)
  containment_dedup : bool;
      (** drop relevance queries contained in another one (§4.1's
          redundant-query elimination); only applied without typing, where
          it is provably answer-preserving *)
  share_contexts : bool;
      (** share one evaluation context across the NFQs of a detection
          sweep (multi-query optimization, §4.1) *)
  materialize_results : bool;
      (** invoke the calls remaining below answer images, so answers ship
          fully extensional instead of "possibly intensionally" (§2) *)
  match_jobs : int;
      (** fan the match/detect passes out over top-level document
          subtrees in this many chunks on the domain pool (0 = auto,
          1 = sequential);
          answers are byte-identical at every level *)
  max_calls : int;
}

(* A termination guard beside [max_calls]: a bound on detection passes
   that no strategy needs to tune. *)
let max_passes = 1_000_000

(** The naive strategy is {!Engine.naive_run}; these are the named
    configurations the benchmarks compare. *)
let nfqa =
  {
    relevance = Nfq_relevance;
    typing = No_types;
    relax_joins = false;
    use_fguide = false;
    layering = true;
    parallel = true;
    speculative = false;
    simplify_after_layer = false;
    push = false;
    containment_dedup = false;
    share_contexts = true;
    materialize_results = false;
    match_jobs = 1;
    max_calls = 100_000;
  }

let nfqa_typed = { nfqa with typing = Exact_types }
let nfqa_lenient = { nfqa with typing = Lenient_types; relax_joins = true }
let lpq_only = { nfqa with relevance = Lpq_relevance }

let named =
  [ ("nfqa", nfqa); ("nfqa-typed", nfqa_typed); ("nfqa-lenient", nfqa_lenient); ("lpq", lpq_only) ]

let with_fguide s = { s with use_fguide = true }
let with_push s = { s with push = true }
let with_budget b s = { s with max_calls = min b s.max_calls }
let with_match_jobs n s = { s with match_jobs = n }

(* ------------------------------------------------------------------ *)
(* The query plan: everything the analysis derives from the query alone
   — the relevance queries, their may-influence layers (§4.3) with each
   query's ★ flag (§4.4), and the push pairs (§7). It depends on no
   document, schema or registry; [run] derives it once per run. *)

type plan = {
  layers : (Relevance.t * bool) list list;
      (* relevance queries after containment dedup, by layer, each with
         its independence flag within its layer *)
  push_pairs : ((Doc.t -> Doc.node -> bool) * P.node) list;
      (* each query node with its NFQ's staged anchored check, for
         pushing *)
}

(* The relevance queries of [q] under [strategy], and the NFQs to push
   (one [Nfq.of_query] serves both). This is the step that rejects a
   query the constructions do not support (OR nodes), so [run] takes it
   before any side effect. *)
let relevance_queries strategy (q : P.t) =
  let nfqs =
    if strategy.relevance = Nfq_relevance || strategy.push then Nfq.of_query q else []
  in
  let rqs = match strategy.relevance with Nfq_relevance -> nfqs | Lpq_relevance -> Lpq.of_query q in
  (rqs, if strategy.push then nfqs else [])

let plan strategy (q : P.t) (rqs, push_nfqs) =
  let rqs =
    (* Containment dedup is only sound for the union of *unrefined*
       results: a dropped query's calls are retrieved by its container.
       Type refinement is per-source, so with typing on we keep all. *)
    if strategy.containment_dedup && strategy.typing = No_types then begin
      let kept_queries =
        Axml_query.Containment.drop_contained
          (List.map (fun rq -> rq.Relevance.query) rqs)
      in
      let kept_roots =
        List.map (fun (kq : P.t) -> kq.P.root.P.pid) kept_queries
      in
      List.filter (fun rq -> List.mem rq.Relevance.query.P.root.P.pid kept_roots) rqs
    end
    else rqs
  in
  let nodes = P.nodes q in
  {
    layers = Influence.plan ~layering:strategy.layering rqs;
    push_pairs =
      List.filter_map
        (fun (rq : Relevance.t) ->
          List.find_opt (fun (v : P.node) -> v.P.pid = rq.Relevance.source) nodes
          |> Option.map (fun v -> (Relevance.retrieves rq, v)))
        push_nfqs;
  }

(* Invocation (registry exchange, splicing, pooling, fault accounting,
   the simulated clock and all eval.* emission) is delegated to the
   engine; this state holds only what the NFQA analysis itself needs. *)
type state = {
  strategy : strategy;
  doc : Doc.t;
  obs : Obs.t;
  eng : Engine.t;  (* the unified invocation driver *)
  typing : Typing.t option;
  fguide : Fguide.t option;
  mutable known_functions : string list;
  known_set : (string, unit) Hashtbl.t;
  mutable refinement_dirty : bool;
  refined : (int, Relevance.t option) Hashtbl.t;  (* source pid -> refined rq *)
  mutable finished_sources : int list;  (* sources of finished layers *)
  (* evaluation context shared across detections, kept in sync across
     splices by [Eval.forget]; dropped with the [refined] cache, whose
     rewrites keep pattern pids while changing labels *)
  mutable shared_ctx : Eval.context option;
  (* intra-document parallel matching: jobs level + batch accounting *)
  match_par : Eval.par option;
  (* analysis counters — the invocation counters live in the engine *)
  mutable passes : int;
  mutable relevance_evals : int;
  mutable candidates_checked : int;
  mutable analysis_seconds : float;
}

let add_known st name =
  if not (Hashtbl.mem st.known_set name) then begin
    Hashtbl.replace st.known_set name ();
    st.known_functions <- st.known_functions @ [ name ];
    st.refinement_dirty <- true
  end

let scan_new_functions st (nodes : Doc.node list) =
  List.iter
    (fun n ->
      Doc.iter_node
        (fun m -> match m.Doc.label with Doc.Call { fname; _ } -> add_known st fname | _ -> ())
        n)
    nodes

(* The effective relevance query used for evaluation: refined by types and
   pruned of finished layers' branches, cached until invalidated. *)
let effective st (rq : Relevance.t) : Relevance.t option =
  if st.refinement_dirty then begin
    Hashtbl.reset st.refined;
    st.shared_ctx <- None;
    st.refinement_dirty <- false
  end;
  match Hashtbl.find_opt st.refined rq.Relevance.source with
  | Some cached -> cached
  | None ->
    let refined =
      match st.typing with
      | None -> Some rq
      | Some ty -> Typing.refine ty ~known_functions:st.known_functions rq
    in
    let refined =
      if st.strategy.simplify_after_layer && st.finished_sources <> [] then
        Option.bind refined (fun rq' ->
            Relevance.rewrite_funs rq' ~f:(fun ~fun_pid ~source ->
                if fun_pid = rq'.Relevance.target then `Keep
                else if List.mem source st.finished_sources then `Drop
                else `Keep))
      else refined
    in
    Hashtbl.replace st.refined rq.Relevance.source refined;
    refined

let timed st f =
  let t0 = Sys.time () in
  let r = f () in
  st.analysis_seconds <- st.analysis_seconds +. (Sys.time () -. t0);
  r

(* The [eval.match] span around a (potentially) parallel match pass,
   closed with the number of parallel batches it dispatched. *)
let with_match_span st f =
  match st.match_par with
  | None -> f ()
  | Some par ->
    let tr = st.obs.Obs.trace in
    if not (Trace.enabled tr) then f ()
    else begin
      let b0 = Eval.par_batches par in
      let span =
        Trace.open_span tr
          ~attrs:[ ("jobs", Trace.Int (Eval.par_jobs par)) ]
          "eval.match"
      in
      let r = f () in
      Trace.close_span tr
        ~attrs:[ ("batches", Trace.Int (Eval.par_batches par - b0)) ]
        span;
      r
    end

(* Relevant calls the query currently retrieves — minus the permanently
   failed ones, which would otherwise be retrieved forever. *)
let detect st (rq : Relevance.t) : Doc.node list =
  timed st (fun () ->
      let tr = st.obs.Obs.trace in
      let span =
        if Trace.enabled tr then
          Trace.open_span tr ~attrs:[ ("source", Trace.Int rq.Relevance.source) ] "eval.detect"
        else Trace.none
      in
      let t0 = if Obs.enabled st.obs then Sys.time () else 0.0 in
      st.relevance_evals <- st.relevance_evals + 1;
      Metrics.incr st.obs.Obs.metrics "eval.relevance_evals";
      let retrieved =
        match effective st rq with
        | None -> []
        | Some r -> (
          let relax_joins = st.strategy.relax_joins in
          match st.fguide with
          | None ->
            if st.strategy.share_contexts then begin
              let ctx =
                match st.shared_ctx with
                | Some ctx -> ctx
                | None ->
                  let ctx = Eval.context ~relax_joins ?par:st.match_par () in
                  st.shared_ctx <- Some ctx;
                  ctx
              in
              with_match_span st (fun () -> Relevance.relevant_calls_in ctx r st.doc)
            end
            else
              with_match_span st (fun () ->
                  Relevance.relevant_calls ~relax_joins ?par:st.match_par r st.doc)
          | Some guide ->
            let candidates = Fguide.candidates guide (Relevance.guide_steps r) in
            st.candidates_checked <- st.candidates_checked + List.length candidates;
            Metrics.incr st.obs.Obs.metrics ~by:(List.length candidates)
              "eval.candidates_checked";
            (match st.strategy.relevance with
            | Lpq_relevance ->
              (* an LPQ is exactly its linear path: guide answers are final *)
              candidates
            | Nfq_relevance -> (
              (* anchored filtering over one snapshot; fanned out over
                 domains when parallel — contiguous chunks, concatenated
                 back in order, so the kept list is identical to the
                 sequential filter *)
              match candidates with
              | [] -> []
              | _ -> (
                let view = Doc.View.snapshot st.doc in
                let retrieves = Relevance.retrieves_view ~relax_joins r in
                let filter =
                  List.filter (fun (c : Doc.node) ->
                      match Doc.View.index_of view c with
                      | Some i -> retrieves view i
                      | None -> false)
                in
                match st.match_par with
                | Some par when List.compare_length_with candidates 1 > 0 ->
                  with_match_span st (fun () ->
                      match Eval.fan_out par ~weight:(fun _ -> 1) filter candidates with
                      | Some kept -> List.concat kept
                      | None -> filter candidates)
                | _ -> filter candidates))))
      in
      let result =
        if Engine.failed_calls st.eng = 0 then retrieved
        else
          List.filter
            (fun (c : Doc.node) -> not (Engine.permanently_failed st.eng c.Doc.id))
            retrieved
      in
      if Obs.enabled st.obs then begin
        Metrics.observe st.obs.Obs.metrics "eval.detect_seconds" (Sys.time () -. t0);
        Trace.close_span tr ~attrs:[ ("retrieved", Trace.Int (List.length result)) ] span
      end;
      result)

(* One call can be relevant to several query nodes (it may produce the
   data any of them is missing), and whichever relevance query retrieves
   it first is an accident of sweep order — so the pushed pattern must
   not depend on the retrieving query. Union the optimistic subtrees of
   every query node whose (unrefined) NFQ retrieves a call of the batch:
   retrieval is optimistic, so a position the results could only fill
   after more data arrives is already retrieving now. *)
let push_pattern st push_pairs (calls : Doc.node list) =
  match push_pairs with
  | [] -> None
  | pairs ->
    let tr = st.obs.Obs.trace in
    let span =
      if Trace.enabled tr then
        Trace.open_span tr ~attrs:[ ("calls", Trace.Int (List.length calls)) ] "eval.push_pattern"
      else Trace.none
    in
    let sources =
      List.filter_map
        (fun (retrieves, v) ->
          if List.exists (retrieves st.doc) calls then Some v
          else None)
        pairs
    in
    if Trace.enabled tr then
      Trace.close_span tr ~attrs:[ ("sources", Trace.Int (List.length sources)) ] span;
    Some (Nfq.optimistic_union sources)

let within_budget st =
  Engine.invoked st.eng < st.strategy.max_calls && st.passes < max_passes

(* Visible calls inside a subtree (reached through data nodes only). *)
let pending_calls_below (n : Doc.node) =
  let out = ref [] in
  let rec go (m : Doc.node) =
    match m.Doc.label with
    | Doc.Call _ -> out := m :: !out
    | Doc.Data _ -> ()
    | Doc.Elem _ -> List.iter go m.Doc.children
  in
  go n;
  List.rev !out

(* §2: calls below a result image do not contribute to any embedding, so
   they are never relevant; when the consumer wants fully extensional
   answers, invoke them until the answer subtrees are call-free. *)
let materialize_answers st (q : P.t) =
  let continue = ref true in
  while !continue && within_budget st do
    st.passes <- st.passes + 1;
    Metrics.incr st.obs.Obs.metrics "eval.passes";
    let answers =
      with_match_span st (fun () -> Eval.eval ?par:st.match_par q st.doc)
    in
    let seen = Hashtbl.create 16 in
    let pending =
      List.concat_map
        (fun (b : Eval.binding) ->
          List.concat_map (fun (_, n) -> pending_calls_below n) b.Eval.results)
        answers
      |> List.filter (fun (c : Doc.node) ->
             if Hashtbl.mem seen c.Doc.id || Engine.permanently_failed st.eng c.Doc.id then
               false
             else begin
               Hashtbl.replace seen c.Doc.id ();
               true
             end)
    in
    if pending = [] then continue := false
    else
      ignore
        (Engine.round st.eng ~accounting:Engine.Max
           ~attrs:
             [ ("calls", Trace.Int (List.length pending)); ("phase", Trace.Str "materialize") ]
           pending)
  done

(* NFQA over one layer: repeatedly sweep the layer's queries; on the first
   query that retrieves calls, invoke (all in parallel if independent,
   otherwise one) and sweep again. The layer is done when a full sweep
   retrieves nothing. *)
let process_layer st ~push_pairs (layer : (Relevance.t * bool) list) =
  let tr = st.obs.Obs.trace in
  let continue = ref true in
  while !continue && within_budget st do
    st.passes <- st.passes + 1;
    Metrics.incr st.obs.Obs.metrics "eval.passes";
    continue := false;
    Trace.with_span tr "eval.pass" (fun () ->
        let rec sweep = function
          | [] -> ()
          | (rq, independent) :: rest -> (
            match detect st rq with
            | [] -> sweep rest
            | calls ->
              Log.debug (fun m ->
                  m "NFQ(v=%d) retrieves %d call(s)" rq.Relevance.source (List.length calls));
              continue := true;
              let parallel =
                st.strategy.parallel && (st.strategy.speculative || independent)
              in
              (* a §4.4 batch when parallel (accounted at the slowest
                 call, pool-eligible); otherwise one call per round *)
              let batch = if parallel then calls else [ List.hd calls ] in
              ignore
                (Engine.round st.eng ~accounting:Engine.Max
                   ~attrs:
                     [
                       ("source", Trace.Int rq.Relevance.source);
                       ("calls", Trace.Int (List.length batch));
                       ("parallel", Trace.Bool parallel);
                     ]
                   ?push:(push_pattern st push_pairs batch) batch))
        in
        sweep layer)
  done

let relevance_name = function Nfq_relevance -> "nfq" | Lpq_relevance -> "lpq"
let typing_name = function No_types -> "none" | Lenient_types -> "lenient" | Exact_types -> "exact"

let run ?(strategy = nfqa) ?schema ?(obs = Obs.null) ?pool ?projector ?dispatch ~registry
    (q : P.t) (d : Doc.t) : Engine.report =
  let rqs = relevance_queries strategy q in
  let typing =
    match strategy.typing, schema with
    | No_types, _ | _, None -> None
    | Lenient_types, Some s -> Some (Typing.create ~mode:Sat.Lenient s q)
    | Exact_types, Some s -> Some (Typing.create ~mode:Sat.Exact s q)
  in
  let eng =
    Engine.create ~max_calls:strategy.max_calls ?pool ~obs ?projector ?dispatch registry d
  in
  let match_jobs =
    if strategy.match_jobs = 0 then Exec.default_jobs () else max 1 strategy.match_jobs
  in
  let match_par = if match_jobs > 1 then Some (Eval.par ~jobs:match_jobs) else None in
  let fguide, fguide_reused =
    if strategy.use_fguide then begin
      let g, reused = Fguide.memoized d in
      (Some g, reused)
    end
    else (None, false)
  in
  if fguide_reused then Metrics.incr obs.Obs.metrics "fguide.reuse";
  let st =
    {
      strategy;
      doc = d;
      obs;
      eng;
      typing;
      fguide;
      known_functions = [];
      known_set = Hashtbl.create 16;
      refinement_dirty = false;
      refined = Hashtbl.create 16;
      finished_sources = [];
      shared_ctx = None;
      match_par;
      passes = 0;
      relevance_evals = 0;
      candidates_checked = 0;
      analysis_seconds = 0.0;
    }
  in
  (* The sequential apply half calls back here after every splice:
     drop the shared context's memo along the splice path only, keep the
     F-guide in sync and learn the function names the result brought in. *)
  Engine.on_replace eng (fun ~parent ~invoked ~added ->
      Option.iter (fun ctx -> Eval.forget ctx parent) st.shared_ctx;
      (match st.fguide with
      | None -> ()
      | Some guide ->
        Fguide.update_after_replace guide ~invoked ~added;
        (* the maintained guide reflects the spliced document: re-tag it
           so the next evaluation's [memoized] reuses it *)
        Fguide.sync guide st.doc);
      scan_new_functions st added);
  (match schema with
  | Some s -> List.iter (add_known st) (Schema.function_names s)
  | None -> ());
  List.iter
    (fun c -> match c.Doc.label with Doc.Call { fname; _ } -> add_known st fname | _ -> ())
    (Doc.function_nodes d);
  st.refinement_dirty <- true;
  let tr = obs.Obs.trace in
  let root =
    if Trace.enabled tr then
      Trace.open_span tr
        ~attrs:
          [
            ("relevance", Trace.Str (relevance_name strategy.relevance));
            ("typing", Trace.Str (typing_name strategy.typing));
            ("layering", Trace.Bool strategy.layering);
            ("parallel", Trace.Bool strategy.parallel);
            ("push", Trace.Bool strategy.push);
            ("fguide", Trace.Bool strategy.use_fguide);
            ("match_jobs", Trace.Int match_jobs);
            ("doc_nodes", Trace.Int (Doc.size d));
          ]
        "eval.run"
    else Trace.none
  in
  let plan = Trace.with_span tr "eval.plan" (fun () -> timed st (fun () -> plan strategy q rqs)) in
  let layers = plan.layers in
  Log.info (fun m ->
      m "%d relevance queries in %d layer(s)"
        (List.fold_left (fun n layer -> n + List.length layer) 0 layers)
        (List.length layers));
  List.iteri
    (fun i layer ->
      Trace.with_span tr
        ~attrs:
          (if Trace.enabled tr then
             [ ("layer", Trace.Int i); ("queries", Trace.Int (List.length layer)) ]
           else [])
        "eval.layer"
        (fun () -> process_layer st ~push_pairs:plan.push_pairs layer);
      if strategy.simplify_after_layer then begin
        st.finished_sources <-
          st.finished_sources @ List.map (fun (rq, _) -> rq.Relevance.source) layer;
        st.refinement_dirty <- true
      end)
    layers;
  if strategy.materialize_results then
    Trace.with_span tr "eval.materialize" (fun () -> materialize_answers st q);
  let budget_ok = within_budget st in
  let answers = with_match_span st (fun () -> Eval.eval ?par:st.match_par q st.doc) in
  (* the engine emits the final gauges, closes the root span and builds
     the one report; everything the analysis measured rides along *)
  Engine.finish eng ~root ~answers ~budget_ok ~passes:st.passes
    ~relevance_evals:st.relevance_evals ~candidates_checked:st.candidates_checked
    ~layer_count:(List.length layers) ~analysis_seconds:st.analysis_seconds
    ~parallel_match_batches:
      (match st.match_par with None -> 0 | Some par -> Eval.par_batches par)
