module Tree = Axml_xml.Tree
module Print = Axml_xml.Print
module Doc = Axml_doc
module Eval = Axml_query.Eval
module Registry = Axml_services.Registry
module Lazy_eval = Axml_core.Lazy_eval
module Engine = Axml_engine.Engine
module Exec = Axml_exec.Exec
module Obs = Axml_obs.Obs
module Metrics = Axml_obs.Metrics
module Trace = Axml_obs.Trace
module Server = Axml_net.Server
module Wire = Axml_net.Wire
module Client = Axml_net.Client
module Remote = Axml_net.Remote
module Adversary = Axml_workload.Adversary
module Project = Axml_project.Project
module Sched = Axml_sched.Sched

type case = {
  case_seed : int;
  family : Adversary.family;
  scale : int;
  lazy_strategy : bool;
  jobs : int;
  remote : bool;
  push : bool;
  memoize : bool;
  fault_rate : float;
  fault_permanent : bool;
  max_retries : int;
  budget : int;
  project : bool;
  shards : int;
  replicate : bool;
  wire_binary : bool;
  match_jobs : int;
  share_contexts : bool;
  fguide : bool;
  lazy_base : string;
}

type failure = { oracle : string; detail : string }

(* ------------------------------------------------------------------ *)
(* Case derivation: a pure function of the seed. *)

let case_of_seed seed =
  let rng = Random.State.make [| 0xF122D; seed |] in
  let family =
    snd (List.nth Adversary.families (Random.State.int rng (List.length Adversary.families)))
  in
  let scale = 8 + Random.State.int rng 72 in
  let lazy_strategy = Random.State.float rng 1.0 < 0.65 in
  let jobs = if Random.State.bool rng then 1 else 4 in
  let remote = Random.State.float rng 1.0 < 0.25 in
  let push_draw = Random.State.bool rng in
  let push = lazy_strategy && push_draw in
  let memoize = Random.State.float rng 1.0 < 0.3 in
  let fault_rate =
    if Random.State.float rng 1.0 < 0.45 then 0.0 else Random.State.float rng 0.6
  in
  let fault_permanent = Random.State.float rng 1.0 < 0.12 in
  let max_retries = Random.State.int rng 4 in
  let budget = 16 + Random.State.int rng 64 in
  (* drawn last so every earlier dimension derives identically per seed
     to the pre-projection case stream *)
  let project = Random.State.float rng 1.0 < 0.35 in
  (* and the scheduler dimensions after that, for the same reason: a
     two-way static service split, or a twin local replica — memoization
     is forced off under replication, split caches would legitimately
     diverge from the unsharded arm *)
  let shards = if Random.State.float rng 1.0 < 0.3 then 2 else 1 in
  let replicate = shards = 1 && Random.State.float rng 1.0 < 0.25 in
  let memoize = memoize && not replicate in
  (* the wire dimension last, for the same reason again: remote cases
     split between the binary codec and pinned JSON *)
  let wire_binary = Random.State.bool rng in
  (* the intra-document match fan-out, drawn last like the dimensions
     above so every earlier draw is stable per seed; forced sequential
     for naive, which has no detect passes to fan out *)
  let mj_draw = Random.State.bool rng in
  let match_jobs = if lazy_strategy && mj_draw then 4 else 1 in
  (* whether detection sweeps share one match memo across splices,
     drawn after the fan-out for the same reason; naive has no sweeps *)
  let share_draw = Random.State.bool rng in
  let share_contexts = lazy_strategy && share_draw in
  (* whether detection takes its candidates from the F-guide and filters
     them by anchored matching (§6.2), drawn after the shared contexts
     for the same reason; naive never detects *)
  let fguide_draw = Random.State.bool rng in
  let fguide = lazy_strategy && fguide_draw in
  (* the named configuration the lazy arms start from, drawn after the
     F-guide for the same reason; naive cases keep nfqa, unread *)
  let base_draw = Random.State.int rng (List.length Lazy_eval.named) in
  let lazy_base = if lazy_strategy then fst (List.nth Lazy_eval.named base_draw) else "nfqa" in
  {
    case_seed = seed;
    family;
    scale;
    lazy_strategy;
    jobs;
    remote;
    push;
    memoize;
    fault_rate;
    fault_permanent;
    max_retries;
    budget;
    project;
    shards;
    replicate;
    wire_binary;
    match_jobs;
    share_contexts;
    fguide;
    lazy_base;
  }

let case_to_string c =
  Printf.sprintf
    "seed=%d family=%s scale=%d strategy=%s jobs=%d remote=%b push=%b memo=%b fault_rate=%.2f \
     permanent=%b retries=%d budget=%d project=%b shards=%d replicate=%b wire=%s \
     match_jobs=%d share_contexts=%b fguide=%b"
    c.case_seed (Adversary.family_name c.family) c.scale
    (if c.lazy_strategy then c.lazy_base else "naive")
    c.jobs c.remote c.push c.memoize c.fault_rate c.fault_permanent c.max_retries c.budget
    c.project c.shards c.replicate
    (if c.wire_binary then "binary" else "json")
    c.match_jobs c.share_contexts c.fguide

let replay_hint c =
  Printf.sprintf "axml fuzz --seed %d --iters 1 --family %s" c.case_seed
    (Adversary.family_name c.family)

let adversary_config (c : case) : Adversary.config =
  {
    Adversary.family = c.family;
    seed = c.case_seed;
    scale = c.scale;
    memoize = c.memoize;
    fault_rate = c.fault_rate;
    fault_permanent = c.fault_permanent;
    fault_seed = c.case_seed lxor 0x9e37;
    max_retries = c.max_retries;
  }

(* ------------------------------------------------------------------ *)
(* Answer comparison *)

let signature (b : Eval.binding) =
  (b.Eval.vars, List.map (fun (_, n) -> Print.to_string (Doc.node_to_xml n)) b.Eval.results)

let tuples answers = List.sort_uniq compare (List.map signature answers)
let subset xs ys = List.for_all (fun x -> List.mem x ys) xs

let answer_bytes (r : Engine.report) =
  Print.forest_to_string (Eval.bindings_to_xml r.Engine.answers)

(* ------------------------------------------------------------------ *)
(* Evaluation arms *)

exception Hang

(* Evaluation runs on a worker thread; the calling thread polls for the
   result under a wall-clock deadline. A hung arm leaks its thread —
   acceptable, the run is about to report a failure and exit. *)
let with_watchdog ~seconds f =
  let result = ref None in
  let error = ref None in
  let _t : Thread.t =
    Thread.create (fun () -> try result := Some (f ()) with e -> error := Some e) ()
  in
  let deadline = Unix.gettimeofday () +. seconds in
  let rec wait () =
    match (!result, !error) with
    | Some r, _ -> r
    | _, Some e -> raise e
    | None, None ->
      if Unix.gettimeofday () > deadline then raise Hang
      else begin
        Thread.delay 0.002;
        wait ()
      end
  in
  wait ()

let with_pool jobs f =
  if jobs <= 1 then f None
  else begin
    let pool = Exec.create ~jobs () in
    Fun.protect ~finally:(fun () -> Exec.shutdown pool) (fun () -> f (Some pool))
  end

(* Loopback-remote: the instance's registry is served by a TCP peer on
   an ephemeral port and re-registered locally through the client, so
   the evaluator exercises the full wire path (faults stay server-side;
   the client sees degradations). *)
let remote_retry =
  {
    Registry.max_retries = 2;
    base_backoff = 0.005;
    backoff_factor = 2.0;
    max_backoff = 0.02;
    attempt_timeout = 10.0;
  }

let with_remote ?caps ~wire ~registry:served f =
  let server = Server.create ?caps ~registry:served () in
  Server.start server;
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () ->
      let client = Client.create ~wire ~host:"127.0.0.1" ~port:(Server.port server) () in
      Fun.protect
        ~finally:(fun () -> Client.close client)
        (fun () ->
          let registry = Registry.create () in
          let _names = Remote.register ~retry:remote_retry ~memoize:false ~registry client in
          f registry))

(* One evaluation arm: a fresh instance every time (evaluation mutates
   the document in place). *)
let run_arm ~watchdog (c : case) ~jobs ?(match_jobs = 1) ?(share_contexts = c.share_contexts)
    ~push ?(project = false) ?obs ?caps () : Engine.report =
  with_watchdog ~seconds:watchdog (fun () ->
      let acfg = adversary_config c in
      let inst = Adversary.generate acfg in
      let projector =
        if project then
          Some (Project.compile ~schema:inst.Adversary.schema inst.Adversary.query)
        else None
      in
      (* The scheduler dimension is local-only (a remote case already
         exercises the wire path): a two-way static split of the service
         names over the one registry, or a twin replica regenerated from
         the same config — identical documents, services and fault fates,
         so routing must be answer-invisible. *)
      let dispatch_for registry =
        if c.replicate then
          let twin = Adversary.generate acfg in
          Some
            (Sched.dispatch
               (Sched.create
                  [
                    Sched.spec ~id:"r1" registry;
                    Sched.spec ~id:"r2" twin.Adversary.registry;
                  ]))
        else if c.shards = 2 then
          let names = Registry.names registry in
          let evens = List.filteri (fun i _ -> i mod 2 = 0) names in
          let odds = List.filteri (fun i _ -> i mod 2 = 1) names in
          Some
            (Sched.dispatch
               (Sched.create
                  [
                    Sched.spec ~id:"even" ~services:evens registry;
                    Sched.spec ~id:"odd" ~services:odds registry;
                  ]))
        else None
      in
      let eval registry =
        let dispatch = if c.remote then None else dispatch_for registry in
        with_pool jobs (fun pool ->
            if c.lazy_strategy then begin
              let base = List.assoc c.lazy_base Lazy_eval.named in
              let strategy = { base with Lazy_eval.max_calls = c.budget; share_contexts } in
              let strategy = Lazy_eval.with_match_jobs match_jobs strategy in
              let strategy = if c.fguide then Lazy_eval.with_fguide strategy else strategy in
              let strategy = if push then Lazy_eval.with_push strategy else strategy in
              (* the typed strategies need the schema, or they run untyped *)
              Lazy_eval.run ~schema:inst.Adversary.schema ~strategy ?obs ?pool ?projector
                ?dispatch ~registry inst.Adversary.query inst.Adversary.doc
            end
            else
              Engine.naive_run ~max_calls:c.budget ?pool ?obs ?projector ?dispatch registry
                inst.Adversary.query inst.Adversary.doc)
      in
      if c.remote then begin
        let served = Adversary.generate acfg in
        let wire = if c.wire_binary then `Auto else `Json in
        with_remote ?caps ~wire ~registry:served.Adversary.registry eval
      end
      else eval inst.Adversary.registry)

(* The model: a fault-free naive run with a budget generous enough to
   dominate anything a budgeted arm can produce. For the unbounded
   family (3 chains at most, expanded breadth-first) a 4x+256 budget
   guarantees every chain reaches at least the index any budget-[B] arm
   could have reached. *)
let ref_budget (c : case) =
  match c.family with Adversary.Unbounded_recursion -> (4 * c.budget) + 256 | _ -> 100_000

let reference_arm ~watchdog (c : case) =
  with_watchdog ~seconds:watchdog (fun () ->
      let acfg =
        { (adversary_config c) with Adversary.fault_rate = 0.0; fault_permanent = false }
      in
      let inst = Adversary.generate acfg in
      Engine.naive_run ~max_calls:(ref_budget c) inst.Adversary.registry inst.Adversary.query
        inst.Adversary.doc)

(* ------------------------------------------------------------------ *)
(* The oracle battery *)

exception Violation of failure

let violate oracle fmt =
  Printf.ksprintf (fun detail -> raise (Violation { oracle; detail })) fmt

let reconcile (obs : Obs.t) (r : Engine.report) =
  (match Engine.reconcile r obs.Obs.metrics with
  | [] -> ()
  | { Engine.field; report; metrics } :: _ ->
    violate "reconcile" "%s: report %g, metrics %g" field report metrics);
  (match Trace.well_formed obs.Obs.trace with
  | Ok () -> ()
  | Error e -> violate "reconcile" "trace not well-formed: %s" e);
  match Trace.tree obs.Obs.trace with
  | Error e -> violate "reconcile" "trace tree: %s" e
  | Ok forest ->
    let rec flatten (n : Trace.node) = n :: List.concat_map flatten n.Trace.children in
    let spans = List.concat_map flatten forest in
    let invokes =
      List.length (List.filter (fun (n : Trace.node) -> n.Trace.node_name = "service.invoke") spans)
    in
    if invokes <> r.Engine.invoked + r.Engine.failed_calls then
      violate "reconcile" "service.invoke spans %d <> invoked %d + failed %d" invokes
        r.Engine.invoked r.Engine.failed_calls

(* Two runs that must agree exactly: the serialized answers, then every
   report field [Engine.differing] compares, minus [ignore]. A remote
   call's cost is measured on the wall clock, so remote arms also drop
   [simulated_seconds]. *)
let compare_reports ~oracle ~between ~local ?(ignore = []) (a : Engine.report)
    (b : Engine.report) =
  if answer_bytes a <> answer_bytes b then
    violate oracle "serialized answers differ between %s" between;
  let ignore = if local then ignore else "simulated_seconds" :: ignore in
  match List.filter (fun f -> not (List.mem f ignore)) (Engine.differing a b) with
  | [] -> ()
  | field :: _ -> violate oracle "%s differs between %s" field between

let check ?(watchdog = 30.0) (c : case) : failure option =
  try
    let reference = tuples (reference_arm ~watchdog c).Engine.answers in
    (* the primary arm, fully instrumented *)
    let obs = Obs.create () in
    let r =
      run_arm ~watchdog c ~jobs:c.jobs ~match_jobs:c.match_jobs ~push:c.push
        ~project:c.project ~obs ()
    in
    let answers = tuples r.Engine.answers in
    if r.Engine.invoked > c.budget then
      violate "budget" "invoked %d > budget %d" r.Engine.invoked c.budget;
    if not (subset answers reference) then
      violate "subset" "%d answer tuples not all within the %d-tuple fault-free reference"
        (List.length answers) (List.length reference);
    if r.Engine.complete && r.Engine.failed_calls > 0 then
      violate "complete-flag" "complete with %d failed calls" r.Engine.failed_calls;
    if r.Engine.complete && answers <> reference then
      violate "complete-flag" "complete but %d answer tuples <> %d reference tuples"
        (List.length answers) (List.length reference);
    if (not r.Engine.complete) && r.Engine.failed_calls = 0 && r.Engine.invoked < c.budget
    then
      violate "complete-flag" "incomplete with no failures and only %d/%d budget used"
        r.Engine.invoked c.budget;
    if
      c.family = Adversary.Unbounded_recursion
      && c.fault_rate = 0.0
      && (not c.fault_permanent)
      && r.Engine.complete
    then violate "budget" "unbounded recursion reported complete";
    reconcile obs r;
    (* jobs determinism + obs transparency *)
    let r1 =
      run_arm ~watchdog c ~jobs:1 ~match_jobs:c.match_jobs ~push:c.push ~project:c.project ()
    in
    let r4 =
      run_arm ~watchdog c ~jobs:4 ~match_jobs:c.match_jobs ~push:c.push ~project:c.project ()
    in
    let rj = if c.jobs = 1 then r1 else r4 in
    if answer_bytes r <> answer_bytes rj then
      violate "obs-transparency" "recording a trace changed the serialized answers";
    (* a request id counts per pooled connection, so remote wire bytes
       depend on which connection carried each call *)
    compare_reports ~oracle:"jobs-determinism" ~between:"jobs 1 and 4" ~local:(not c.remote)
      ~ignore:(if c.remote then [ "bytes_transferred" ] else [])
      r1 r4;
    (* parallel ≡ sequential matching: fanning the match/detect passes
       out over domains must be invisible in answers, counters and the
       simulated clock *)
    if c.lazy_strategy then begin
      let rm1 = run_arm ~watchdog c ~jobs:1 ~match_jobs:1 ~push:c.push ~project:c.project () in
      let rm4 = run_arm ~watchdog c ~jobs:1 ~match_jobs:4 ~push:c.push ~project:c.project () in
      compare_reports ~oracle:"match-jobs-determinism" ~between:"match-jobs 1 and 4"
        ~local:(not c.remote) ~ignore:[ "parallel_match_batches" ] rm1 rm4
    end;
    (* shared ≡ isolated contexts: a match memo kept across splices
       (dropped along each splice path only) must answer and sweep
       exactly like a fresh context per detection; sequential matching
       and no F-guide (whose anchored checks never read the shared
       context), so the shared memo serves every detection *)
    if c.lazy_strategy then begin
      let arm share_contexts =
        run_arm ~watchdog { c with fguide = false } ~jobs:1 ~share_contexts ~push:c.push
          ~project:c.project ()
      in
      compare_reports ~oracle:"shared-context-determinism"
        ~between:"shared and isolated contexts" ~local:(not c.remote) (arm true) (arm false)
    end;
    (* projected ≡ full: type-based projection must never change what a
       run can answer. Fault fates are keyed by (service, params, retry),
       so the projected run's calls — a subset of the full run's — draw
       identical fates. *)
    if c.project then begin
      let rf = run_arm ~watchdog c ~jobs:1 ~push:c.push ~project:false () in
      let rp = r1 in
      if not (subset (tuples rp.Engine.answers) reference) then
        violate "projection" "projected answers escape the fault-free reference";
      if rp.Engine.full_nodes = 0 then
        violate "projection" "projected arm reports no projection activity";
      if rp.Engine.projected_nodes > rp.Engine.full_nodes then
        violate "projection" "kept %d of %d nodes" rp.Engine.projected_nodes
          rp.Engine.full_nodes;
      if rf.Engine.complete then begin
        if not rp.Engine.complete then
          violate "projection" "full run complete but projected run is not";
        if tuples rp.Engine.answers <> tuples rf.Engine.answers then
          violate "projection" "both complete yet answers differ (%d vs %d tuples)"
            (List.length (tuples rp.Engine.answers))
            (List.length (tuples rf.Engine.answers));
        if rp.Engine.invoked > rf.Engine.invoked then
          violate "projection" "projected run invoked more calls (%d > %d)"
            rp.Engine.invoked rf.Engine.invoked
      end;
      if rp.Engine.complete && tuples rp.Engine.answers <> reference then
        violate "projection" "projected run complete but %d tuples <> %d reference tuples"
          (List.length (tuples rp.Engine.answers))
          (List.length reference)
    end;
    (* wire equivalence (remote cases): the binary codec and pinned JSON
       must produce byte-identical serialized answers and the same
       degradation profile — the codec is invisible above the framing
       layer *)
    if c.remote then begin
      let rb =
        run_arm ~watchdog { c with wire_binary = true } ~jobs:1 ~push:c.push
          ~project:c.project ()
      in
      let rj =
        run_arm ~watchdog { c with wire_binary = false } ~jobs:1 ~push:c.push
          ~project:c.project ()
      in
      if answer_bytes rb <> answer_bytes rj then
        violate "wire-equivalence" "binary and JSON serialized answers differ";
      if rb.Engine.complete <> rj.Engine.complete then
        violate "wire-equivalence" "binary complete=%b, JSON complete=%b" rb.Engine.complete
          rj.Engine.complete;
      if rb.Engine.failed_calls <> rj.Engine.failed_calls then
        violate "wire-equivalence" "binary failed %d calls, JSON %d" rb.Engine.failed_calls
          rj.Engine.failed_calls;
      if rb.Engine.invoked <> rj.Engine.invoked then
        violate "wire-equivalence" "binary invoked %d, JSON %d" rb.Engine.invoked
          rj.Engine.invoked;
      (* per-connection state (remote cases): against a server with
         neither the pattern slot nor the label tables, everything but
         the bytes must match the jobs-1 arm, and the marker and the
         tables can only save bytes *)
      let rold =
        run_arm ~watchdog c ~jobs:1 ~match_jobs:c.match_jobs ~push:c.push ~project:c.project
          ~caps:[ Wire.cap_shard; Wire.cap_binary ] ()
      in
      compare_reports ~oracle:"connection-state"
        ~between:"servers with and without push reuse and label tables" ~local:false
        ~ignore:[ "bytes_transferred" ] r1 rold;
      if r1.Engine.bytes_transferred > rold.Engine.bytes_transferred then
        violate "connection-state" "push reuse and label tables sent more bytes (%d > %d)"
          r1.Engine.bytes_transferred rold.Engine.bytes_transferred
    end;
    (* push equivalence: the generator keeps fault fates byte-independent,
       so push-on and push-off must degrade identically *)
    if c.lazy_strategy then begin
      let ron = run_arm ~watchdog c ~jobs:1 ~push:true ~project:c.project () in
      let roff = run_arm ~watchdog c ~jobs:1 ~push:false ~project:c.project () in
      if tuples ron.Engine.answers <> tuples roff.Engine.answers then
        violate "push-equivalence" "push-on and push-off answers differ (%d vs %d tuples)"
          (List.length (tuples ron.Engine.answers))
          (List.length (tuples roff.Engine.answers));
      if ron.Engine.complete <> roff.Engine.complete then
        violate "push-equivalence" "push-on complete=%b, push-off complete=%b"
          ron.Engine.complete roff.Engine.complete;
      if ron.Engine.failed_calls <> roff.Engine.failed_calls then
        violate "push-equivalence" "push-on failed %d calls, push-off %d"
          ron.Engine.failed_calls roff.Engine.failed_calls;
      if not (subset (tuples ron.Engine.answers) reference) then
        violate "subset" "pushed answers escape the fault-free reference";
      if (not c.remote) && ron.Engine.bytes_transferred > roff.Engine.bytes_transferred then
        violate "push-equivalence" "pushing inflated local transfer (%d > %d bytes)"
          ron.Engine.bytes_transferred roff.Engine.bytes_transferred
    end;
    None
  with
  | Violation f -> Some f
  | Hang ->
    Some
      {
        oracle = "watchdog";
        detail = Printf.sprintf "an evaluation arm exceeded %.0fs wall-clock" watchdog;
      }
  | e -> Some { oracle = "crash"; detail = Printexc.to_string e }

(* ------------------------------------------------------------------ *)
(* Shrinking: greedy and deterministic, so a replayed seed re-derives
   the same minimal case. A mutation is kept iff the case still fails
   some oracle (not necessarily the same one — the simpler trigger is
   the better report). *)

let shrink_candidates (c : case) =
  List.filter
    (fun c' -> c' <> c)
    [
      (* plain nfqa, isolated contexts, sequential matching and no
         F-guide first: a failure that survives without typing, LPQs,
         the kept match memo, the domain fan-out or the anchored
         candidate filter rules those layers out of the report *)
      { c with lazy_base = "nfqa" };
      { c with share_contexts = false };
      { c with match_jobs = 1 };
      { c with fguide = false };
      (* routing off next: a failure that survives on one plain shard
         is a simpler report than any scheduler interaction *)
      { c with shards = 1; replicate = false };
      { c with remote = false };
      { c with wire_binary = false };
      { c with jobs = 1 };
      { c with push = false };
      { c with project = false };
      { c with memoize = false };
      { c with fault_permanent = false };
      { c with fault_rate = 0.0; fault_permanent = false };
      { c with max_retries = 0 };
      { c with budget = max 4 (c.budget / 2) };
      { c with scale = max 1 (c.scale / 2) };
      { c with scale = max 1 (c.scale - 1) };
    ]

let shrink ?(watchdog = 30.0) (c : case) (f : failure) : case * failure =
  let best = ref (c, f) in
  let budget = ref 32 in
  let rec go c =
    if !budget > 0 then
      match
        List.find_map
          (fun c' ->
            if !budget <= 0 then None
            else begin
              decr budget;
              match check ~watchdog c' with Some f' -> Some (c', f') | None -> None
            end)
          (shrink_candidates c)
      with
      | Some (c', f') ->
        best := (c', f');
        go c'
      | None -> ()
  in
  go c;
  !best

(* ------------------------------------------------------------------ *)

type fail_report = {
  failed_case : case;
  first_failure : failure;
  shrunk_case : case;
  shrunk_failure : failure;
  shrunk_xml : string;
}

type report = { iterations : int; failure : fail_report option }

let run ?(watchdog = 30.0) ?(log = ignore) ?family ~seed ~iters () =
  let rec go i =
    if i >= iters then { iterations = iters; failure = None }
    else begin
      let case = case_of_seed (seed + i) in
      let case = match family with None -> case | Some f -> { case with family = f } in
      log (Printf.sprintf "[%d/%d] %s" (i + 1) iters (case_to_string case));
      match check ~watchdog case with
      | None -> go (i + 1)
      | Some first_failure ->
        log
          (Printf.sprintf "FAIL %s: %s — shrinking" first_failure.oracle first_failure.detail);
        let shrunk_case, shrunk_failure = shrink ~watchdog case first_failure in
        let inst = Adversary.generate (adversary_config shrunk_case) in
        {
          iterations = i + 1;
          failure =
            Some
              {
                failed_case = case;
                first_failure;
                shrunk_case;
                shrunk_failure;
                shrunk_xml = Doc.to_string ~indent:2 inst.Adversary.doc;
              };
        }
    end
  in
  go 0
