(* The axml command-line tool: snapshot queries, lazy evaluation over the
   built-in simulated workloads, relevance inspection, NFQ layers, and
   F-guide dumps. *)

module Doc = Axml_doc
module P = Axml_query.Pattern
module Eval = Axml_query.Eval
module Parser = Axml_query.Parser
module Schema = Axml_schema.Schema
module Registry = Axml_services.Registry
module Relevance = Axml_core.Relevance
module Nfq = Axml_core.Nfq
module Lpq = Axml_core.Lpq
module Influence = Axml_core.Influence
module Typing = Axml_core.Typing
module Fguide = Axml_core.Fguide
module Lazy_eval = Axml_core.Lazy_eval
module Engine = Axml_engine.Engine
module Project = Axml_project.Project
module City = Axml_workload.City
module Goingout = Axml_workload.Goingout
module Synthetic = Axml_workload.Synthetic
module Obs = Axml_obs.Obs
module Trace = Axml_obs.Trace
module Metrics = Axml_obs.Metrics
module Json = Axml_obs.Json
module Server = Axml_net.Server
module Client = Axml_net.Client
module Remote = Axml_net.Remote
module Wire = Axml_net.Wire
module Sched = Axml_sched.Sched
module Exec = Axml_exec.Exec
module Adversary = Axml_workload.Adversary
module Fuzz = Axml_fuzz.Fuzz

open Cmdliner

let setup_logs verbose =
  Fmt_tty.setup_std_outputs ();
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (if verbose then Some Logs.Debug else Some Logs.Warning)

let verbose_flag =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Trace the evaluator's decisions.")

let fail fmt = Printf.ksprintf (fun m -> `Error (false, m)) fmt

(* A term whose [Error m] is a command-line error, reported before the
   command runs. *)
let checked t = Term.(ret (const (function Ok x -> `Ok x | Error m -> `Error (false, m)) $ t))

let load_tree path =
  try Ok (Axml_xml.Parse.tree_of_file path) with
  | Sys_error m -> Error m
  | e -> (
    match Axml_xml.Parse.error_to_string e with
    | Some m -> Error (path ^ ": " ^ m)
    | None -> raise e)

let load_doc path = Result.map Doc.of_xml (load_tree path)

let parse_query src =
  try Ok (Parser.parse src) with Parser.Error m -> Error ("query: " ^ m)

let compile_flwr src =
  try Ok (Axml_query.Xquery.compile src) with Axml_query.Xquery.Error m -> Error ("flwr: " ^ m)

let print_bindings ?(xml = false) (answers : Eval.binding list) =
  if xml then
    (* the paper's §7 wire format: one <tuple> per binding *)
    print_endline (Axml_xml.Print.forest_to_string ~indent:2 (Eval.bindings_to_xml answers))
  else if answers = [] then print_endline "(no answers)"
  else
    List.iteri
      (fun i (b : Eval.binding) ->
        Printf.printf "answer %d:\n" (i + 1);
        List.iter (fun (x, v) -> Printf.printf "  $%s = %S\n" x v) b.Eval.vars;
        List.iter
          (fun (_, n) ->
            Printf.printf "  %s\n" (Axml_xml.Print.to_string (Doc.node_to_xml n)))
          b.Eval.results)
      answers

let xml_flag =
  Arg.(value & flag & info [ "xml" ] ~doc:"Print answers as <tuple> elements (the §7 format).")

let flwr_flag =
  Arg.(
    value & flag
    & info [ "flwr" ]
        ~doc:"Read QUERY as a FLWR expression (for/where/return) instead of a tree pattern.")

(* ---------------- common arguments ---------------- *)

let query_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"QUERY" ~doc:"Tree-pattern query.")

let doc_arg =
  Arg.(
    required
    & opt (some file) None
    & info [ "d"; "doc" ] ~docv:"FILE" ~doc:"AXML document (XML with <axml:call> elements).")

let schema_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "s"; "schema" ] ~docv:"FILE" ~doc:"Schema file (functions/elements sections).")

let project_flag =
  Arg.(
    value & flag
    & info [ "project" ]
        ~doc:
          "Apply type-based document projection: drop the subtrees the query can never touch \
           before evaluation, and re-project every spliced call result. Sound on \
           schema-conforming documents (service calls whose declared result type may matter \
           are always kept); without a schema projection degrades to a weaker but still sound \
           structural prune.")

(* ---------------- fault injection knobs ---------------- *)

type faults = {
  fault_rate : float;
  fault_seed : int option;
  max_retries : int option;
  timeout : float option;
}

(* The fault/retry knobs of run, eval and serve, checked when the
   command line is parsed. *)
let faults_term =
  let fault_rate =
    Arg.(
      value
      & opt float 0.0
      & info [ "fault-rate" ] ~docv:"P"
          ~doc:
            "Make every service flaky: each invocation attempt fails transiently with \
             probability $(docv) (deterministic, seeded). Failed attempts are retried with \
             exponential backoff on the simulated clock.")
  in
  let fault_seed =
    Arg.(
      value
      & opt (some int) None
      & info [ "fault-seed" ] ~docv:"N"
          ~doc:"Seed of the fault schedule (defaults to the workload seed).")
  in
  let max_retries =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-retries" ] ~docv:"N"
          ~doc:"Retry budget per invocation (default 3). 0 disables retrying.")
  in
  let timeout =
    Arg.(
      value
      & opt (some float) None
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:"Per-attempt timeout budget on the simulated clock (default: none).")
  in
  let check fault_rate fault_seed max_retries timeout =
    if Option.value max_retries ~default:0 < 0 then Error "max-retries must be >= 0"
    else if Option.value timeout ~default:1.0 <= 0.0 then Error "timeout must be positive"
    else
      match Axml_services.Faults.validate [ Axml_services.Faults.Flaky fault_rate ] with
      | Error m -> Error ("fault-rate: " ^ m)
      | Ok () -> Ok { fault_rate; fault_seed; max_retries; timeout }
  in
  checked Term.(const check $ fault_rate $ fault_seed $ max_retries $ timeout)

(* Installs the CLI fault/retry knobs on every registered service.
   Knobs left at their default do not touch the registry, so policies a
   service spec declares per service (retries=… timeout=…) survive. *)
let apply_faults registry f =
  if f.max_retries <> None || f.timeout <> None then begin
    let d = Registry.default_policy in
    Registry.set_retry_policy registry
      {
        d with
        Registry.max_retries = Option.value f.max_retries ~default:d.Registry.max_retries;
        attempt_timeout = Option.value f.timeout ~default:d.Registry.attempt_timeout;
      }
  end;
  if f.fault_rate > 0.0 then
    Registry.inject_faults registry ?seed:f.fault_seed [ Axml_services.Faults.Flaky f.fault_rate ]
  else Option.iter (Registry.set_fault_seed registry) f.fault_seed

(* ---------------- worker pool ---------------- *)

let jobs_arg =
  Arg.(
    value
    & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Invoke each parallel batch of service calls on $(docv) worker threads, so the \
           \xc2\xa74.4 batches overlap on the wall clock too (answers and counts are \
           unchanged). 1 (the default) stays sequential; 0 picks a machine-dependent \
           default.")

let match_jobs_arg =
  Arg.(
    value
    & opt int 1
    & info [ "match-jobs" ] ~docv:"N"
        ~doc:
          "Fan the match/detect passes of the lazy strategies out over top-level document \
           subtrees in $(docv) chunks, run on a pool of one domain per core (real CPU \
           parallelism, unlike $(b,--jobs) whose worker threads only overlap service I/O \
           under the runtime lock). Answers and \
           every report counter are byte-identical at every level. 1 (the default) stays \
           sequential; 0 picks a machine-dependent default. Ignored by $(b,naive).")

(* A count option must not be negative (0 means "pick a
   machine-dependent default" for --jobs and --match-jobs). *)
let check_count name n = if n < 0 then Error (Printf.sprintf "%s must be >= 0" name) else Ok n

(* --jobs, checked and with 0 resolved to the machine's default. *)
let jobs_term =
  let resolve j = if j = 0 then Exec.default_jobs () else j in
  checked Term.(const (fun j -> Result.map resolve (check_count "jobs" j)) $ jobs_arg)

(* An optional pool of [jobs] workers; [f] runs with it and the pool is
   always shut down, even on error. *)
let with_pool jobs f =
  if jobs <= 1 then f None
  else begin
    let pool = Exec.create ~jobs () in
    Fun.protect ~finally:(fun () -> Exec.shutdown pool) (fun () -> f (Some pool))
  end

(* ---------------- remote peers ---------------- *)

let endpoint_conv =
  let parse s =
    match String.rindex_opt s ':' with
    | Some i -> (
      let host = String.sub s 0 i in
      let port = String.sub s (i + 1) (String.length s - i - 1) in
      match int_of_string_opt port with
      | Some p when p > 0 && p < 65536 && host <> "" -> Ok (host, p)
      | _ -> Error (`Msg (Printf.sprintf "%S: expected HOST:PORT" s)))
    | None -> Error (`Msg (Printf.sprintf "%S: expected HOST:PORT" s))
  in
  Arg.conv (parse, fun ppf (h, p) -> Format.fprintf ppf "%s:%d" h p)

let connect_arg =
  Arg.(
    value
    & opt_all endpoint_conv []
    & info [ "connect" ] ~docv:"HOST:PORT"
        ~doc:
          "Register the services an $(b,axml serve) peer advertises at $(docv) as remote \
           services (repeatable). Remote invocations go over TCP with real retries, backoff \
           and per-attempt socket timeouts; push-capable remote services evaluate pushed \
           subqueries provider-side.")

let wire_conv = Arg.enum [ ("binary", `Auto); ("json", `Json) ]

let wire_arg =
  Arg.(
    value
    & opt wire_conv `Auto
    & info [ "wire" ] ~docv:"CODEC"
        ~doc:
          "Frame codec for peer traffic: $(b,binary) (the default) negotiates the compact \
           binary codec, per-connection reuse of pushed patterns and per-connection label \
           tables in the capability handshake, falling back to JSON, full patterns and \
           labels spelled in full against peers that predate them; $(b,json) pins every \
           frame to JSON and always sends patterns and labels in full.")

(* Dial each peer and register what it advertises. Local registrations
   (from --services) win on name clashes because register_remote refuses
   duplicates — so only register names not already present. *)
let connect_peers ?(jobs = 1) ?(wire = `Auto) registry endpoints =
  try
    Ok
      (List.concat_map
         (fun (host, port) ->
           (* Size each peer's connection pool to the worker count, so
              concurrent batch invocations don't fight over sockets. *)
           let client = Client.create ~pool_size:(max 4 jobs) ~wire ~host ~port () in
           let advertised =
             List.map (fun (s : Axml_net.Wire.service_info) -> s.Axml_net.Wire.name)
               (Client.services client ())
           in
           let local = Registry.names registry in
           let fresh = List.filter (fun n -> not (List.mem n local)) advertised in
           Remote.register ~names:fresh ~registry client)
         endpoints)
  with Registry.Transport_error { reason; _ } -> Error ("connect: " ^ reason)

(* ---------------- sharding / replication ---------------- *)

let shard_conv =
  let parse s =
    let bad () = Error (`Msg (Printf.sprintf "%S: expected NAME[@BUDGET]=SVC[,SVC...]" s)) in
    match String.index_opt s '=' with
    | None -> bad ()
    | Some i -> (
      let left = String.sub s 0 i in
      let right = String.sub s (i + 1) (String.length s - i - 1) in
      let services = List.filter (fun x -> x <> "") (String.split_on_char ',' right) in
      let name, budget =
        match String.index_opt left '@' with
        | None -> (left, Ok None)
        | Some j -> (
          let b = String.sub left (j + 1) (String.length left - j - 1) in
          ( String.sub left 0 j,
            match int_of_string_opt b with
            | Some b when b >= 0 -> Ok (Some b)
            | _ -> Error (`Msg (Printf.sprintf "%S: bad budget %S" s b)) ))
      in
      match budget with
      | Error _ as e -> e
      | Ok budget -> if name = "" || services = [] then bad () else Ok (name, budget, services))
  in
  let print ppf (n, b, svcs) =
    Format.fprintf ppf "%s%s=%s" n
      (match b with None -> "" | Some b -> "@" ^ string_of_int b)
      (String.concat "," svcs)
  in
  Arg.conv (parse, print)

let shard_arg =
  Arg.(
    value
    & opt_all shard_conv []
    & info [ "shard" ] ~docv:"NAME[@BUDGET]=SVC[,SVC...]"
        ~doc:
          "Statically assign the listed services to a named shard with its own registry \
           (repeatable). An optional $(b,@BUDGET) caps the calls the shard may serve; when \
           every shard is bounded the sum also caps the whole evaluation. Services no shard \
           claims stay on an implicit $(b,rest) shard. Calls are routed per $(b,--balance).")

let replicas_arg =
  Arg.(
    value & opt int 1
    & info [ "replicas" ] ~docv:"N"
        ~doc:
          "Serve every service from $(docv) identical replicas and balance each batch across \
           them per $(b,--balance). Local workloads are regenerated per replica (same seed, so \
           identical fault fates); with $(b,--connect), $(docv) must equal the number of peers \
           and each peer becomes one replica.")

let balance_arg =
  Arg.(
    value
    & opt (enum [ ("adaptive", Sched.Adaptive); ("round-robin", Sched.Round_robin) ]) Sched.Adaptive
    & info [ "balance" ] ~docv:"MODE"
        ~doc:
          "Replica placement policy: $(b,adaptive) (least-loaded-first on an EWMA/quantile \
           cost estimate; the default) or $(b,round-robin).")

(* Build the scheduler behind --shard/--replicas, or [None] when neither
   was asked for. [regen ()] produces a fresh registry identical to
   [registry] (same generator config or spec file, same fault knobs), so
   every shard/replica draws the same seeded fault fates. *)
let build_sched ~shards ~replicas ~balance ~registry ~regen =
  if shards = [] && replicas <= 1 then Ok None
  else if replicas > 1 then
    let specs =
      List.init replicas (fun i ->
          Sched.spec
            ~id:(Printf.sprintf "r%d" (i + 1))
            (if i = 0 then registry else regen ()))
    in
    Ok (Some (Sched.create ~mode:balance specs))
  else begin
    let local = Registry.names registry in
    let claimed = List.concat_map (fun (_, _, svcs) -> svcs) shards in
    let missing = List.filter (fun s -> not (List.mem s local)) claimed in
    let rec first_dup seen = function
      | [] -> None
      | s :: rest -> if List.mem s seen then Some s else first_dup (s :: seen) rest
    in
    if missing <> [] then
      Error (Printf.sprintf "--shard: unknown service(s) %s" (String.concat ", " missing))
    else
      match first_dup [] claimed with
      | Some s -> Error (Printf.sprintf "--shard: service %s claimed twice" s)
      | None -> (
        let specs =
          List.map
            (fun (name, budget, services) -> Sched.spec ~id:name ?budget ~services (regen ()))
            shards
        in
        let rest = List.filter (fun n -> not (List.mem n claimed)) local in
        let specs =
          specs @ if rest = [] then [] else [ Sched.spec ~id:"rest" ~services:rest registry ]
        in
        match Sched.create ~mode:balance specs with
        | sched -> Ok (Some sched)
        | exception Invalid_argument m -> Error m)
  end

(* --replicas over --connect: each peer is one full replica shard (its
   own client, connection pool and registry), id HOST:PORT. A defeat on
   one peer re-routes to the next through the scheduler. When the run
   also has local services, they go on a "local" shard listed first. *)
let connect_replicas ~jobs ~wire ~balance ~local_registry ~local_names connect =
  try
    let specs =
      List.map
        (fun (host, port) ->
          let id = Printf.sprintf "%s:%d" host port in
          let client = Client.create ~pool_size:(max 4 jobs) ~wire ~host ~port () in
          let registry = Registry.create () in
          (* register dials, which settles the handshake caps *)
          let names = Remote.register ~registry client in
          if not (List.mem Wire.cap_shard (Client.capabilities client)) then
            Printf.eprintf
              "warning: peer %s predates the shard capability; balancing across it anyway\n%!" id;
          Printf.eprintf "replica %s: %s\n%!" id (String.concat ", " names);
          Sched.spec ~id registry)
        connect
    in
    let specs =
      if local_names = [] then specs
      else Sched.spec ~id:"local" ~services:local_names local_registry :: specs
    in
    Ok (Sched.create ~mode:balance specs)
  with
  | Registry.Transport_error { reason; _ } -> Error ("connect: " ^ reason)
  | Invalid_argument m -> Error m

(* ---------------- observability knobs ---------------- *)

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record the evaluation as a span trace and write it to $(docv): Chrome trace_event \
           JSON (open in chrome://tracing or ui.perfetto.dev), or JSONL when $(docv) ends in \
           $(b,.jsonl). Inspect either format with $(b,axml trace).")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Write a JSON metrics snapshot (counters, gauges, per-service latency histograms) to \
           $(docv). The eval.* totals reconcile exactly with the printed report.")

let report_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "report-json" ] ~docv:"FILE"
        ~doc:
          "Also emit the full evaluation report (answers and every counter) as JSON to $(docv); \
           $(b,-) writes it to stdout.")

let make_obs ~trace ~metrics =
  if trace = None && metrics = None then Obs.null
  else
    {
      Obs.trace = (if trace = None then Trace.null else Trace.create ());
      metrics = (if metrics = None then Metrics.null else Metrics.create ());
    }

let write_obs ~trace ~metrics obs =
  Option.iter
    (fun path ->
      if Filename.check_suffix path ".jsonl" then Trace.write_jsonl path obs.Obs.trace
      else Trace.write_chrome path obs.Obs.trace;
      Printf.eprintf "wrote trace %s\n%!" path)
    trace;
  Option.iter
    (fun path ->
      Metrics.write path obs.Obs.metrics;
      Printf.eprintf "wrote metrics %s\n%!" path)
    metrics

let emit_report_json dest json =
  match dest with
  | None -> ()
  | Some "-" -> print_endline (Json.to_string ~indent:2 json)
  | Some path ->
    Json.write_file ~indent:2 path json;
    Printf.eprintf "wrote report %s\n%!" path

let schema_required_arg =
  Arg.(required & opt (some file) None & info [ "s"; "schema" ] ~docv:"FILE" ~doc:"Schema file.")

let load_schema = function
  | None -> Ok None
  | Some path -> (
    try Ok (Some (Schema.of_file path)) with
    | Schema.Parse_error { line; message } ->
      Error (Printf.sprintf "%s:%d: %s" path line message)
    | Sys_error m -> Error m)

(* ---------------- snapshot ---------------- *)

let snapshot doc_path query_src xml flwr =
  match load_doc doc_path with
  | Error m -> fail "%s" m
  | Ok doc ->
    if flwr then
      match compile_flwr query_src with
      | Error m -> fail "%s" m
      | Ok q ->
        print_endline
          (Axml_xml.Print.forest_to_string ~indent:2 (Axml_query.Xquery.run q doc));
        `Ok ()
    else (
      match parse_query query_src with
      | Error m -> fail "%s" m
      | Ok query ->
        print_bindings ~xml (Eval.eval query doc);
        `Ok ())

let snapshot_cmd =
  let doc = "Evaluate the snapshot result (Def. 1): no service call is invoked." in
  Cmd.v
    (Cmd.info "snapshot" ~doc)
    Term.(ret (const snapshot $ doc_arg $ query_arg $ xml_flag $ flwr_flag))

(* ---------------- relevant ---------------- *)

let relevant doc_path schema_path query_src use_lpq =
  match load_doc doc_path, parse_query query_src, load_schema schema_path with
  | Error m, _, _ | _, Error m, _ | _, _, Error m -> fail "%s" m
  | Ok doc, Ok query, Ok schema ->
    let rqs = if use_lpq then Lpq.of_query query else Nfq.of_query query in
    let rqs =
      match schema with
      | None -> rqs
      | Some s ->
        let ty = Typing.create s query in
        List.filter_map (Typing.refine ty ~known_functions:(Schema.function_names s)) rqs
    in
    let calls =
      List.concat_map (fun rq -> Relevance.relevant_calls rq doc) rqs
      |> List.sort_uniq (fun (a : Doc.node) b -> compare a.Doc.id b.Doc.id)
    in
    if calls = [] then print_endline "(no relevant calls)"
    else
      List.iter
        (fun (c : Doc.node) ->
          match c.Doc.label with
          | Doc.Call { fname; call_id } ->
            Printf.printf "[%d] %s at /%s\n" call_id fname
              (String.concat "/" (Doc.label_path c))
          | _ -> ())
        calls;
    `Ok ()

let lpq_flag =
  Arg.(value & flag & info [ "lpq" ] ~doc:"Use linear path queries instead of NFQs (relaxed).")

let relevant_cmd =
  let doc =
    "List the service calls of the document that are relevant for the query (§3), optionally \
     refined by a schema (§5)."
  in
  Cmd.v
    (Cmd.info "relevant" ~doc)
    Term.(ret (const relevant $ doc_arg $ schema_arg $ query_arg $ lpq_flag))

(* ---------------- layers ---------------- *)

let layers query_src =
  match parse_query query_src with
  | Error m -> fail "%s" m
  | Ok query ->
    let rqs = Nfq.of_query query in
    List.iteri
      (fun i layer ->
        Printf.printf "layer %d:\n" i;
        List.iter
          (fun (rq, independent) ->
            Printf.printf "  %s%s\n"
              (Format.asprintf "%a" P.pp rq.Relevance.query)
              (if independent then "   (independent *)" else ""))
          layer)
      (Influence.plan ~layering:true rqs);
    `Ok ()

let layers_cmd =
  let doc = "Show the query's NFQs grouped into may-influence layers (§4.3), in processing order." in
  Cmd.v (Cmd.info "layers" ~doc) Term.(ret (const layers $ query_arg))

(* ---------------- guide ---------------- *)

let guide doc_path =
  match load_doc doc_path with
  | Error m -> fail "%s" m
  | Ok doc ->
    let g = Fguide.build doc in
    Printf.printf "%d call(s) under %d distinct path(s):\n" (Fguide.call_count g)
      (List.length (Fguide.paths g));
    List.iter (fun path -> Printf.printf "  /%s\n" (String.concat "/" path)) (Fguide.paths g);
    `Ok ()

let guide_cmd =
  let doc = "Build and print the document's function-call guide (§6.2)." in
  Cmd.v (Cmd.info "guide" ~doc) Term.(ret (const guide $ doc_arg))

(* ---------------- built-in workloads ---------------- *)

type workload = W_city | W_goingout | W_synthetic

let workload_conv =
  Arg.enum [ ("city", W_city); ("goingout", W_goingout); ("synthetic", W_synthetic) ]

(* One generator per built-in workload: the document, its registry,
   schema and query, and the schema source [generate] writes beside
   the document (none for synthetic). *)
let generate_workload workload ~scale ~seed =
  match workload with
  | W_city ->
    let i = City.generate { City.default_config with City.hotels = scale; seed } in
    (i.City.doc, i.City.registry, i.City.schema, i.City.query, Some City.schema_src)
  | W_goingout ->
    let i = Goingout.generate { Goingout.default_config with Goingout.theaters = scale; seed } in
    ( i.Goingout.doc,
      i.Goingout.registry,
      i.Goingout.schema,
      i.Goingout.query,
      Some Goingout.schema_src )
  | W_synthetic ->
    let i =
      Synthetic.generate { Synthetic.default_config with Synthetic.nodes = scale * 100; seed }
    in
    (i.Synthetic.doc, i.Synthetic.registry, i.Synthetic.schema, i.Synthetic.query, None)

(* -w/--scale/--seed of run and generate. *)
let workload_term =
  let workload =
    Arg.(value & opt workload_conv W_city & info [ "w"; "workload" ] ~docv:"NAME" ~doc:"Workload.")
  in
  let scale =
    Arg.(
      value & opt int 20 & info [ "scale" ] ~docv:"N" ~doc:"Workload scale (hotels/theaters/…).")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Generator seed.") in
  let check workload scale seed =
    Result.map (fun scale -> (workload, scale, seed)) (check_count "scale" scale)
  in
  checked Term.(const check $ workload $ scale $ seed)

(* ---------------- the evaluation pipeline of run and eval ---------------- *)

(* --strategy names Lazy_eval's configurations plus naive ([None], the
   engine's degenerate strategy); --push, --fguide and --match-jobs
   refine the lazy ones. Typing needs a schema: the default is
   nfqa-typed when [schema_loaded] and nfqa otherwise, and a typed
   --strategy without one is a command-line error. *)
let strategy_term ~schema_loaded =
  let choices =
    List.map (fun (n, s) -> (n, (n, Some s))) Lazy_eval.named @ [ ("naive", ("naive", None)) ]
  in
  let strategy =
    Arg.(
      value
      & opt (some (enum choices)) None
      & info [ "strategy" ] ~docv:"NAME"
          ~doc:
            ("Evaluation strategy: " ^ Arg.doc_alts_enum ~quoted:false choices
           ^ ". Default: nfqa-typed when a schema is loaded, nfqa otherwise; the typed \
              strategies need one."))
  in
  let push = Arg.(value & flag & info [ "push" ] ~doc:"Push subqueries to providers (§7).") in
  let fguide = Arg.(value & flag & info [ "fguide" ] ~doc:"Use a function-call guide (§6.2).") in
  let resolve schema_loaded = function
    | None -> Ok (Some (if schema_loaded then Lazy_eval.nfqa_typed else Lazy_eval.nfqa))
    | Some (name, Some { Lazy_eval.typing = Lazy_eval.Lenient_types | Exact_types; _ })
      when not schema_loaded ->
      Error (Printf.sprintf "--strategy %s needs a schema (-s)" name)
    | Some (_, s) -> Ok s
  in
  let refine schema_loaded strategy push fguide match_jobs =
    Result.bind (resolve schema_loaded strategy) (fun strategy ->
        Result.map
          (fun match_jobs ->
            Option.map
              (fun s ->
                let s = if push then Lazy_eval.with_push s else s in
                let s = if fguide then Lazy_eval.with_fguide s else s in
                Lazy_eval.with_match_jobs match_jobs s)
              strategy)
          (check_count "match-jobs" match_jobs))
  in
  checked Term.(const refine $ schema_loaded $ strategy $ push $ fguide $ match_jobs_arg)

(* Every option run and eval share. *)
type eval_opts = {
  verbose : bool;
  strategy : Lazy_eval.strategy option;
  project : bool;
  xml : bool;
  jobs : int;
  shards : (string * int option * string list) list;
  replicas : int;
  balance : Sched.mode;
  faults : faults;
  trace_out : string option;
  metrics_out : string option;
  report_json : string option;
}

(* [schema_loaded]: whether the command will evaluate with a schema. *)
let eval_opts_term ~schema_loaded =
  let opts verbose strategy project xml jobs shards replicas balance faults trace_out metrics_out
      report_json =
    if replicas < 1 then Error "--replicas must be >= 1"
    else if shards <> [] && replicas > 1 then Error "--shard and --replicas cannot be combined"
    else
      Ok
        { verbose; strategy; project; xml; jobs; shards; replicas; balance; faults; trace_out;
          metrics_out; report_json }
  in
  checked
    Term.(
      const opts $ verbose_flag $ strategy_term ~schema_loaded $ project_flag $ xml_flag
      $ jobs_term $ shard_arg $ replicas_arg $ balance_arg $ faults_term $ trace_arg $ metrics_arg $ report_json_arg)

(* What run and eval each load before the shared pipeline takes over. *)
type loaded = {
  doc : Doc.t;
  registry : Registry.t;
  schema : Schema.t option;
  query : P.t;
  regen : unit -> Registry.t;
      (** a fresh twin of [registry] (same generator config or spec
          file), for --shard/--replicas; the pipeline installs the fault
          knobs, so every twin draws the same seeded fault fates *)
  peer_replicas : (unit -> (Sched.t, string) result) option;
      (** replaces the --shard/--replicas scheduler: eval's --replicas
          over --connect peers, dialed once the fault knobs are in *)
  header : string;  (** printed just before evaluating *)
  print_answers : Eval.binding list -> unit;
}

(* The rest of run and eval: fault knobs, scheduler, evaluation, then
   answers, shard placement, summary, obs sinks and --report-json. *)
let evaluate_loaded o load =
  setup_logs o.verbose;
  match load () with
  | Error m -> fail "%s" m
  | Ok l -> (
    apply_faults l.registry o.faults;
    let regen () =
      let r = l.regen () in
      apply_faults r o.faults;
      r
    in
    let sched =
      match l.peer_replicas with
      | Some connect -> Result.map Option.some (connect ())
      | None ->
        build_sched ~shards:o.shards ~replicas:o.replicas ~balance:o.balance
          ~registry:l.registry ~regen
    in
    match sched with
    | Error m -> fail "%s" m
    | Ok sched ->
      let dispatch = Option.map Sched.dispatch sched in
      (* summed shard budgets tighten the engine's global budget *)
      let max_calls = Option.bind sched Sched.total_budget in
      print_string l.header;
      let obs = make_obs ~trace:o.trace_out ~metrics:o.metrics_out in
      with_pool o.jobs (fun pool ->
          let projector =
            if o.project then Some (Project.compile ?schema:l.schema l.query) else None
          in
          let r =
            match o.strategy with
            | None ->
              Engine.naive_run ?max_calls ?pool ~obs ?projector ?dispatch l.registry l.query
                l.doc
            | Some s ->
              let strategy =
                Option.fold ~none:s ~some:(fun b -> Lazy_eval.with_budget b s) max_calls
              in
              Lazy_eval.run ?schema:l.schema ~registry:l.registry ~strategy ~obs ?pool ?projector
                ?dispatch l.query l.doc
          in
          l.print_answers r.Engine.answers;
          Option.iter
            (fun s ->
              Printf.printf "shards: %s\n"
                (String.concat ", "
                   (List.map (fun (id, n) -> Printf.sprintf "%s=%d" id n) (Sched.dispatched s))))
            sched;
          print_string ("\n" ^ Engine.summary r);
          write_obs ~trace:o.trace_out ~metrics:o.metrics_out obs;
          emit_report_json o.report_json (Engine.report_to_json r);
          `Ok ()))

(* ---------------- run (built-in workloads) ---------------- *)

let run_workload o (workload, scale, seed) query_override =
  (* the fault schedule defaults to the workload seed *)
  let fault_seed = Some (Option.value o.faults.fault_seed ~default:seed) in
  let o = { o with faults = { o.faults with fault_seed } } in
  evaluate_loaded o (fun () ->
      let doc, registry, schema, default_query, _ = generate_workload workload ~scale ~seed in
      Result.map
        (fun query ->
          {
            doc;
            registry;
            schema = Some schema;
            query;
            regen =
              (fun () ->
                let _, r, _, _, _ = generate_workload workload ~scale ~seed in
                r);
            peer_replicas = None;
            header =
              Printf.sprintf "document: %d nodes, %d calls\nquery:    %s\n\n" (Doc.size doc)
                (Doc.count_calls doc) (P.to_string query);
            print_answers = print_bindings ~xml:o.xml;
          })
        (Option.fold ~none:(Ok default_query) ~some:parse_query query_override))

let run_cmd =
  let doc =
    "Run a query lazily (or naively) over a built-in simulated workload: $(b,city) (the paper's \
     running example, scaled), $(b,goingout) (the introduction's scenario) or $(b,synthetic)."
  in
  let query_arg =
    Arg.(
      value & pos 0 (some string) None & info [] ~docv:"QUERY" ~doc:"Override the workload query.")
  in
  Cmd.v
    (Cmd.info "run" ~doc)
    Term.(
      ret
        (const run_workload $ eval_opts_term ~schema_loaded:(Term.const true) $ workload_term
       $ query_arg))

(* ---------------- generate ---------------- *)

let generate (workload, scale, seed) output =
  let doc, _, _, _, schema_src = generate_workload workload ~scale ~seed in
  let xml = Doc.to_string ~indent:2 doc in
  (match output with
  | None -> print_endline xml
  | Some path ->
    let write path s =
      let oc = open_out path in
      output_string oc s;
      close_out oc
    in
    write path xml;
    Option.iter (write (path ^ ".schema")) schema_src;
    Printf.eprintf "wrote %s (%d nodes, %d calls)\n" path (Doc.size doc) (Doc.count_calls doc));
  `Ok ()

let generate_cmd =
  let doc = "Generate a workload document as XML (plus its .schema when written to a file)." in
  let output_arg =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file.")
  in
  Cmd.v (Cmd.info "generate" ~doc) Term.(ret (const generate $ workload_term $ output_arg))

(* ---------------- eval (user files) ---------------- *)

let load_files o doc_path schema_path services_path connect wire flwr query_src () =
  (* a FLWR query evaluates as its pattern, then renders its template *)
  let query =
    if flwr then
      Result.map (fun q -> (Axml_query.Xquery.pattern q, Some q)) (compile_flwr query_src)
    else Result.map (fun q -> (q, None)) (parse_query query_src)
  in
  match load_doc doc_path, query, load_schema schema_path with
  | Error m, _, _ | _, Error m, _ | _, _, Error m -> Error m
  | Ok doc, Ok (query, flwr_query), Ok schema -> (
    let load_services r = Option.map (Axml_services.Spec.load_file r) services_path in
    let registry = Registry.create () in
    match load_services registry with
    | exception Axml_services.Spec.Error m -> Error ("services: " ^ m)
    | names -> (
      let local_names = Option.value names ~default:[] in
      Option.iter
        (fun names -> Printf.eprintf "registered services: %s\n%!" (String.concat ", " names))
        names;
      (* with --replicas over --connect the peers become shard registries
         of their own instead of merging into the main registry *)
      let replica_peers = o.replicas > 1 && connect <> [] in
      let claimed = List.concat_map (fun (_, _, s) -> s) o.shards in
      let foreign = List.filter (fun s -> not (List.mem s local_names)) claimed in
      let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
      if replica_peers && List.length connect <> o.replicas then
        err "--replicas %d but %d --connect peer(s): the counts must match" o.replicas
          (List.length connect)
      else if o.replicas > 1 && connect = [] && services_path = None then
        err "--replicas needs --services (reloaded per replica) or --connect peers"
      else if foreign <> [] then
        err "--shard can only claim --services names, not remote ones: %s"
          (String.concat ", " foreign)
      else
        Result.map
          (fun remote_names ->
            if remote_names <> [] then
              Printf.eprintf "remote services: %s\n%!" (String.concat ", " remote_names);
            {
              doc;
              registry;
              schema;
              query;
              regen =
                (fun () ->
                  let r = Registry.create () in
                  ignore (load_services r);
                  r);
              peer_replicas =
                (if replica_peers then
                   Some
                     (fun () ->
                       connect_replicas ~jobs:o.jobs ~wire ~balance:o.balance
                         ~local_registry:registry ~local_names connect)
                 else None);
              header = "";
              print_answers =
                (match flwr_query with
                | Some q ->
                  fun answers ->
                    print_endline
                      (Axml_xml.Print.forest_to_string ~indent:2
                         (Axml_query.Xquery.instantiate q answers))
                | None -> print_bindings ~xml:o.xml);
            })
          (if replica_peers then Ok [] else connect_peers ~jobs:o.jobs ~wire registry connect)))

let eval_cmd =
  let doc =
    "Lazily evaluate a query over your own AXML document, with services defined in a \
     declarative XML spec (see $(b,Axml_services.Spec))."
  in
  let services_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "services" ] ~docv:"FILE" ~doc:"Table-driven service definitions.")
  in
  let eval_files o doc_path schema_path services_path connect wire flwr query_src =
    evaluate_loaded o (load_files o doc_path schema_path services_path connect wire flwr query_src)
  in
  Cmd.v
    (Cmd.info "eval" ~doc)
    Term.(
      ret
        (const eval_files
        $ eval_opts_term ~schema_loaded:Term.(const Option.is_some $ schema_arg)
        $ doc_arg $ schema_arg $ services_arg $ connect_arg
       $ wire_arg $ flwr_flag $ query_arg))

(* ---------------- project ---------------- *)

let project_doc doc_path schema_path query_src =
  match load_tree doc_path, parse_query query_src, load_schema schema_path with
  | Error m, _, _ | _, Error m, _ | _, _, Error m -> fail "%s" m
  | Ok tree, Ok query, Ok schema ->
    let projector = Project.compile ?schema query in
    let projected, st = Project.tree projector tree in
    print_endline (Axml_xml.Print.to_string ~indent:2 projected);
    Printf.eprintf "projection: kept %d of %d node(s) (dropped %d), saved %d byte(s)\n"
      st.Project.kept_nodes st.Project.full_nodes
      (st.Project.full_nodes - st.Project.kept_nodes)
      st.Project.bytes_saved;
    `Ok ()

let project_cmd =
  let doc =
    "Project a document against a query (type-based projection): print the projected \
     document — every subtree the query can never touch dropped, every possibly-relevant \
     service call kept — plus a one-line kept/dropped summary on stderr. With $(b,--schema) \
     the projector uses the content models and call signatures for a sharper (still sound) \
     prune."
  in
  Cmd.v
    (Cmd.info "project" ~doc)
    Term.(ret (const project_doc $ doc_arg $ schema_arg $ query_arg))

(* ---------------- trace ---------------- *)

let trace_view path =
  match Trace.load_file path with
  | Error m -> fail "%s: %s" path m
  | Ok forest ->
    Format.printf "%a" Trace.pp_forest forest;
    let rec count pred ns =
      List.fold_left
        (fun acc (n : Trace.node) ->
          acc + (if pred n then 1 else 0) + count pred n.Trace.children)
        0 ns
    in
    let total = count (fun _ -> true) forest in
    let named name = count (fun n -> n.Trace.node_name = name) forest in
    Printf.printf
      "\n%d span(s): %d round(s), %d detection(s), %d invocation(s), %d wire attempt(s)\n" total
      (named "eval.round") (named "eval.detect") (named "service.invoke")
      (named "service.attempt");
    `Ok ()

let trace_cmd =
  let doc =
    "Pretty-print a saved trace (Chrome trace_event JSON or JSONL, from $(b,--trace)) as the \
     evaluation's layer/pass/round tree with wall and simulated-clock durations, attributes and \
     byte rollups."
  in
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Saved trace file.")
  in
  Cmd.v (Cmd.info "trace" ~doc) Term.(ret (const trace_view $ file_arg))

(* ---------------- validate ---------------- *)

let validate doc_path schema_path =
  match load_doc doc_path, load_schema (Some schema_path) with
  | Error m, _ | _, Error m -> fail "%s" m
  | Ok _, Ok None -> fail "a schema is required"
  | Ok doc, Ok (Some schema) -> (
    match Axml_schema.Validate.document schema doc with
    | [] ->
      print_endline "document conforms to the schema";
      `Ok ()
    | issues ->
      List.iter
        (fun i -> Format.printf "%a@." Axml_schema.Validate.pp_issue i)
        issues;
      Printf.eprintf "%d issue(s)\n" (List.length issues);
      `Error (false, "the document does not conform"))

let validate_cmd =
  let doc = "Validate an AXML document against a schema (content models and call signatures)." in
  Cmd.v (Cmd.info "validate" ~doc) Term.(ret (const validate $ doc_arg $ schema_required_arg))

(* ---------------- termination ---------------- *)

let termination schema_path doc_path =
  match load_schema (Some schema_path) with
  | Error m -> fail "%s" m
  | Ok None -> fail "a schema is required"
  | Ok (Some schema) -> (
    let verdict =
      match doc_path with
      | None -> Ok (Axml_core.Termination.analyze schema)
      | Some path -> (
        match load_doc path with
        | Error m -> Error m
        | Ok doc -> Ok (Axml_core.Termination.analyze_doc schema doc))
    in
    match verdict with
    | Error m -> fail "%s" m
    | Ok v ->
      Format.printf "%a@." Axml_core.Termination.pp_verdict v;
      List.iter
        (fun (f, targets) ->
          Printf.printf "  %s -> %s\n" f
            (if targets = [] then "(nothing)" else String.concat ", " targets))
        (Axml_core.Termination.call_graph schema);
      `Ok ())

let termination_cmd =
  let doc =
    "Check the sufficient termination condition for rewritings: is the service call graph \
     (restricted to the document's calls, if one is given) acyclic?"
  in
  let doc_opt =
    Arg.(
      value
      & opt (some file) None
      & info [ "d"; "doc" ] ~docv:"FILE" ~doc:"Restrict to this document's calls.")
  in
  Cmd.v (Cmd.info "termination" ~doc) Term.(ret (const termination $ schema_required_arg $ doc_opt))

(* ---------------- serve ---------------- *)

let serve verbose services_path host port wire max_conns workers latency jitter jitter_seed faults
    trace_out metrics_out =
  setup_logs verbose;
  if latency < 0.0 then fail "latency must be >= 0"
  else if jitter < 0.0 then fail "latency-jitter must be >= 0"
  else if max_conns < 1 then fail "max-conns must be >= 1"
  else if workers < 1 then fail "workers must be >= 1"
  else
  let registry = Registry.create () in
  match Axml_services.Spec.load_file registry services_path with
  | exception Axml_services.Spec.Error m -> fail "services: %s" m
  | exception Sys_error m -> fail "%s" m
  | names -> (
    apply_faults registry faults;
    let obs = make_obs ~trace:trace_out ~metrics:metrics_out in
    (* binary offers the server's default capabilities *)
    let caps = match wire with `Auto -> None | `Json -> Some [ Axml_net.Wire.cap_shard ] in
    match
      Server.create ~host ~port ~obs ?caps ~max_conns ~workers ~delay:latency ~jitter
        ~jitter_seed ~registry ()
    with
    | exception Unix.Unix_error (e, _, _) ->
      fail "cannot listen on %s:%d: %s" host port (Unix.error_message e)
    | server ->
      Printf.printf "serving %d service(s) on %s:%d: %s\n%!" (List.length names) host
        (Server.port server) (String.concat ", " names);
      let shutdown _ = Server.stop server in
      Sys.set_signal Sys.sigint (Sys.Signal_handle shutdown);
      Sys.set_signal Sys.sigterm (Sys.Signal_handle shutdown);
      Server.run server;
      write_obs ~trace:trace_out ~metrics:metrics_out obs;
      `Ok ())

let serve_cmd =
  let doc =
    "Serve a registry to remote AXML peers over TCP: loads a declarative service spec (the \
     $(b,--services) format of $(b,axml eval)) and answers $(b,invoke) requests, evaluating \
     pushed subqueries provider-side. Stop with SIGINT/SIGTERM. Peers connect with $(b,axml \
     eval --connect HOST:PORT)."
  in
  let services_required =
    Arg.(
      required
      & opt (some file) None
      & info [ "services" ] ~docv:"FILE" ~doc:"Table-driven service definitions to serve.")
  in
  let host_arg =
    Arg.(
      value & opt string "127.0.0.1"
      & info [ "host" ] ~docv:"HOST" ~doc:"Address to bind (default loopback).")
  in
  let port_arg =
    Arg.(
      value & opt int 7342
      & info [ "port" ] ~docv:"PORT" ~doc:"Port to bind; 0 picks an ephemeral port.")
  in
  let latency_arg =
    Arg.(
      value & opt float 0.0
      & info [ "latency" ] ~docv:"SECONDS"
          ~doc:
            "Sleep $(docv) of real wall-clock time before serving each invoke request — \
             injected provider latency for wall-clock experiments (E9).")
  in
  let jitter_arg =
    Arg.(
      value & opt float 0.0
      & info [ "latency-jitter" ] ~docv:"SECONDS"
          ~doc:
            "Add a uniform random $(b,[0,)$(docv)$(b,)) of wall-clock time on top of \
             $(b,--latency) before serving each request — seeded, reproducible provider \
             noise for balancing experiments (E12).")
  in
  let jitter_seed_arg =
    Arg.(
      value & opt int 0
      & info [ "jitter-seed" ] ~docv:"N" ~doc:"Seed for the $(b,--latency-jitter) stream.")
  in
  let serve_wire_arg =
    Arg.(
      value
      & opt wire_conv `Auto
      & info [ "wire" ] ~docv:"CODEC"
          ~doc:
            "Frame codecs offered to peers: $(b,binary) (the default) advertises the \
             compact binary codec, per-connection reuse of pushed patterns and \
             per-connection label tables in the capability handshake — clients that also \
             speak them switch over, everyone else stays on JSON, full patterns and full \
             labels; $(b,json) advertises none of them.")
  in
  let max_conns_arg =
    Arg.(
      value & opt int 8192
      & info [ "max-conns" ] ~docv:"N"
          ~doc:
            "Concurrent connection cap: at $(docv) live connections the server parks its \
             accept interest (the TCP backlog absorbs the burst) and resumes as \
             connections close.")
  in
  let workers_arg =
    Arg.(
      value & opt int 32
      & info [ "workers" ] ~docv:"N"
          ~doc:
            "Request-handler threads behind the event loop — how many requests execute \
             concurrently (they mostly sleep in injected latency and service waits).")
  in
  Cmd.v
    (Cmd.info "serve" ~doc)
    Term.(
      ret
        (const serve $ verbose_flag $ services_required $ host_arg $ port_arg $ serve_wire_arg
       $ max_conns_arg $ workers_arg $ latency_arg
       $ jitter_arg $ jitter_seed_arg $ faults_term $ trace_arg $ metrics_arg))

(* ---------------- fuzz ---------------- *)

let fuzz verbose seed iters watchdog family artifacts =
  setup_logs verbose;
  if iters <= 0 then fail "--iters must be positive"
  else if watchdog <= 0.0 then fail "--watchdog must be positive"
  else
    let log =
      if verbose then fun m -> Printf.eprintf "%s\n%!" m else fun (_ : string) -> ()
    in
    let report = Fuzz.run ~watchdog ~log ?family ~seed ~iters () in
    match report.Fuzz.failure with
    | None ->
      Printf.printf "fuzz: %d iteration(s), 0 oracle violations (seed %d)\n"
        report.Fuzz.iterations seed;
      `Ok ()
    | Some f ->
      let failure_text =
        String.concat "\n"
          [
            Printf.sprintf "oracle: %s — %s" f.Fuzz.first_failure.Fuzz.oracle
              f.Fuzz.first_failure.Fuzz.detail;
            Printf.sprintf "case:   %s" (Fuzz.case_to_string f.Fuzz.failed_case);
            Printf.sprintf "shrunk: %s" (Fuzz.case_to_string f.Fuzz.shrunk_case);
            Printf.sprintf "        %s — %s" f.Fuzz.shrunk_failure.Fuzz.oracle
              f.Fuzz.shrunk_failure.Fuzz.detail;
            Printf.sprintf "replay: %s" (Fuzz.replay_hint f.Fuzz.failed_case);
          ]
      in
      Printf.printf "fuzz: FAILED after %d iteration(s)\n%s\n" report.Fuzz.iterations
        failure_text;
      (match artifacts with
      | None -> ()
      | Some dir ->
        (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
        let write name s =
          let oc = open_out (Filename.concat dir name) in
          output_string oc s;
          output_char oc '\n';
          close_out oc
        in
        write "failure.txt" failure_text;
        write "shrunk.xml" f.Fuzz.shrunk_xml;
        Printf.printf "artifacts: %s\n" dir);
      fail "oracle violation (replay: %s)" (Fuzz.replay_hint f.Fuzz.failed_case)

let fuzz_cmd =
  let doc =
    "Differential fuzzing over adversarial workloads: each iteration derives a hostile \
     instance family, strategy, jobs level, local or loopback-remote registry, fault \
     schedule and budget from the seed, and checks the oracle battery (lazy answers within \
     the fault-free naive reference, complete-flag semantics, byte-identical answers across \
     jobs levels, report/metrics/trace reconciliation, push equivalence, budget-bounded \
     termination under a watchdog). Failures are shrunk to a minimal case and a one-line \
     replay is printed."
  in
  let seed_arg =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"N"
          ~doc:"Base seed: iteration $(i,i) checks the case derived from seed + $(i,i).")
  in
  let iters_arg =
    Arg.(value & opt int 100 & info [ "iters" ] ~docv:"N" ~doc:"Iterations to run.")
  in
  let watchdog_arg =
    Arg.(
      value & opt float 30.0
      & info [ "watchdog" ] ~docv:"SECONDS"
          ~doc:"Wall-clock deadline per evaluation arm; exceeding it is an oracle failure.")
  in
  let family_arg =
    Arg.(
      value
      & opt (some (enum Adversary.families)) None
      & info [ "family" ] ~docv:"NAME"
          ~doc:
            ("Restrict to one adversarial family: "
            ^ doc_alts_enum ~quoted:false Adversary.families
            ^ "."))
  in
  let artifacts_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "artifacts" ] ~docv:"DIR"
          ~doc:
            "On failure, write failure.txt (case, shrunk case, replay line) and shrunk.xml \
             (the minimal failing instance) into $(docv).")
  in
  Cmd.v
    (Cmd.info "fuzz" ~doc)
    Term.(
      ret
        (const fuzz $ verbose_flag $ seed_arg $ iters_arg $ watchdog_arg $ family_arg
       $ artifacts_arg))

(* ---------------- main ---------------- *)

let () =
  let doc = "lazy query evaluation for Active XML documents" in
  let info = Cmd.info "axml" ~version:"1.0.0" ~doc in
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [
            snapshot_cmd;
            relevant_cmd;
            layers_cmd;
            guide_cmd;
            run_cmd;
            eval_cmd;
            project_cmd;
            serve_cmd;
            trace_cmd;
            generate_cmd;
            validate_cmd;
            termination_cmd;
            fuzz_cmd;
          ]))
