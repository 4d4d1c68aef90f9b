(* The repository's benchmark: closed-loop lazy evaluation of Active XML
   queries, one client thread, one op at a time.

   An op parses a serialized AXML document and evaluates the workload's
   query on it with the typed NFQA strategy, invoking only the relevant
   service calls. Three workloads stress different layers:

   - scan: a skewed-fanout Adversary document padded with cold ballast
     sections; the document sweeps of relevance detection dominate and
     service calls are cheap and few.
   - rewrite: a City instance with recursive gethotels, under push and
     type-based projection; many calls, splices and view patches over a
     small document.
   - peer: the rewrite evaluation with every service behind a forked
     axmld server (binary codec, one connection per served instance);
     only the transport differs from rewrite.

   A run draws its documents from --seed and measures for at least
   --seconds and 200 ops, stopping after a whole number of passes over
   its documents. Set-up (generation, serialization, the peer's
   fork and handshake, one warm-up evaluation of every document) runs
   several times; its median is reported.

   Every op is checked against a fingerprint pinned at set-up (answer
   digest, invoked calls, completeness); the fingerprint is checked once
   against the naive strategy (lazy answers must be a subset of naive
   ones), and peer's against rewrite's on the same seed.

   Matching is pinned to one domain ([match_jobs = 1]): domain-parallel
   matching on a small shared machine gives run-to-run swings far larger
   than any bound worth enforcing.

   With --trace 0 the last stdout line carries the end-to-end metrics.
   With --trace 1 untraced and traced ops alternate; the traced ops give
   a per-op ledger whose lines plus an explicit unattributed residual sum
   to the op's wall time, and the untraced ones give the runtime figures
   and the tracing overhead. *)

module Tree = Axml_xml.Tree
module Parse = Axml_xml.Parse
module Print = Axml_xml.Print
module Doc = Axml_doc
module Pattern = Axml_query.Pattern
module Eval = Axml_query.Eval
module Schema = Axml_schema.Schema
module Registry = Axml_services.Registry
module Lazy_eval = Axml_core.Lazy_eval
module Engine = Axml_engine.Engine
module Project = Axml_project.Project
module Obs = Axml_obs.Obs
module Trace = Axml_obs.Trace
module Adversary = Axml_workload.Adversary
module City = Axml_workload.City
module Server = Axml_net.Server
module Client = Axml_net.Client
module Remote = Axml_net.Remote
module Wire = Axml_net.Wire

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Statistics *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Nearest-rank quantile of a sorted array. *)
let rank_quantile a q =
  let n = Array.length a in
  if n = 0 then nan else a.(min (n - 1) (max 0 (int_of_float (ceil (q *. float_of_int n)) - 1)))

let median xs = rank_quantile (sorted xs) 0.5

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* ------------------------------------------------------------------ *)
(* Workloads *)

type instance = {
  text : string;  (* the serialized document every op parses *)
  registry : Registry.t;
  schema : Schema.t;
  query : Pattern.t;
  projector : Project.t option;
}

type workload = {
  name : string;
  strategy : Lazy_eval.strategy;
  make : int -> instance;
  remote : bool;
}

(* Documents per run, drawn from the seed. Ops cycle over them, so a
   run's figures average over many inputs instead of riding on one. *)
let instances = 16

let scan_scale = 80
let ballast_sections = 4
let ballast_items = 40

(* Cold sections: schema-conforming items whose key is never "magic", so
   every detection sweep walks them and no call hides in them. *)
let ballast seed s =
  Tree.element "sec"
    (List.init ballast_items (fun i ->
         Tree.element "item"
           [
             Tree.element "key" [ Tree.text (Printf.sprintf "cold-%d-%d-%d" seed s i) ];
             Tree.element "payload" [ Tree.text "ballast" ];
           ]))

let scan_instance seed =
  let a =
    Adversary.generate
      {
        Adversary.default_config with
        Adversary.family = Adversary.Skewed_fanout;
        seed;
        scale = scan_scale;
      }
  in
  let tree =
    match Doc.to_xml a.Adversary.doc with
    | Tree.Element el ->
      Tree.Element
        { el with Tree.children = el.Tree.children @ List.init ballast_sections (ballast seed) }
    | t -> t
  in
  {
    text = Print.to_string tree;
    registry = a.Adversary.registry;
    schema = a.Adversary.schema;
    query = a.Adversary.query;
    projector = None;
  }

let city_instance seed =
  let c =
    City.generate
      {
        City.default_config with
        City.hotels = 100;
        extensional_fraction = 0.5;
        intensional_rating_fraction = 0.8;
        intensional_nearby_fraction = 0.8;
        target_fraction = 0.5;
        five_star_fraction = 0.5;
        seed;
      }
  in
  {
    text = Print.to_string (Doc.to_xml c.City.doc);
    registry = c.City.registry;
    schema = c.City.schema;
    query = c.City.query;
    projector = Some (Project.compile ~schema:c.City.schema c.City.query);
  }

let typed = Lazy_eval.with_match_jobs 1 Lazy_eval.nfqa_typed

let workloads =
  [
    {
      name = "scan";
      strategy = typed;
      make = scan_instance;
      remote = false;
    };
    {
      name = "rewrite";
      strategy = Lazy_eval.with_push typed;
      make = city_instance;
      remote = false;
    };
    {
      name = "peer";
      strategy = Lazy_eval.with_push typed;
      make = city_instance;
      remote = true;
    };
  ]

let instance_seed seed i = (seed * 1000) + i

(* ------------------------------------------------------------------ *)
(* One op *)

type op = {
  op_s : float;
  parse_s : float;
  build_s : float;
  view_s : float;
  run_s : float;
  run_start : float;
  invoke_s : float;  (* summed over the op's service calls *)
  calls_s : float list;  (* each service call's dispatch time *)
  report : Engine.report;
}

(* Parse, import, (index,) evaluate — the timed unit. The dispatch
   wrapper times each Registry.invoke from the outside. *)
let run_op wl inst ~obs =
  let invoke_s = ref 0.0 and calls_s = ref [] in
  let dispatch : Engine.dispatch =
   fun ~name ~params ?push ~obs () ->
    let t0 = now () in
    let account () =
      let d = now () -. t0 in
      invoke_s := !invoke_s +. d;
      calls_s := d :: !calls_s
    in
    match Registry.invoke inst.registry ~name ~params ?push ~obs () with
    | result, inv ->
      account ();
      (result, inv, Engine.no_route)
    | exception e ->
      account ();
      raise e
  in
  let t0 = now () in
  let tree = Parse.tree inst.text in
  let t1 = now () in
  let doc = Doc.of_xml tree in
  let t2 = now () in
  (* index the fresh document here, so the view build is timed on its
     own; a projector would project in place and invalidate the index *)
  if Option.is_none inst.projector then ignore (Doc.View.snapshot doc);
  let t3 = now () in
  let report =
    Lazy_eval.run ~strategy:wl.strategy ~schema:inst.schema ~obs ?projector:inst.projector
      ~dispatch ~registry:inst.registry inst.query doc
  in
  let t4 = now () in
  {
    op_s = t4 -. t0;
    parse_s = t1 -. t0;
    build_s = t2 -. t1;
    view_s = t3 -. t2;
    run_s = t4 -. t3;
    run_start = t3;
    invoke_s = !invoke_s;
    calls_s = !calls_s;
    report;
  }

(* ------------------------------------------------------------------ *)
(* The answer oracle *)

type fingerprint = { digest : string; invoked : int; complete : bool }

let tuple b = Print.forest_to_string (Eval.bindings_to_xml [ b ])

let fingerprint (r : Engine.report) =
  {
    digest = Digest.to_hex (Digest.string (String.concat "\n" (List.map tuple r.Engine.answers)));
    invoked = r.Engine.invoked;
    complete = r.Engine.complete;
  }

(* Lazy answers must be a non-empty subset of what naive materialization
   of the whole document answers. *)
let naive_check inst (lazy_report : Engine.report) =
  let naive =
    Engine.naive_run inst.registry inst.query (Doc.of_xml (Parse.tree inst.text))
  in
  Registry.reset_history inst.registry;
  let seen = Hashtbl.create 64 in
  List.iter (fun b -> Hashtbl.replace seen (tuple b) ()) naive.Engine.answers;
  naive.Engine.complete && lazy_report.Engine.answers <> []
  && List.for_all (fun b -> Hashtbl.mem seen (tuple b)) lazy_report.Engine.answers

(* ------------------------------------------------------------------ *)
(* The peer server: one forked child serving every instance's registry
   on its own port. Forked before the parent starts any thread.

   Every served call adds a record to the served registry's history.
   The in-process workloads clear their registry's history after each
   op; the child does the same for its registries on each byte the
   parent writes to its control pipe, so that peer differs from
   rewrite only in the transport and the child's heap stays flat. *)

type server = { pid : int; ports : int array; control : Unix.file_descr }

let proc_file pid name =
  In_channel.with_open_text (Printf.sprintf "/proc/%s/%s" pid name) In_channel.input_all

(* Peak resident set (VmHWM) in MB. *)
let peak_rss_mb pid =
  let status = proc_file pid "status" in
  let line =
    List.find (fun l -> String.starts_with ~prefix:"VmHWM:" l) (String.split_on_char '\n' status)
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)

(* utime + stime of a process in seconds, read from /proc (USER_HZ = 100). *)
let proc_cpu_s pid =
  let stat = proc_file pid "stat" in
  let from = String.rindex stat ')' + 2 in
  (* fields from 3 (state) on; utime and stime are fields 14 and 15 *)
  let rest = String.sub stat from (String.length stat - from) in
  let fields = Array.of_list (String.split_on_char ' ' rest) in
  (float_of_string fields.(11) +. float_of_string fields.(12)) /. 100.0

let self_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Clears the registries' histories on each control byte; ends at EOF. *)
let history_clearer control registries =
  let buf = Bytes.create 64 in
  let rec loop () =
    match Unix.read control buf 0 (Bytes.length buf) with
    | 0 -> ()
    | _ ->
      List.iter Registry.reset_history registries;
      loop ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
  in
  loop ()

let spawn_server registries =
  flush stdout;
  flush stderr;
  let rd, wr = Unix.pipe ~cloexec:true () in
  let control_rd, control_wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 -> (
    try
      Unix.close rd;
      Unix.close control_wr;
      ignore (Thread.create (history_clearer control_rd) registries);
      let servers = List.map (fun registry -> Server.create ~workers:1 ~registry ()) registries in
      let line =
        String.concat " " (List.map (fun s -> string_of_int (Server.port s)) servers) ^ "\n"
      in
      ignore (Unix.write_substring wr line 0 (String.length line));
      Unix.close wr;
      (match List.rev servers with
      | last :: others ->
        List.iter Server.start others;
        Server.run last
      | [] -> ());
      Unix._exit 0
    with _ -> Unix._exit 3)
  | pid ->
    Unix.close wr;
    Unix.close control_rd;
    let ic = Unix.in_channel_of_descr rd in
    let line = try input_line ic with End_of_file -> "" in
    close_in ic;
    let ports =
      String.split_on_char ' ' line |> List.filter (( <> ) "") |> List.map int_of_string
    in
    { pid; ports = Array.of_list ports; control = control_wr }

let clear_server_history s = ignore (Unix.write_substring s.control "c" 0 1)

let rec wait_child pid =
  match Unix.waitpid [] pid with
  | _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_child pid
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()

let stop_server s =
  (try Unix.close s.control with Unix.Unix_error _ -> ());
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  wait_child s.pid

(* ------------------------------------------------------------------ *)
(* Set-up *)

type env = {
  insts : instance array;  (* what the ops run against *)
  locals : instance array;  (* the in-process instances (peer: the served ones) *)
  server : server option;
  clients : Client.t list;
}

(* A /proc figure of the peer server child; 0 for in-process workloads. *)
let server_stat env f = match env.server with Some s -> f (string_of_int s.pid) | None -> 0.0

let teardown env =
  List.iter Client.close env.clients;
  Option.iter stop_server env.server

(* After each op: drop the invocation records it left, client-side and
   on the peer server. *)
let clear_history env inst =
  Registry.reset_history inst.registry;
  Option.iter clear_server_history env.server

(* Instance generation, serialization, peer fork and handshake, and one
   warm-up evaluation of every instance, whose reports pin the answer
   fingerprints: everything a run pays before its first timed op. *)
let setup wl ~seed =
  let locals = Array.init instances (fun i -> wl.make (instance_seed seed i)) in
  let env =
    if not wl.remote then { insts = locals; locals; server = None; clients = [] }
    else begin
      let srv = spawn_server (Array.to_list (Array.map (fun i -> i.registry) locals)) in
      match
        if Array.length srv.ports <> Array.length locals then failwith "peer server did not start";
        Array.map2
          (fun inst port ->
            let client = Client.create ~pool_size:1 ~host:"127.0.0.1" ~port () in
            let registry = Registry.create () in
            ignore (Remote.register ~memoize:false ~registry client);
            if not (List.mem Wire.cap_binary (Client.capabilities client)) then
              failwith "peer did not negotiate the binary codec";
            ({ inst with registry }, client))
          locals srv.ports
      with
      | pairs ->
        {
          insts = Array.map fst pairs;
          locals;
          server = Some srv;
          clients = Array.to_list (Array.map snd pairs);
        }
      | exception e ->
        stop_server srv;
        raise e
    end
  in
  let warm inst =
    let op = run_op wl inst ~obs:Obs.null in
    clear_history env inst;
    op.report
  in
  match Array.map warm env.insts with
  | reports -> (env, reports)
  | exception e ->
    teardown env;
    raise e

let setup_reps = 5

(* ------------------------------------------------------------------ *)
(* Host calibration: a stdlib-only kernel, so a later reader can tell
   host speed drift from a change in the program. *)

let calib_ms () =
  let kernel () =
    let a = Array.init 50_000 (fun i -> (i * 7919) land 0xFFFFF) in
    Array.sort compare a;
    a.(0)
  in
  median
    (List.init 5 (fun _ ->
         let t0 = now () in
         ignore (Sys.opaque_identity (kernel ()));
         (now () -. t0) *. 1000.0))

(* ------------------------------------------------------------------ *)
(* The measured loop *)

(* Wall-clock roll-ups of the spans one traced op emits. *)
type spans = {
  prepare_s : float;  (* run start to eval.run open: NFQs, typing, projection, view *)
  eval_s : float;  (* the eval.run span *)
  detect_s : float;  (* eval.detect, summed: relevance detection *)
  rounds_s : float;  (* eval.round, summed: invocation rounds *)
  answer_s : float;  (* last phase close to eval.run close: answers, report *)
}

type sample = {
  op : op;  (* [report.answers] is dropped: it would pin the document *)
  alloc_b : float;
  major : int;
  spans : spans option;
}

let rollup ~epoch ~run_start (obs : Obs.t) =
  match Trace.tree obs.Obs.trace with
  | Error e -> Error e
  | Ok roots -> (
    match List.find_opt (fun (n : Trace.node) -> n.Trace.node_name = "eval.run") roots with
    | None -> Error "no eval.run span"
    | Some run ->
      let rec total name (n : Trace.node) =
        if n.Trace.node_name = name then n.Trace.wall_end -. n.Trace.wall_start
        else List.fold_left (fun acc c -> acc +. total name c) 0.0 n.Trace.children
      in
      let last_child_end =
        List.fold_left
          (fun acc (c : Trace.node) -> Float.max acc c.Trace.wall_end)
          run.Trace.wall_start run.Trace.children
      in
      Ok
        {
          prepare_s = epoch +. run.Trace.wall_start -. run_start;
          eval_s = run.Trace.wall_end -. run.Trace.wall_start;
          detect_s = total "eval.detect" run;
          rounds_s = total "eval.round" run;
          answer_s = run.Trace.wall_end -. last_child_end;
        })

type outcome = {
  samples : sample list;  (* successful ops, oldest first *)
  call_s : Float.Array.t;  (* per-call dispatch times of the untraced ops (trace runs) *)
  attempted : int;
  failed : int;
  wall_s : float;
  cpu_s : float;  (* client process plus server child *)
  server_cpu_s : float;
}

let min_ops = 200

let measure wl env ~pinned ~seconds ~max_ops ~trace =
  let k = Array.length env.insts in
  let samples = ref [] and attempted = ref 0 and failed = ref 0 in
  (* unboxed, so the growing record never adds to what the GC scans *)
  let calls = ref (Float.Array.make 4096 0.0) and ncalls = ref 0 in
  let record_call d =
    if !ncalls = Float.Array.length !calls then begin
      let bigger = Float.Array.make (2 * !ncalls) 0.0 in
      Float.Array.blit !calls 0 bigger 0 !ncalls;
      calls := bigger
    end;
    Float.Array.set !calls !ncalls d;
    incr ncalls
  in
  let cpu0 = self_cpu_s () and srv0 = server_stat env proc_cpu_s in
  let t_start = now () in
  (* a timed run stops only after a whole number of passes over the
     documents, so every run averages the same input mix *)
  let pass = if trace then 2 * k else k in
  let more () =
    match max_ops with
    | Some m -> !attempted < m
    | None -> !attempted mod pass <> 0 || !attempted < min_ops || now () -. t_start < seconds
  in
  while more () do
    let n = !attempted in
    incr attempted;
    let traced = trace && n land 1 = 1 in
    let i = (if trace then n / 2 else n) mod k in
    let inst = env.insts.(i) in
    let epoch = ref nan in
    let obs =
      if traced then
        Obs.create
          ~clock:(fun () ->
            let t = now () in
            if Float.is_nan !epoch then epoch := t;
            t)
          ()
      else Obs.null
    in
    let a0 = Gc.allocated_bytes () and m0 = (Gc.quick_stat ()).Gc.major_collections in
    (match run_op wl inst ~obs with
    | op ->
      let alloc_b = Gc.allocated_bytes () -. a0 in
      let major = (Gc.quick_stat ()).Gc.major_collections - m0 in
      let spans =
        if traced then
          match rollup ~epoch:!epoch ~run_start:op.run_start obs with
          | Ok s -> Some s
          | Error e ->
            Printf.printf "op %d: trace roll-up failed: %s\n" n e;
            None
        else None
      in
      if fingerprint op.report <> pinned.(i) || (traced && spans = None) then incr failed
      else begin
        if trace && not traced then List.iter record_call op.calls_s;
        let op = { op with calls_s = []; report = { op.report with Engine.answers = [] } } in
        samples := { op; alloc_b; major; spans } :: !samples
      end
    | exception e ->
      Printf.printf "op %d raised %s\n" n (Printexc.to_string e);
      incr failed);
    clear_history env inst
  done;
  let wall_s = now () -. t_start in
  let server_cpu_s = server_stat env proc_cpu_s -. srv0 in
  {
    samples = List.rev !samples;
    call_s = Float.Array.sub !calls 0 !ncalls;
    attempted = !attempted;
    failed = !failed;
    wall_s;
    cpu_s = self_cpu_s () -. cpu0 +. server_cpu_s;
    server_cpu_s;
  }

(* ------------------------------------------------------------------ *)
(* Reporting *)

(* The tail percentile. With at least [min_ops] ops it has ten or more
   samples beyond it, and being fixed it keeps its meaning when the op
   count of a run moves with host speed. *)
let tail_q = 0.95

let ms s = s *. 1000.0
let mean_of f samples = mean (List.map f samples)

let e2e_metrics ~setup_s ~peak_mb out =
  let lat = sorted (List.map (fun s -> ms s.op.op_s) out.samples) in
  let n = Array.length lat in
  let beyond = n - int_of_float (ceil (tail_q *. float_of_int n)) in
  Printf.printf "latency: %d ops, p50 %.3f ms, p%.0f %.3f ms (%d samples beyond it)\n" n
    (rank_quantile lat 0.5) (tail_q *. 100.0) (rank_quantile lat tail_q) beyond;
  let nf = float_of_int (max 1 n) in
  (* integer totals over whole passes: the same seed gives the same figure *)
  let per_op f = float_of_int (List.fold_left (fun acc s -> acc + f s.op.report) 0 out.samples) /. nf in
  [
    ("setup_s", setup_s, "s");
    ("latency_p50_ms", rank_quantile lat 0.5, "ms");
    ("latency_tail_ms", rank_quantile lat tail_q, "ms");
    ("ops_per_s", float_of_int n /. out.wall_s, "1/s");
    ("cpu_ms_per_op", ms out.cpu_s /. nf, "ms");
    ("peak_rss_mb", peak_mb, "MB");
    ("calls_per_op", per_op (fun r -> r.Engine.invoked), "count");
    ("wire_kb_per_op", per_op (fun r -> r.Engine.bytes_transferred) /. 1024.0, "KB");
  ]

(* The traced ops' ledger: wall-clock self times of the phases one op
   goes through, plus the unattributed residual, each a per-op mean, so
   the lines sum to the mean op time. Splice is an invocation round minus
   the service call itself (parameter serialization, result projection,
   splice and view patch, the strategy's hook); sweep is the rest of the
   eval.run span outside detection, rounds and answers (layering,
   independence tests, push-pattern derivation). *)
let ledger traced =
  let line f = mean_of f traced in
  let sp s = Option.get s.spans in
  let named =
    [
      ("xml.parse_ms", line (fun s -> ms s.op.parse_s));
      ("doc.build_ms", line (fun s -> ms s.op.build_s));
      ("doc.view_build_ms", line (fun s -> ms s.op.view_s));
      ("engine.prepare_ms", line (fun s -> ms (sp s).prepare_s));
      ("query.match_ms", line (fun s -> ms (sp s).detect_s));
      ("engine.invoke_ms", line (fun s -> ms s.op.invoke_s));
      ("engine.splice_ms", line (fun s -> ms ((sp s).rounds_s -. s.op.invoke_s)));
      ("engine.answer_ms", line (fun s -> ms (sp s).answer_s));
      ( "engine.sweep_ms",
        line (fun s ->
            let p = sp s in
            ms (p.eval_s -. p.detect_s -. p.rounds_s -. p.answer_s)) );
    ]
  in
  let op_ms = line (fun s -> ms s.op.op_s) in
  let unattributed = op_ms -. List.fold_left (fun acc (_, v) -> acc +. v) 0.0 named in
  (op_ms, named @ [ ("ledger.unattributed_ms", unattributed) ])

let layer_metrics env ~calib out =
  let traced = List.filter (fun s -> s.spans <> None) out.samples in
  let plain = List.filter (fun s -> s.spans = None) out.samples in
  let op_ms, lines = ledger traced in
  Printf.printf "ledger over %d traced ops (mean ms per op):\n" (List.length traced);
  List.iter
    (fun (name, v) -> Printf.printf "  %-24s %9.3f  %5.1f%%\n" name v (100.0 *. v /. op_ms))
    lines;
  Printf.printf "  %-24s %9.3f  (sum of the lines above)\n" "ledger.op_ms" op_ms;
  let count f = mean_of (fun s -> float_of_int (f s.op.report)) traced in
  let full = List.fold_left (fun a s -> a + s.op.report.Engine.full_nodes) 0 traced in
  let kept = List.fold_left (fun a s -> a + s.op.report.Engine.projected_nodes) 0 traced in
  let p50 samples = median (List.map (fun s -> s.op.op_s) samples) in
  let nops = float_of_int (max 1 (List.length out.samples)) in
  List.map (fun (name, v) -> (name, v, "ms")) lines
  @ [
      ("ledger.op_ms", op_ms, "ms");
      ("doc.view_patch_nodes", count (fun r -> r.Engine.view_rebuild_nodes), "count");
      ("core.relevance_evals", count (fun r -> r.Engine.relevance_evals), "count");
      ("core.passes", count (fun r -> r.Engine.passes), "count");
      ("core.layers", count (fun r -> r.Engine.layer_count), "count");
      ("core.analysis_ms", mean_of (fun s -> ms s.op.report.Engine.analysis_seconds) traced, "ms");
      ("engine.rounds", count (fun r -> r.Engine.rounds), "count");
      ( "engine.residual_ms",
        mean_of
          (fun s -> ms (s.op.run_s -. s.op.report.Engine.analysis_seconds -. s.op.invoke_s))
          traced,
        "ms" );
      ( "project.kept_frac",
        (if full = 0 then 1.0 else float_of_int kept /. float_of_int full),
        "ratio" );
      ("net.invoke_us", median (Float.Array.to_list out.call_s) *. 1e6, "us");
      ("net.server_cpu_ms", ms out.server_cpu_s /. nops, "ms");
      ("net.server_rss_mb", server_stat env peak_rss_mb, "MB");
      ("runtime.alloc_mb", mean_of (fun s -> s.alloc_b /. 1048576.0) plain, "MB");
      ("runtime.major_gcs", mean_of (fun s -> float_of_int s.major) plain, "count");
      ("obs.trace_overhead_frac", (p50 traced /. p50 plain) -. 1.0, "ratio");
      ("host.calib_ms", calib, "ms");
    ]

(* A metric that could not be measured (no sample to take it from)
   makes the run incorrect; JSON has no NaN, so it prints as 0. *)
let print_result ~correct ~attempted ~failed metrics =
  let correct = correct && List.for_all (fun (_, v, _) -> Float.is_finite v) metrics in
  let m =
    List.map
      (fun (name, v, unit) ->
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name
          (if Float.is_finite v then v else 0.0)
          unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    attempted failed (String.concat ", " m)

(* ------------------------------------------------------------------ *)

(* The set-up checks: every set-up pinned the same fingerprints (those of
   the last one's warm-up reports), which match naive materialization
   and, for peer, the in-process evaluation. *)
let oracles wl env ~warm ~setups =
  let pinned = Array.map fingerprint warm in
  [
    ("every set-up pins the same fingerprints", List.for_all (fun (_, f) -> f = pinned) setups);
    ( "lazy answers are a non-empty subset of naive answers",
      Array.for_all2 naive_check env.insts warm );
    ("every evaluation completes", Array.for_all (fun (f : fingerprint) -> f.complete) pinned);
  ]
  @
  if wl.remote then
    [
      ( "remote fingerprint equals the in-process one",
        Array.for_all2
          (fun inst f ->
            let local = run_op wl inst ~obs:Obs.null in
            Registry.reset_history inst.registry;
            fingerprint local.report = f)
          env.locals pinned );
    ]
  else []

let main wl ~seed ~seconds ~trace ~max_ops =
  (* Set up [setup_reps] times and report the median; keep the last. *)
  let rec reps i acc =
    let t0 = now () in
    let env, warm = setup wl ~seed in
    let dt = now () -. t0 in
    let acc = (dt, Array.map fingerprint warm) :: acc in
    if i + 1 < setup_reps then begin
      teardown env;
      reps (i + 1) acc
    end
    else (env, warm, acc)
  in
  let env, warm, setups = reps 0 [] in
  let checks =
    try oracles wl env ~warm ~setups
    with e ->
      teardown env;
      raise e
  in
  (* [warm] holds every document through its answers: it must not stay
     live while the timed ops run *)
  let pinned = Array.map fingerprint warm in
  Fun.protect
    ~finally:(fun () -> teardown env)
    (fun () ->
      let setup_s = median (List.map fst setups) in
      List.iter
        (fun (what, ok) -> Printf.printf "oracle: %s: %s\n" what (if ok then "ok" else "FAILED"))
        checks;
      let calib_before = calib_ms () in
      let out = measure wl env ~pinned ~seconds ~max_ops ~trace in
      let calib_after = calib_ms () in
      Printf.printf
        "%s seed %d: %d instance(s), set-up median %.4f s of %d, %d op(s) attempted, %d failed \
         (error rate %.4f), host calibration %.3f -> %.3f ms\n"
        wl.name seed instances setup_s setup_reps out.attempted out.failed
        (float_of_int out.failed /. float_of_int (max 1 out.attempted))
        calib_before calib_after;
      let peak_mb = peak_rss_mb "self" +. server_stat env peak_rss_mb in
      let metrics =
        if trace then layer_metrics env ~calib:((calib_before +. calib_after) /. 2.0) out
        else e2e_metrics ~setup_s ~peak_mb out
      in
      let correct = List.for_all snd checks && out.failed = 0 && out.samples <> [] in
      print_result ~correct ~attempted:out.attempted ~failed:out.failed metrics;
      correct)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 0.0 and trace = ref 0 and ops = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME scan | rewrite | peer");
      ("--seed", Arg.Set_int seed, "N input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S measure for at least S seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or the per-layer ledger (1)");
      ("--ops", Arg.Set_int ops, "N run exactly N timed ops instead (self-check)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench --workload NAME [--seed N] (--seconds S | --ops N) [--trace 0|1]";
  let fail msg =
    prerr_endline msg;
    exit 2
  in
  match List.find_opt (fun w -> w.name = !workload) workloads with
  | None -> fail ("unknown workload " ^ !workload)
  | Some wl ->
    if !trace <> 0 && !trace <> 1 then fail "--trace takes 0 or 1";
    if !seconds <= 0.0 && !ops <= 0 then fail "give --seconds S or --ops N";
    let ok =
      main wl ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
        ~max_ops:(if !ops > 0 then Some !ops else None)
    in
    exit (if ok then 0 else 1)
