(** Model-based differential fuzzing over {!Axml_workload.Adversary}.

    Each iteration derives a {!case} from a single integer seed —
    hostile document family, strategy (naive or a named lazy one), jobs
    level, local or loopback-remote registry, push, memoization, fault
    schedule and invocation budget — and checks a fixed oracle battery
    against it:

    - {b subset}: answers ⊆ the fault-free naive reference (Def. 4's
      leniency — missing data loses bindings, never fabricates them);
    - {b complete-flag}: [complete] ⟹ answers equal the reference and
      no call failed; conversely, nothing failed and the budget was not
      exhausted ⟹ [complete];
    - {b budget}: [invoked <= budget], and the unbounded-recursion
      family is always cut incomplete;
    - {b jobs-determinism}: byte-identical serialized answers and every
      report field [Engine.differing] compares equal at jobs 1 and 4
      (remote registries skip the simulated clock, which is wall-clock
      for them);
    - {b match-jobs-determinism} (lazy only): the same at match-jobs 1
      and 4, minus [parallel_match_batches];
    - {b obs-transparency}: recording a full trace + metrics sink does
      not change the answers;
    - {b reconcile}: report ≡ [eval.*] metrics ≡ trace span rollups;
    - {b shared-context-determinism} (lazy only): a detection context
      shared across sweeps and kept across splices agrees with
      isolated per-detection contexts as jobs-determinism does (both
      arms without the F-guide, which never reads the shared context);
    - {b push-equivalence} (lazy only): push-on and push-off agree on
      answers, completeness and failure counts, and pushing never
      inflates local transfer bytes;
    - {b connection-state} (remote only): the jobs-1 arm against a
      server with neither {!Axml_net.Wire.cap_push_reuse} nor
      {!Axml_net.Wire.cap_labels} agrees on answers and on every report
      field as jobs-determinism does except [bytes_transferred], which
      the pattern slot and the label tables can only lower;
    - {b projection} (projected cases only): a run under type-based
      projection stays within the reference; when the unprojected twin
      completes, the projected run completes too with identical answer
      tuples and no more invocations; a complete projected run matches
      the reference exactly;
    - {b watchdog}: every arm terminates within a wall-clock deadline —
      a hang is reported as a failure instead of wedging the run;
    - {b crash}: any escaped exception is a failure.

    Sharded and replicated cases (see {!case.shards} and
    {!case.replicate}) run their non-reference arms through an
    {!Axml_sched.Sched} dispatch, so every oracle above doubles as a
    routing-invisibility check: the scheduler may move calls between
    shards but must never change answers, counters or fates.

    Failures are shrunk by a greedy deterministic pass (step to plain
    nfqa, drop the shared match memo and the match fan-out first, then the scheduler,
    remoteness, parallelism, push, memoization, faults; halve scale and
    budget) and reported with a one-line replay: because case
    derivation, generation and shrinking are all pure functions of the
    seed, re-running
    [axml fuzz --seed S --iters 1 --family F] reproduces the failure
    {e and} re-derives the same shrunk instance. *)

module Adversary = Axml_workload.Adversary

type case = {
  case_seed : int;
  family : Adversary.family;
  scale : int;
  lazy_strategy : bool;  (** lazy NFQA; otherwise naive materialization *)
  jobs : int;  (** worker-pool width of the primary arm: 1 or 4 *)
  remote : bool;  (** serve the registry over a loopback TCP peer *)
  push : bool;  (** primary lazy arm ships sub-queries provider-side *)
  memoize : bool;
  fault_rate : float;
  fault_permanent : bool;
  max_retries : int;
  budget : int;  (** [max_calls] for every non-reference arm *)
  project : bool;
      (** run every non-reference arm under type-based projection
          (schema-backed, see {!Axml_project.Project}) and check the
          projected≡full oracle against an unprojected twin *)
  shards : int;
      (** 1 (no scheduler) or 2 — route every non-reference local arm
          through an {!Axml_sched.Sched} dispatch with the service names
          statically split over two shards of the one registry *)
  replicate : bool;
      (** route through two local replicas — the instance's registry
          plus a twin regenerated from the same config, so both draw
          identical fault fates; forces [memoize] off (split caches
          would legitimately diverge from the unsharded arm) *)
  wire_binary : bool;
      (** remote cases only: negotiate the binary frame codec
          ({!Axml_net.Wire.cap_binary}) instead of pinning JSON; every
          remote case additionally checks the binary ≡ JSON
          wire-equivalence oracle with both codecs at jobs = 1 *)
  match_jobs : int;
      (** intra-document match/detect fan-out of the primary lazy arm:
          1 or 4 (always 1 for naive); every lazy case additionally
          checks the parallel ≡ sequential matching oracle with both
          levels at jobs = 1 *)
  share_contexts : bool;
      (** lazy cases only: the primary arms share one evaluation context
          across detection sweeps, kept in sync across splices; every
          lazy case additionally checks the shared ≡ isolated context
          oracle with both settings at jobs = 1 *)
  fguide : bool;
      (** lazy cases only: every lazy arm takes its detection candidates
          from the F-guide and keeps those its relevance query retrieves
          by anchored matching (§6.2); detection then uses no shared
          context, and at match-jobs 4 the candidate filter fans out *)
  lazy_base : string;
      (** lazy cases only: the {!Axml_core.Lazy_eval.named} configuration
          every lazy arm starts from (nfqa, nfqa-typed, nfqa-lenient or
          lpq), run with the instance's schema; naive cases keep
          ["nfqa"], unread *)
}

val case_of_seed : int -> case
(** Pure: the same seed always derives the same case. *)

val case_to_string : case -> string
val replay_hint : case -> string
(** The one-line [axml fuzz] invocation reproducing this case. *)

type failure = { oracle : string; detail : string }

val check : ?watchdog:float -> case -> failure option
(** Runs the full oracle battery on one case. [watchdog] (default 30
    wall-clock seconds) bounds every evaluation arm. *)

type fail_report = {
  failed_case : case;
  first_failure : failure;
  shrunk_case : case;
  shrunk_failure : failure;
  shrunk_xml : string;  (** the shrunk instance's document, pretty-printed *)
}

type report = {
  iterations : int;  (** iterations completed, the failing one included *)
  failure : fail_report option;
}

val run :
  ?watchdog:float ->
  ?log:(string -> unit) ->
  ?family:Adversary.family ->
  seed:int ->
  iters:int ->
  unit ->
  report
(** Iteration [i] checks [case_of_seed (seed + i)] (with [family]
    forced when given) and stops at the first failure, shrunk. [log]
    receives one progress line per iteration. *)
