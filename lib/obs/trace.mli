(** Span-based tracing for the evaluators and the service substrate.

    A {e span} is a named interval with typed attributes, opened and
    closed on two clocks at once: the {b wall clock} (real seconds, for
    analysis cost) and the {b simulated clock} (the cost-model seconds
    the experiments report, see {!Axml_services.Registry}). Spans nest:
    the span opened while another is open becomes its child, giving each
    evaluation a tree — layers contain passes, passes contain rounds,
    rounds contain invocations, invocations contain wire attempts.

    The sink is cheap to pass and free to ignore: {!null} is disabled,
    records nothing, and every operation on it returns immediately, so
    instrumented code takes a [?trace] argument defaulting to {!null}
    and pays one branch when tracing is off. Guard any expensive
    attribute construction with {!enabled}.

    Recorded traces serialize to two formats: JSONL (one event object
    per line, exact) and Chrome [trace_event] JSON — load the latter in
    [chrome://tracing] or {{:https://ui.perfetto.dev}Perfetto}, where
    the wall and simulated clocks appear as two named threads. Both
    formats load back with {!load_file} for offline pretty-printing. *)

type attr = Str of string | Int of int | Float of float | Bool of bool

type kind = Open | Close | Instant

type event = {
  kind : kind;
  id : int;  (** span id; a [Close] carries its [Open]'s id *)
  parent : int;  (** enclosing span id, [-1] at top level *)
  name : string;
  cat : string;  (** coarse grouping: ["eval"], ["service"], … *)
  wall : float;  (** wall seconds since the sink was created *)
  sim : float;  (** simulated clock at the event *)
  attrs : (string * attr) list;
}

type t
(** A sink: either disabled ({!null}) or recording. *)

val null : t
(** The no-op sink: {!enabled} is [false], nothing is recorded. *)

val create : ?clock:(unit -> float) -> unit -> t
(** A recording sink. [clock] (default [Unix.gettimeofday]) is sampled
    at every event; wall times are stored relative to creation. *)

val enabled : t -> bool

(** {2 The simulated clock}

    The sink does not compute simulated time — the instrumented code
    does (batch aggregation lives in the evaluator) and keeps the sink's
    clock posted. [advance] is a no-op on a disabled sink. *)

val advance : t -> float -> unit
(** Adds simulated seconds (e.g. one attempt's duration). *)

val sim_now : t -> float

(** {2 Spans} *)

type span
(** A handle to an open span; meaningless once closed. *)

val none : span
(** The handle returned by disabled sinks; closing it is a no-op. *)

val open_span : t -> ?cat:string -> ?attrs:(string * attr) list -> string -> span

val close_span : t -> ?attrs:(string * attr) list -> span -> unit
(** [attrs] given at close are merged with the open's (close wins on
    duplicate keys) — measured results land here. Spans must close in
    LIFO order; {!well_formed} verifies it. *)

val with_span : t -> ?cat:string -> ?attrs:(string * attr) list -> string -> (unit -> 'a) -> 'a
(** Opens, runs, closes — the span is closed even if the function
    raises (the exception is re-raised). *)

val instant : t -> ?cat:string -> ?attrs:(string * attr) list -> string -> unit
(** A zero-duration event. *)

val events : t -> event list
(** Everything recorded so far, in chronological order. *)

(** {2 Concurrency}

    Every operation on a sink is guarded by an internal mutex, so spans
    and instants may be recorded from multiple threads. Interleaving
    opens from concurrent threads directly into one sink would still
    break the LIFO span algebra, though — concurrent workers should
    record into a {!fragment} each and have the coordinating thread
    {!absorb} them after the join. *)

val fragment : t -> t
(** A fresh, empty sink sharing the parent's wall-clock epoch and
    starting at the parent's current simulated time — what one member
    of a concurrent batch records into. [fragment null] is {!null}. *)

val absorb : t -> t -> unit
(** [absorb parent frag] splices everything [frag] recorded into
    [parent], as children of the span currently open in [parent]
    (top-level if none). Span ids are renumbered, and both clocks are
    clamped to the running maximum of the merged sequence so it stays
    monotone; absorbing the fragments of a batch in order therefore
    leaves the simulated clock at [base + max(member advances)] — the
    §4.4 parallel cost. Call it after the worker has finished, from one
    thread at a time; a fragment must be absorbed at most once. No-op
    on disabled sinks and empty fragments. *)

val well_formed : t -> (unit, string) result
(** Checks span algebra over {!events}: every [Close] matches the most
    recently opened still-open span, no span closes twice, every
    non-root event's parent is open (and on top of the stack) when the
    event fires, clocks are monotone along the event sequence, and
    nothing is left open. *)

(** {2 Serialization} *)

val to_chrome : t -> Json.t
(** Chrome [trace_event] JSON ([{"traceEvents": [...]}]): duration
    events ([ph:"B"]/[ph:"E"]) in microseconds on two threads — tid 1
    is the wall clock, tid 2 the simulated clock — with attributes (and
    the other clock's reading) under [args]. Open spans are closed at
    the last recorded time so partial traces still load. *)

val write_jsonl : string -> t -> unit
val write_chrome : string -> t -> unit

(** {2 Offline analysis} *)

type node = {
  node_name : string;
  node_cat : string;
  node_attrs : (string * attr) list;
  wall_start : float;
  wall_end : float;
  sim_start : float;
  sim_end : float;
  children : node list;
}

val tree : t -> (node list, string) result
(** The span forest of a recording sink (requires well-formedness). *)

val load_file : string -> (node list, string) result
(** Loads a saved trace — Chrome [trace_event] (an object with a
    [traceEvents] field, or a bare event array) or JSONL — back into a
    span forest. *)

val pp_forest : Format.formatter -> node list -> unit
(** Pretty-prints the forest as an indented tree, one line per span:
    name, inline attributes, wall/simulated durations, and rollups
    (descendant span count; summed [bytes] attributes when present). *)

val rollup_int : string -> node -> int
(** Sums an [Int] attribute over a node and all its descendants. *)
