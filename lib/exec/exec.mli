(** A bounded worker thread pool: the execution layer that makes the
    §4.4 parallel-invocation strategy true on the wall clock.

    The evaluator has always {e accounted} a parallel batch as the max
    of its members' costs on the simulated clock; until this layer
    existed it still {e invoked} them one by one, so against real peers
    (PR 3) the wall clock disagreed with the simulation by the full sum
    of the latencies. {!map_batch} closes that gap: the batch members
    run concurrently on pool threads and the call returns when all of
    them have finished.

    {b Runtime-lock caveat.} OCaml's [threads.posix] threads interleave
    compute under the runtime lock — they do not parallelize CPU work.
    They {e do} run concurrently through blocking I/O and sleeps
    ([Unix.sleepf], socket reads, connection dials release the lock),
    which is exactly where a Web-service workload spends its time: with
    [n] workers, [n] concurrent 50 ms calls cost ~50 ms of wall clock
    instead of [n * 50] ms. CPU-bound batches gain nothing; that is
    fine, the evaluator's CPU work (relevance analysis) stays on the
    caller's thread.

    The pool is safe for nested use: {!map_batch} never parks the
    calling thread while work remains — the caller is itself one of the
    executors — so a batch dispatched from inside another batch's worker
    cannot deadlock even when every pool thread is busy.

    One worker loop and one batch path serve two kinds of pool: the
    thread pools {!create} makes (behind [--jobs] and the server's
    request hand-off) and one process-wide domain pool
    ({!map_domains}, behind [--match-jobs]). Invocation workers stay
    threads: they spend their time blocked in service sleeps and
    sockets, and a pool sized to the cores could overlap no more calls
    than there are cores. *)

type pool

val default_jobs : unit -> int
(** [max 2 ncpus] — the CLI [--jobs 0] ("auto") value. *)

val create : ?jobs:int -> unit -> pool
(** [jobs] (default {!default_jobs}) is the maximum number of batch
    members executing concurrently, the calling thread included; it is
    clamped to at least 1. [jobs = 1] spawns no threads at all and makes
    {!map_batch} run inline — byte-for-byte the sequential evaluator. *)

val jobs : pool -> int

val map_batch : pool -> ('a -> 'b) -> 'a list -> 'b list
(** [map_batch pool f xs] applies [f] to every element of [xs], up to
    [jobs pool] concurrently, and returns the results {b in input
    order}. Every element is processed exactly once, even when some
    raise. If any application raised, the exception of the
    {e lowest-index} failing element is re-raised after the whole batch
    has been joined — deterministic regardless of scheduling, and no
    work is silently dropped. Empty and singleton batches, and pools
    with [jobs = 1], run inline on the calling thread. *)

val async : pool -> (unit -> unit) -> unit
(** [async pool task] enqueues [task] for a pool thread and returns
    immediately; exceptions escaping [task] are swallowed. Used by the
    event-loop server to hand decoded requests off its loop thread.
    Beware the pool's counting: the calling thread is one of the [jobs]
    executors, so a pool intended to run [n] async tasks concurrently
    without the caller's help needs [jobs = n + 1]. On a stopped pool
    (or one with [jobs = 1], which has no threads) the task runs inline. *)

val shutdown : pool -> unit
(** Stops the worker threads and joins them. Idempotent. Batches already
    dispatched complete first; calling {!map_batch} afterwards runs
    inline. *)

val map_domains : ('a -> 'b) -> 'a list -> 'b list
(** [map_domains f xs] is {!map_batch} on the process-wide {e domain}
    pool: the same worker loop, claim, join and lowest-index re-raise,
    but its workers are domains, which run on separate cores, so
    {b CPU-bound} work genuinely parallelizes — the substrate for the
    intra-document match fan-out ([--match-jobs]). [f] must only touch
    domain-safe state (immutable snapshot views, its own tables).

    The pool has [Domain.recommended_domain_count () - 1] worker
    domains, the caller being the remaining executor; at most
    [length xs - 1] of them help with one batch. It starts on the first
    batch of two or more elements, never at module initialisation (OCaml
    5's [Unix.fork] fails once a domain has been spawned), lives for the
    rest of the process and is joined at exit. Concurrent callers share
    it; each drains its own batch, so none can starve. Empty and
    singleton batches, and single-core machines, run inline. *)
