.PHONY: all build test test-xml test-faults test-obs test-net test-exec test-engine test-gen test-project test-sched test-view test-query test-wire-bin fuzz-smoke bench bench-e9-smoke bench-e11-smoke bench-e12-smoke bench-e13-smoke bench-e14-smoke examples doc clean trace-demo serve-demo

all: build

build:
	dune build @all

test:
	dune runtest --force

# XML parser/printer tests: parser units and golden cases (references
# at the edges of text runs, whitespace-only runs, CDATA beside text,
# error messages with their line and column), printer escapes, and the
# properties parse (print t) = t and computed byte_size = printed length
test-xml:
	dune exec test/test_xml.exe

# registry tests: the one retry loop over local and scripted remote
# providers (fault fates, timeouts, backoff, memoization), then the
# service-spec and registry suite
test-faults:
	dune exec test/test_faults.exe
	dune exec test/test_services.exe

test-obs:
	dune exec test/test_obs.exe

# loopback client/server integration tests: wire codec, handshake,
# remote invocation with pooling, degradation when the peer dies, and
# the city-guide E2E (identical answers, fewer wire calls, push bytes)
test-net:
	dune exec test/test_net.exe

# worker-pool tests: map_batch semantics on a thread pool and on the
# process-wide domain pool (order, lowest-index re-raise, inline small
# batches, concurrent fan-outs), plus the differential check that
# pooled evaluation is byte-identical to sequential
test-exec:
	dune exec test/test_exec.exe

# unified-engine tests: pre-refactor fixture differential (both
# strategies, jobs 1 and 4), report/metrics/trace reconciliation,
# single-flight memoization
test-engine:
	dune exec test/test_engine.exe

# shared-generator suites (test/gen.ml): adversary determinism, family
# shapes, the Def. 4 oracle on hostile instances, a small end-to-end
# fuzz run, and the wire garbage-rejection properties
test-gen:
	dune exec test/test_fuzz.exe
	dune exec test/test_net.exe

# type-based projection tests: keep/drop units, the projected ≡ full
# snapshot-answer property on schema-conforming instances, adversary
# and city differentials under faults
test-project:
	dune exec test/test_project.exe

# binary wire codec tests: the binary ≡ JSON differential round-trips
# (trees with whitespace-only leaves, patterns, every envelope), the
# 64 MiB max_frame rejection path, and codec negotiation end-to-end
# against binary-capable, JSON-pinned and pre-binary peers; then the
# push-reuse capability (golden marker frames, the marker on an empty
# slot, no marker without the capability), the max_depth nesting cap,
# and the labels capability (golden frames encoded twice on one table,
# the max_labels cap, references past the table's end, rollback after an
# oversize frame, and envelope sequences through one pair of tables ≡
# the table-free and JSON codecs)
test-wire-bin:
	dune exec test/test_net.exe -- test wire-binary

# distributed-scheduler tests: the sharded/replicated ≡ single-registry
# differential (answers, report, fault fates) at jobs 1 and 4,
# report/metrics/trace reconciliation through the scheduler, budget
# exhaustion, adaptive-vs-round-robin placement, and the mid-run
# replica-death failover
test-sched:
	dune exec test/test_sched.exe

# snapshot-view tests: index round-trips and invariants on random
# trees, incremental splice patching ≡ full rebuild across randomized
# splice sequences (empty forests included), the in-place gap-buffer
# patch under document, reverse and random splice orders, the
# parallel ≡ sequential matching property, a match memo kept across
# splices ≡ a fresh one (plus the reset on an unreported mutation or
# splice), and F-guide memoization on the generation counter; then the
# document suite, whose replace_call cases check the patched view
test-view:
	dune exec test/test_view.exe
	dune exec test/test_doc.exe

# query-evaluator tests: parser, the brute-force binding-set and
# witness-marking (marked pairs = union of embedding images) properties,
# and the candidate-anchored ≡ top-down properties that guard the label
# prefilter of anchored matching
test-query:
	dune exec test/test_query.exe

# the model-based differential fuzzer at a fixed seed: ~200 iterations
# of the full oracle battery over adversarial instances; exits nonzero
# on the first violation, printing the shrunk case and its replay seed
fuzz-smoke:
	dune exec bin/axml.exe -- fuzz --seed 7 --iters 200

# record a traced + measured run, then pretty-print the span tree;
# load /tmp/axml-demo.trace.json in chrome://tracing or ui.perfetto.dev
trace-demo:
	dune exec bin/axml.exe -- run --workload city \
	  --trace /tmp/axml-demo.trace.json \
	  --metrics /tmp/axml-demo.metrics.json \
	  --report-json /tmp/axml-demo.report.json
	dune exec bin/axml.exe -- trace /tmp/axml-demo.trace.json

# serve the weather spec on one terminal; evaluate against it from a
# second with:
#   ./_build/default/bin/axml.exe eval -d examples/data/weather.xml \
#     --connect 127.0.0.1:7342 --xml '/weather/tomorrow/sky!'
# (run the built binary, not `dune exec`, which would block on the
# build lock the serving side still holds)
serve-demo:
	dune build bin/axml.exe
	./_build/default/bin/axml.exe serve --services examples/data/weather.services.xml

bench:
	dune exec bench/main.exe

# the CI-sized E9: two loopback peers with injected latency, asserting
# that --jobs 4 beats --jobs 1 on the wall clock with identical answers
bench-e9-smoke:
	dune exec bench/main.exe -- e9smoke

# the CI-sized E11: skewed fan-out with and without the projector,
# asserting bytes were saved in-document and on the wire with
# byte-identical answers
bench-e11-smoke:
	dune exec bench/main.exe -- e11smoke

# the CI-sized E12: two loopback replicas with 5x skewed injected
# latency, asserting that adaptive placement beats static round-robin
# AND beats a single replica on the wall clock, with answers and
# invocation counts identical to the unsharded run
bench-e12-smoke:
	dune exec bench/main.exe -- e12smoke

# the CI-sized E13: one event-loop server, 64 raw concurrent
# connections on the city workload, asserting binary-framed answers
# byte-identical to JSON with strictly fewer wire bytes and
# binary wall <= JSON wall
bench-e13-smoke:
	dune exec bench/main.exe -- e13smoke

# the CI-sized E14: a ~20k-node skewed document swept at --match-jobs
# 1 and 4, always asserting byte-identical answers and counters; the
# jobs-4 arm runs its 4 chunks per pass on the persistent domain pool
# (one domain per core, started by the first fan-out), and the
# wall-clock speedup assertion additionally runs when the machine has
# at least two cores
bench-e14-smoke:
	dune exec bench/main.exe -- e14smoke

examples:
	dune exec examples/quickstart.exe
	dune exec examples/cityguide.exe
	dune exec examples/goingout.exe
	dune exec examples/pushdemo.exe
	dune exec examples/tooling.exe

doc:
	# requires odoc (opam install odoc)
	dune build @doc

clean:
	dune clean
