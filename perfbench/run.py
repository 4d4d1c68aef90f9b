#!/usr/bin/env python3
"""Build and run the repository's benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload scan --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-check

The first form builds perfbench/bench.exe from source (dune, release
profile, build directory .bench_build) and runs one workload; --seconds
defaults to run_seconds in BENCHMARK.json. The last line of standard
output is the JSON result: the end-to-end metrics with --trace 0, the
per-layer ledger with --trace 1.

--self-check runs every workload for a few ops on the default seed and on
a held-out seed, in both trace modes, and validates each result's shape
against BENCHMARK.json: the metric names and units, a correct run with no
failed op, and a ledger with no negative line and little unattributed.
"""

import argparse
import json
import math
import os
import signal
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919  # never used while the benchmark was tuned
RUN_TIMEOUT_S = 170
LEDGER = [
    "xml.parse_ms",
    "doc.build_ms",
    "doc.view_build_ms",
    "engine.prepare_ms",
    "query.match_ms",
    "engine.invoke_ms",
    "engine.splice_ms",
    "engine.answer_ms",
    "engine.sweep_ms",
    "ledger.unattributed_ms",
]
LEDGER_SLACK = 0.05  # share of op time a ledger line may stray below 0, or stay unattributed


def build():
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(need):
            sys.exit(f"perfbench: {need} not found; run from the root of a full checkout")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", "perfbench/bench.exe"]
    # no shared build cache: the build reads and writes inside the checkout
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        # dune's own output must not end up after the result line
        done = subprocess.run(cmd, stdout=sys.stderr, env=env)
    except FileNotFoundError:
        sys.exit("perfbench: dune is not on PATH")
    if done.returncode != 0:
        sys.exit(f"perfbench: build failed ({done.returncode})")


def stop_group(pgid):
    """Kills whatever is left in the process group (a peer server whose
    parent died) and waits until the group is empty."""
    for _ in range(100):
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_bench(args, capture=False):
    """Runs bench.exe in its own process group, so that the peer server it
    forks is stopped with it whatever happens."""
    proc = subprocess.Popen([EXE] + args, process_group=0,
                            stdout=subprocess.PIPE if capture else None, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        proc.communicate()
        sys.exit(f"perfbench: {' '.join(args)} timed out")
    finally:
        stop_group(proc.pid)
    return proc.returncode, out


def check_result(line, expected, ops, trace):
    problems = []
    res = json.loads(line)
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"keys {sorted(res)}")
    if res.get("correct") is not True:
        problems.append("correct is not true")
    if res.get("failed") != 0:
        problems.append(f"failed = {res.get('failed')}")
    if res.get("attempted") != ops:
        problems.append(f"attempted = {res.get('attempted')}, expected {ops}")
    metrics = res.get("metrics", {})
    if set(metrics) != set(expected):
        diff = sorted(set(metrics) ^ set(expected))
        problems.append(f"metrics {diff} differ from BENCHMARK.json")
    for name, unit in expected.items():
        m = metrics.get(name, {})
        if m.get("unit") != unit:
            problems.append(f"{name}: unit {m.get('unit')!r}, expected {unit!r}")
        v = m.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            problems.append(f"{name}: value {v!r}")
    if trace and not problems:
        # the residual is op time minus the other lines, so the sum holds by
        # construction; what can break is a span counted twice (a negative
        # line) or missed (a large residual)
        op = metrics["ledger.op_ms"]["value"]
        for name in LEDGER:
            v = metrics[name]["value"]
            if v < -LEDGER_SLACK * op:
                problems.append(f"{name} is negative: {v} ms")
        rest = metrics["ledger.unattributed_ms"]["value"]
        if abs(rest) > LEDGER_SLACK * op:
            problems.append(f"unattributed {rest} ms of {op} ms per op")
    return problems


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def self_check():
    spec = load_spec()
    units = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    ops = 6
    failures = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            for trace in (0, 1):
                args = ["--workload", workload, "--seed", str(seed),
                        "--trace", str(trace), "--ops", str(ops)]
                code, out = run_bench(args, capture=True)
                lines = out.strip().splitlines()
                problems = [f"exit code {code}"] if code != 0 else []
                if lines:
                    problems += check_result(lines[-1], units[trace], ops, trace)
                else:
                    problems.append("no output")
                failures += bool(problems)
                status = "ok" if not problems else "FAILED: " + "; ".join(problems)
                print(f"self-check {workload} seed {seed} trace {trace}: {status}")
    print("self-check: " + ("ok" if failures == 0 else f"{failures} failure(s)"))
    return 0 if failures == 0 else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float,
                   help="measuring time (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-check", action="store_true")
    a = p.parse_args()
    if not a.self_check and not a.workload:
        p.error("--workload is required")
    build()
    if a.self_check:
        return self_check()
    seconds = a.seconds if a.seconds is not None else load_spec()["run_seconds"]
    code, _ = run_bench(["--workload", a.workload, "--seed", str(a.seed),
                         "--seconds", str(seconds), "--trace", str(a.trace)])
    return code


if __name__ == "__main__":
    sys.exit(main())
