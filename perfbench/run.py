#!/usr/bin/env python3
"""Runs one benchmark workload and prints its metrics.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. The first call builds the runner from source
(CMake, Release) into .bench_build/; later calls only re-check the build.

A run is one fresh perfbench_runner process, so peak RSS is the run's own.
The runner repeats the workload's rounds while another still fits in
--seconds (at least one always runs) and reports every end-to-end metric as
the median of its samples.

With --trace 1 the runner makes one traced round instead: it records spans
around the library calls, then re-issues single layers' calls ("probes"),
and reports the per-layer metrics. The spans are written as
Chrome trace-event JSON under .bench_build/traces/ (open in Perfetto or
chrome://tracing), and a per-span self-time table goes to stderr.

Before the result, one JSON line records the machine and build (cores,
compiler, build type, commit or source digest, seed). The last line of
stdout is the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
Any build failure or crash exits non-zero without printing a result.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build"
RUNNER = BUILD_DIR / "perfbench_runner"
DEADLINE_S = 170  # the whole script must end within 180 s

# Per-layer metrics each workload exercises. The others are reported as 0:
# that layer does no work in that workload.
SOLVER_LAYERS = [
    "candidates.leaf_build_s", "candidates.edges",
    "filter_assign.root_s", "filter_assign.root_lp_calls",
    "filter_assign.root_dual_pivots", "filter_assign.root_final_g",
    "slp.lp_calls", "slp.slp1_invocations", "slp.budget_exhausted",
    "flow.root_s", "flow.repair_s", "flow.repair_rows", "flow.repair_beta",
    "flow.repair_load_feasible", "adjust_s",
]
SETUP_LAYERS = ["workload.gen_s", "network.tree_s", "trace.overhead_pct"]
LAYERS = {
    "slp-grid-100k": SETUP_LAYERS + SOLVER_LAYERS,
    "route-grid-100k": SETUP_LAYERS + [
        "match.sub_index_build_s", "match.broker_index_build_s",
        "match.probe_s", "match.matches", "sim.batch_s",
        "sim.messages_per_event", "sim.wasted_leaf_hits",
    ],
    "churn-grid-20k": SETUP_LAYERS + [
        "dynamic.add_total_s", "dynamic.admit_p50_us",
        "dynamic.admit_p99_us", "dynamic.escalation_scans",
        "dynamic.cost_evals", "repair.orphaned", "repair.repaired",
        "repair.degraded_placed", "liveness.heartbeats_sent",
        "liveness.false_suspicions", "liveness.lease_expirations",
        "liveness.reconnects", "replay.missed_undetected",
        "match.live_index_build_s",
    ],
    "agg-gg-100k": SETUP_LAYERS + SOLVER_LAYERS + [
        "agg.build_s", "agg.aggregates", "agg.compression_ratio",
        "agg.repair_moves", "agg.cert_infeasible", "agg.load_feasible",
    ],
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg):
    log(f"perfbench: {msg}")
    sys.exit(1)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT}/src")
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                      str(BUILD_DIR), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "perfbench_runner", "-j", jobs])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")


def machine(seed):
    """The record every result carries: where and what was measured."""
    commit = None
    try:
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0:
            commit = r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        for path in sorted((ROOT / base).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return {"cores": os.cpu_count(), "commit": commit,
            "source_sha256": digest.hexdigest()[:16], "seed": seed}


def run_runner(workload, seed, traced, seconds, started):
    remaining = DEADLINE_S - (time.monotonic() - started)
    cmd = [str(RUNNER), workload, str(seed), "1" if traced else "0",
           str(max(0.0, seconds - (time.monotonic() - started)))]
    try:
        r = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=remaining)
    except subprocess.TimeoutExpired:
        fail(f"run of {workload} exceeded the time limit")
    sys.stderr.write(r.stderr)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        fail(f"runner exited with {r.returncode}")
    return json.loads(lines[-1])


def self_times(spans):
    """Per span name: total and self seconds. Spans are recorded from one
    thread, so children never overlap and self = duration - sum(children)."""
    child = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    table = {}
    for i, (name, parent, start, end) in enumerate(spans):
        total, own = table.get(name, (0.0, 0.0))
        table[name] = (total + end - start, own + end - start - child[i])
    return table


def write_trace(rep, meta, workload, seed):
    out = BUILD_DIR / "traces" / f"{workload}-seed{seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    events = [{"name": name, "ph": "X", "pid": 1, "tid": 1,
               "ts": start * 1e6, "dur": (end - start) * 1e6,
               "args": {"parent": parent}}
              for name, parent, start, end in rep["spans"]]
    events += [{"name": k, "ph": "C", "pid": 1, "ts": 0, "args": {"value": v}}
               for k, v in rep["layer"].items()]
    out.write_text(json.dumps({"traceEvents": events,
                               "otherData": {**meta, "workload": workload}}))
    log(f"trace written to {out}")
    log(f"{'span':32} {'total_s':>10} {'self_s':>10}")
    for name, (total, own) in self_times(rep["spans"]).items():
        log(f"{name:32} {total:10.4f} {own:10.4f}")


def counters_repeat(rep, meta, workload):
    """Deterministic work counters must repeat exactly for one seed: every
    occurrence in this run (one per round), and those an earlier run of the
    same code recorded under .bench_build/counters/."""
    record = BUILD_DIR / "counters" / f"{workload}-seed{meta['seed']}.json"
    seen = {}
    if record.is_file():
        old = json.loads(record.read_text())
        if old["source_sha256"] == meta["source_sha256"]:
            seen = old["counters"]
    ok = True
    for key, value in rep["counters"]:
        if key in seen and seen[key] != value:
            log(f"counter {key} does not repeat: {seen[key]!r} vs {value!r}")
            ok = False
        seen.setdefault(key, value)
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps({"source_sha256": meta["source_sha256"],
                                  "counters": seen}))
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(LAYERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    build()
    started = time.monotonic()
    meta = machine(args.seed)

    rep = run_runner(args.workload, args.seed, bool(args.trace),
                     args.seconds, started)
    meta.update(compiler=rep["compiler"], build_type=rep["build_type"],
                pool_threads=rep["pool_threads"], rounds=rep["rounds"],
                samples={k: len(v) for k, v in rep["samples"].items()},
                workload=args.workload)
    print(json.dumps({"machine": meta}), flush=True)

    correct = counters_repeat(rep, meta, args.workload)
    for name, ok in rep["checks"].items():
        if not ok:
            log(f"check failed: {name}")
            correct = False
    attempted, failed = rep["attempted"], rep["failed"]
    correct = correct and failed == 0 and attempted > 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {}
    if args.trace:
        write_trace(rep, meta, args.workload, args.seed)
        layer = rep["layer"]
        for name in LAYERS[args.workload]:
            if name not in layer:
                log(f"per-layer metric {name} missing")
                correct = False
        for m in spec["per_layer"]:
            metrics[m["name"]] = {"value": layer.get(m["name"], 0),
                                  "unit": m["unit"]}
    else:
        for m in spec["end_to_end"]:
            name = m["name"]
            if name not in rep["e2e"]:
                log(f"end-to-end metric {name} missing")
                correct = False
            metrics[name] = {"value": rep["e2e"].get(name, 0),
                             "unit": m["unit"]}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)


if __name__ == "__main__":
    main()
