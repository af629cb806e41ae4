#!/usr/bin/env python3
"""Accordion benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds `perfbench/` (release, offline; the
target directory is $CARGO_TARGET_DIR, default `.bench_build`), then runs
the workload as fresh measurement processes so every process-wide cache
starts cold, as it does for a user. New processes start while the ones
so far, at their mean duration, leave room for one more within
--seconds (at least MIN_PROCESSES, or MIN_PAIRS pairs):

  reproduce   processes each regenerating all 29 artifacts
  explore     one process at 1 worker, then processes at nproc workers
              (the search report must be byte-identical in all)

With --trace 0 the result carries every end-to-end metric of
BENCHMARK.json (medians over the processes); with --trace 1 untraced and
traced processes alternate and the result carries every per-layer metric
(medians over the traced processes). The last stdout line is the result;
the line before it is a report with sample counts, digests and the
failures seen. See perfbench/README.md for what each metric means per
workload.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = ("reproduce", "explore")
MIN_PROCESSES = 3
MIN_PAIRS = 2
CHILD_TIMEOUT_S = 170
HERE = os.path.dirname(os.path.abspath(__file__))


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def spec():
    """Metric names and units, from BENCHMARK.json at the checkout root."""
    try:
        with open("BENCHMARK.json") as f:
            doc = json.load(f)
        return doc["end_to_end"], doc["per_layer"]
    except (OSError, ValueError, KeyError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def build():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(target, "release", "accordion-perfbench")


def child(binary, workload, seed, *flags):
    """Runs one measurement process; returns its record."""
    cmd = [binary, workload, "--seed", str(seed), *flags]
    try:
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{' '.join(cmd)} timed out")
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        fail(f"{' '.join(cmd)} exited {out.returncode}")
    return json.loads(lines[-1])["record"]


MIN_BEYOND = 10  # as perfbench/src/stats.rs


def percentile(samples, q):
    """Nearest-rank q-quantile, lowered until MIN_BEYOND samples lie
    above it (the rule of stats.rs). Returns (value, quantile used)."""
    s = sorted(samples)
    wanted = min(max(math.ceil(q * len(s)), 1), len(s)) - 1
    idx = min(wanted, max(len(s) - 1 - MIN_BEYOND, 0))
    return s[idx], q if idx == wanted else (idx + 1) / len(s)


def med(recs, key):
    return statistics.median(r[key] for r in recs)


def budgeted(deadline, minimum, step):
    """Calls step() at least `minimum` times, then while one more call
    of the mean duration so far ends before `deadline` (monotonic
    seconds); returns the results."""
    started = time.monotonic()
    out = []
    while True:
        now = time.monotonic()
        if len(out) >= minimum and now + (now - started) / len(out) > deadline:
            return out
        out.append(step())


def measure(binary, workload, seed, deadline):
    """Untraced run: returns (end-to-end values, all records, notes)."""
    notes = []
    recs = []
    if workload == "explore":
        recs.append(child(binary, workload, seed, "--jobs", "1"))
    recs += budgeted(deadline, MIN_PROCESSES,
                     lambda: child(binary, workload, seed))
    timed = recs[1:] if workload == "explore" else recs
    if workload == "explore":
        digests = {r["detail"]["report_digest"] for r in recs}
        if len(digests) != 1:
            notes.append(f"search reports differ across processes/worker counts: {sorted(digests)}")
    if len({r["input_digest"] for r in recs}) != 1:
        notes.append("processes generated different inputs for one seed")
    values = {k: med(timed, k) for k in ("wall_s", "max_rps", "peak_rss_mb")}
    values["setup_s"] = med(recs, "setup_s")
    # Operation latencies pooled over the processes: a process that ran
    # slow, or one noisy artifact, then moves its own samples and not
    # the rank every other process reports.
    pooled = [ms for r in timed for ms in r["detail"]["latency_ms"]]
    values["p50_ms"], values["p50_q"] = percentile(pooled, 0.50)
    values["p99_ms"], values["p99_q"] = percentile(pooled, 0.99)
    values["latency_n"] = len(pooled)
    for r in recs:
        del r["detail"]["latency_ms"]  # pooled above; too long for the report
    return values, recs, notes


def traced(binary, workload, seed, deadline):
    """Traced run: alternating untraced and traced processes. Returns
    (per-layer values, records, notes): each layer metric is its median
    over the traced processes, and the trace overhead the median of the
    pairs' traced ÷ untraced wall_s."""
    def pair():
        return (child(binary, workload, seed), child(binary, workload, seed, "--trace"))
    pairs = budgeted(deadline, MIN_PAIRS, pair)
    recs = [r for p in pairs for r in p]
    for r in recs:
        r["detail"].pop("latency_ms", None)
    names = {k for _, t in pairs for k in t["layers"]}
    layers = {k: statistics.median(t["layers"][k] for _, t in pairs if k in t["layers"])
              for k in names}
    layers["telemetry.trace_overhead"] = statistics.median(
        t["wall_s"] / u["wall_s"] for u, t in pairs)
    return layers, recs, []


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")
    end_to_end, per_layer = spec()
    binary = build()

    started = time.monotonic()
    deadline = started + args.seconds
    if args.trace:
        values, recs, notes = traced(binary, args.workload, args.seed, deadline)
        wanted = per_layer
    else:
        values, recs, notes = measure(binary, args.workload, args.seed, deadline)
        wanted = end_to_end
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        notes.append(f"missing metrics: {missing}")
    attempted = sum(int(r["attempted"]) for r in recs)
    failed = sum(int(r["failed"]) for r in recs) + len(notes)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "elapsed_s": time.monotonic() - started,
        "notes": notes,
        "values": values,
        "processes": recs,
    }
    print(json.dumps(report))
    result = {
        "correct": failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
