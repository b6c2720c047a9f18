#!/usr/bin/env python3
"""Build and run the iotscope benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload paper_batch --seed 7 --seconds 10 --trace 0
    python3 perfbench/run.py --all                 # every workload, seed 7
    python3 perfbench/run.py --compare OLD.jsonl NEW.jsonl

A run builds `perfbench/` (a Cargo package of its own) into
`$CARGO_TARGET_DIR` (default `.bench_build`), generates the workload's
inputs from the seed in a separate process (cached under `.bench_data/`,
keyed by kind, seed and a hash of the benchmark binary, so a change to
the generator or to the code it links regenerates them), then measures the workload in a fresh process. The last line on stdout is
the result: `{"correct", "attempted", "failed", "metrics"}`. Each result is
also appended, with its workload fingerprint, to
`.bench_results/results.jsonl`; a traced run writes its spans to
`.bench_results/trace-<workload>-s<seed>.jsonl`.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DATA_DIR = os.path.join(ROOT, ".bench_data")
RESULTS_DIR = os.path.join(ROOT, ".bench_results")
# Data sets kept per kind; older seeds are evicted (a year store is 348 MB).
KEEP_DATA_SETS = 3
# A run must end within 180 s; leave room for start-up and the result.
RUN_TIMEOUT_S = 170
WORKLOADS = {"paper_batch": "paper", "year_segments": "year", "paper_daemon": "paper"}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Build the benchmark binary; return its path, or None on failure."""
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    target = os.path.join(ROOT, target) if not os.path.isabs(target) else target
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        log("error: building the benchmark failed")
        return None
    return os.path.join(target, "release", "iotscope-perfbench")


def identity(binary):
    """A hash of the benchmark binary: the identity of the generator."""
    h = hashlib.sha256()
    with open(binary, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()[:16]


def ensure_data(binary, generator, kind, seed):
    """The data set for (kind, seed) written by this build, generated in
    its own process if missing."""
    path = os.path.join(DATA_DIR, f"{kind}-s{seed}-{generator}")
    if os.path.isfile(os.path.join(path, "meta.tsv")):
        os.utime(path)
        return path
    os.makedirs(DATA_DIR, exist_ok=True)
    stale = sorted(
        (d for d in os.listdir(DATA_DIR) if d.startswith(kind + "-s")),
        key=lambda d: os.path.getmtime(os.path.join(DATA_DIR, d)),
    )
    for d in stale[: max(0, len(stale) - (KEEP_DATA_SETS - 1))]:
        shutil.rmtree(os.path.join(DATA_DIR, d), ignore_errors=True)
    tmp = f"{path}.tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    try:
        proc = subprocess.run([binary, "gen", "--kind", kind, "--seed", str(seed),
                               "--generator", generator, "--out", tmp],
                              cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc = None
    if proc is None or proc.returncode != 0:
        shutil.rmtree(tmp, ignore_errors=True)
        return None
    os.rename(tmp, path)
    return path


def check_result(result, names):
    """Problems with a result line against the contract, as strings."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
        return problems
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        problems.append("failed must be a whole number >= 0")
    got = set(result["metrics"])
    if got != set(names):
        problems.append(f"metrics missing {sorted(set(names) - got)}, extra {sorted(got - set(names))}")
    for name, m in result["metrics"].items():
        v = m.get("value")
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
            problems.append(f"metric {name} has no finite value")
    return problems


def run_once(workload, seed, seconds, trace, spec):
    binary = build()
    if binary is None:
        return 1
    # Only the first run in a checkout builds; the time limit counts from
    # here.
    started = time.monotonic()
    generator = identity(binary)
    path = ensure_data(binary, generator, WORKLOADS[workload], seed)
    if path is None:
        log("error: generating the inputs failed")
        return 1
    os.makedirs(RESULTS_DIR, exist_ok=True)
    trace_out = os.path.join(RESULTS_DIR, f"trace-{workload}-s{seed}.jsonl")
    cmd = [binary, "run", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--data", path, "--generator", generator]
    if trace:
        bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "analyze_1t_s")
        cmd += ["--trace-out", trace_out, "--waterfall-bound", str(bound)]
    budget = RUN_TIMEOUT_S - (time.monotonic() - started)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=budget)
    except subprocess.TimeoutExpired:
        log(f"error: the measured run did not end within {budget:.0f} s")
        return 1
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or len(lines) < 3:
        log(f"error: the measured run exited with {proc.returncode}")
        return 1
    detail = json.loads(lines[-3])["detail"]
    fingerprint = json.loads(lines[-2])["fingerprint"]
    result = json.loads(lines[-1])
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    problems = check_result(result, names)
    if problems:
        for p in problems:
            log("error: " + p)
        return 1
    ordered = {n: result["metrics"][n] for n in names}
    result["metrics"] = ordered
    with open(os.path.join(RESULTS_DIR, "results.jsonl"), "a") as f:
        f.write(json.dumps({"fingerprint": fingerprint, "trace": trace, "result": result,
                            "detail": detail}) + "\n")
    log(f"{workload} seed {seed}: correct={result['correct']} attempted={result['attempted']} "
        f"failed={result['failed']}")
    if not trace:
        for n, m in ordered.items():
            log(f"  {n:<22} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(result), flush=True)
    return 0


def load_rows(path):
    rows = []
    with open(path) as f:
        for line in f:
            if line.strip():
                rows.append(json.loads(line))
    return rows


def compare(old_path, new_path, spec):
    """Compare two result sets, workload by workload, on the untraced rows.

    A row is compared only with rows of the same fingerprint (workload,
    seed, scenario config, store bytes, records, hours, nproc). A NEW row
    whose fingerprint has no counterpart in OLD is refused, and any
    refusal fails the comparison (exit 2). OLD rows without a counterpart
    in NEW (other seeds of a baseline) are left unused."""
    bounds = spec["end_to_end"]
    sides = {}
    for side, path in (("old", old_path), ("new", new_path)):
        for r in load_rows(path):
            if not r["trace"]:
                key = json.dumps(r["fingerprint"], sort_keys=True)
                sides.setdefault(key, {"old": [], "new": []})[side].append(r)
    refused = [k for k, g in sides.items() if not g["old"]]
    unused = [k for k, g in sides.items() if not g["new"]]
    for k in sorted(refused):
        print(f"REFUSED: no OLD row has the fingerprint of this NEW row: {k}")
    if unused:
        print(f"{len(unused)} OLD fingerprints have no NEW row and are not used")
    by_workload = {}
    for k, g in sides.items():
        if k not in refused and k not in unused:
            w = json.loads(k)["workload"]
            for side in ("old", "new"):
                by_workload.setdefault(w, {"old": [], "new": []})[side].extend(g[side])
    for workload, g in sorted(by_workload.items()):
        print(f"{workload}: {len(g['old'])} old rows, {len(g['new'])} new rows")
        for m in bounds:
            name = m["name"]
            values = [[r["result"]["metrics"][name]["value"] for r in g[side]
                       if name in r["result"]["metrics"]] for side in ("old", "new")]
            if not values[0] or not values[1]:
                print(f"  {name:<20} not measured on both sides")
                continue
            a, b = (statistics.median(v) for v in values)
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            verdict = ("regressed" if worse > m["bound"]
                       else "improved" if worse < -m["bound"] else "within bound")
            print(f"  {name:<20} {a:>12.6g} -> {b:>12.6g} {m['unit']:<5} "
                  f"{0.0 - worse:+7.1%} better (bound {m['bound']:.0%}): {verdict}")
    return 2 if refused else 0


def main():
    spec = benchmark_spec()
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--all", action="store_true", help="run every workload in turn")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = ap.parse_args()
    if args.compare:
        return compare(args.compare[0], args.compare[1], spec)
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must not be negative")
    if args.all:
        status = 0
        for w in [w["name"] for w in spec["workloads"]]:
            status |= run_once(w, args.seed, args.seconds, args.trace, spec)
        return status
    if not args.workload:
        ap.error("--workload or --all is required")
    return run_once(args.workload, args.seed, args.seconds, args.trace, spec)


if __name__ == "__main__":
    sys.exit(main())
