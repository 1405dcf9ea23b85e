#!/usr/bin/env python3
"""Benchmark of the contractads calculus.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each round of a workload runs in a fresh single-threaded process
(bench/worker.py): one client, closed loop, every operation of the round in
order.  Rounds repeat until S seconds have passed and the run holds at
least 100 operations, with a fixed reference loop timed before each round; the round-0 outputs are then checked against
references computed apart from the program (bench/checks.py), and every
later round must give the same outputs.  The last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics for --trace 0 and the per-layer metrics of a
traced run for --trace 1.  A wrong answer prints "correct": false and exits 1.
Inputs, the round-0 outputs, spans and one results line per run go to
.bench_out/ in the checkout, with the time of a fixed standard-library
reference loop beside each result, so that a run taken while the host was
slow can be told apart.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import inputs as workload_inputs  # noqa: E402

MIN_OPERATIONS = 100  # op_ms_p90 needs ten samples above it
MIN_ROUNDS = 3
ROUND_TIMEOUT_S = 150


def reference_loop_ms() -> float:
    """A fixed standard-library loop of exact rational sums into a dict, the
    kind of work the program does; its time tells the host's speed."""
    t0 = time.perf_counter()
    acc: dict[int, Fraction] = {}
    for i in range(1, 10_001):
        acc[i % 97] = acc.get(i % 97, Fraction(0)) + Fraction(i, 7) * Fraction(3, i + 1)
    return (time.perf_counter() - t0) * 1000


def run_round(paths: dict, index: int, trace: bool) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--inputs", paths["inputs"]]
    if index == 0:
        cmd += ["--outputs", paths["outputs"]]
    if trace:
        cmd += ["--trace"] + (["--spans", paths["spans"]] if index == 0 else [])
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned = time.monotonic()
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, timeout=ROUND_TIMEOUT_S, text=True
    )
    if proc.returncode != 0:
        raise RuntimeError(f"round {index} exited with code {proc.returncode}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["setup_s"] = report["first_op"] - spawned
    return report


def end_to_end(rounds: list[dict]) -> dict:
    latencies = [t for r in rounds for t in r["latencies"]]
    return {
        "wall_s": {"value": statistics.median(r["wall_s"] for r in rounds), "unit": "s"},
        "setup_s": {"value": statistics.median(r["setup_s"] for r in rounds), "unit": "s"},
        "op_ms_p50": {"value": statistics.median(latencies) * 1000, "unit": "ms"},
        "op_ms_p90": {"value": statistics.quantiles(latencies, n=10)[8] * 1000, "unit": "ms"},
        "peak_rss_mib": {"value": statistics.median(r["peak_rss_kib"] for r in rounds) / 1024, "unit": "MiB"},
    }


def per_layer(rounds: list[dict]) -> dict:
    out = {}
    for name in rounds[0]["layers"]:
        unit = "s" if name.endswith("_s") else "count"
        out[name] = {"value": statistics.median(r["layers"][name] for r in rounds), "unit": unit}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workload_inputs.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "contractads", "__init__.py")):
        print(f"error: no contractads package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    paths = {
        "inputs": os.path.join(out_dir, f"inputs-{stem}.json"),
        "outputs": os.path.join(out_dir, f"outputs-{stem}.json"),
        "spans": os.path.join(out_dir, f"spans-{stem}.csv"),
    }
    data = workload_inputs.build(args.workload, args.seed)
    with open(paths["inputs"], "w") as fh:
        json.dump(data, fh)
    per_round = workload_inputs.operation_count(data)
    min_rounds = max(MIN_ROUNDS, math.ceil(MIN_OPERATIONS / per_round))

    rounds: list[dict] = []
    reference_ms = []
    start = time.monotonic()
    try:
        while len(rounds) < min_rounds or time.monotonic() - start < args.seconds:
            reference_ms.append(reference_loop_ms())
            rounds.append(run_round(paths, len(rounds), bool(args.trace)))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    measured_s = time.monotonic() - start

    with open(paths["outputs"]) as fh:
        errors = checks.check(data, json.load(fh))
    if any(r["digest"] != rounds[0]["digest"] for r in rounds):
        errors.append("a later round gave different outputs than round 0")
    for message in errors[:20]:
        print(f"WRONG: {message}", file=sys.stderr)

    metrics = per_layer(rounds) if args.trace else end_to_end(rounds)
    result = {
        "correct": not errors,
        "attempted": per_round * len(rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": len(rounds),
        "measured_s": measured_s,
        "round_wall_s": [r["wall_s"] for r in rounds],
        "round_setup_s": [r["setup_s"] for r in rounds],
        "reference_loop_ms": reference_ms,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "finished": time.strftime("%Y-%m-%dT%H:%M:%S"),
        **result,
    }
    with open(os.path.join(out_dir, "results.jsonl"), "a") as fh:
        fh.write(json.dumps(record) + "\n")
    print(
        f"{len(rounds)} rounds in {measured_s:.1f} s, reference loop median {statistics.median(reference_ms):.1f} ms",
        file=sys.stderr,
    )
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
