#!/usr/bin/env python3
"""A/A check: run the whole benchmark twice on the same code and compare.

    python3 perfbench/aa_check.py [--seeds 11 12 13] [--seconds N] [--scale full]

Each of the two sets runs every workload once per seed through the
command in ``BENCHMARK.json`` and keeps the median of every end-to-end
metric.  Both sets are printed side by side.  Exit status is non-zero
when a cell of the second set differs from the first by more than the
metric's bound, or when two wall-clock cells are identical to the last
digit (one cell reported under two names).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WALL_CLOCK = ("setup_s", "qps", "q_p50_ms", "q_p95_ms")


def run_set(spec, seeds, seconds, scale) -> dict[tuple[str, str], float]:
    """Median of every end-to-end metric of every workload over ``seeds``."""
    cells: dict[tuple[str, str], list[float]] = {}
    for workload in spec["workloads"]:
        for seed in seeds:
            command = spec["command"] + [
                "--workload", workload["name"], "--seed", str(seed),
                "--seconds", str(seconds), "--trace", "0", "--scale", scale,
            ]  # fmt: skip
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                raise SystemExit(f"{workload['name']} seed {seed}: {result['failed']} failed operations")
            for name, cell in result["metrics"].items():
                cells.setdefault((workload["name"], name), []).append(cell["value"])
    return {key: statistics.median(values) for key, values in cells.items()}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[11, 12, 13])
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--scale", choices=("full", "rehearsal"), default="full")
    args = parser.parse_args(argv)

    first = run_set(spec, args.seeds, args.seconds, args.scale)
    second = run_set(spec, args.seeds, args.seconds, args.scale)
    bounds = {entry["name"]: entry["bound"] for entry in spec["end_to_end"]}
    problems = []
    print(f"{'workload':10s} {'metric':18s} {'first':>14s} {'second':>14s} {'diff':>8s} {'bound':>6s}")
    for (workload, metric), a in first.items():
        b = second[(workload, metric)]
        diff = abs(b - a) / abs(a)
        verdict = "" if diff <= bounds[metric] else "  OUTSIDE"
        print(f"{workload:10s} {metric:18s} {a:14.6f} {b:14.6f} {diff:8.2%} {bounds[metric]:6.0%}{verdict}")
        if verdict:
            problems.append(f"{metric}@{workload} differs by {diff:.1%} (bound {bounds[metric]:.0%})")
    seen: dict[float, str] = {}
    for label, cells in (("first", first), ("second", second)):
        for (workload, metric), value in cells.items():
            if metric not in WALL_CLOCK:
                continue
            cell = f"{metric}@{workload} ({label})"
            if value in seen:
                problems.append(f"{cell} is identical to {seen[value]}: {value!r}")
            seen[value] = cell
    for problem in problems:
        print(f"A/A FAILED: {problem}")
    if not problems:
        print("A/A passed: every end-to-end cell agrees within its bound; no two wall-clock cells alike")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
