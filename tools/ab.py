#!/usr/bin/env python3
"""Alternating-pair comparison of two commits on the perfbench workloads.

    python3 tools/ab.py PARENT [--pairs 10] [--scale full|rehearsal]
                        [--seed-base N] [--out TABLE.md]

PARENT and HEAD are exported with ``git archive`` into two sibling
directories whose paths have the same length.  Since manifest version 3
a journal names its store relative to itself, so no byte of a run depends
on where the checkout lies; the equal lengths are kept for commits before
it, whose ``durable`` journal bases record the absolute store path (and
so ``write_amp`` and ``space_amp`` move with its length).  Each pair runs
``perfbench/run.py --trace 0`` once per side on one seed, alternating
which side runs first; seeds are ``seed-base``, ``seed-base + 1``, ...
(a fresh random base unless given, so the seeds are unseen).  The
workloads and the run length are those of ``BENCHMARK.json``.

Printed per workload and end-to-end metric: the parent's median and
quartiles, the change's median, the pairs the change won (ties count for
neither side), the verdict against the metric's bound, and whether the
count metrics repeated exactly in every pair.  A metric only one side
reports (one the change adds or renames) shows as ``n/a``.  One JSON line per side is
appended to ``BENCH_HISTORY.jsonl`` (commit and its ``src/`` tree,
``nproc``, Python and NumPy versions, scale, seconds, seeds, medians and
interquartile ranges).

The exit status is 1 only when a run reports ``correct: false`` or a
failed operation (or cannot be parsed); timings never fail it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HISTORY = os.path.join(ROOT, "BENCH_HISTORY.jsonl")

#: Metrics that count work; they must repeat to the last digit.
COUNT_METRICS = ("read_pages_per_q", "seeks_per_q", "write_amp", "space_amp")


# ---------------------------------------------------------------------- #
# Arithmetic (pure; tested in tests/test_ab_tool.py)
# ---------------------------------------------------------------------- #


def quantile(values, fraction: float) -> float:
    """Linear-interpolation quantile of ``values`` (inclusive method)."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * fraction
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def summary(values) -> dict:
    """Median, first and third quartile and their distance."""
    q1, median, q3 = (quantile(values, f) for f in (0.25, 0.5, 0.75))
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def better(a: float, b: float, direction: str) -> bool:
    """Whether ``a`` reads better than ``b`` for a metric where ``direction`` is better."""
    return a < b if direction == "lower" else a > b


def compare(parent, change, direction: str, bound: float) -> dict:
    """One metric on one workload: statistics, pairs won and the verdict.

    ``parent`` and ``change`` are the values of the same pairs, in pair
    order.  Verdicts: ``worse`` when the change's median is worse than
    the parent's by more than ``bound`` (relative); ``unresolved`` when it
    is not, but the parent's interquartile range is wider than the bound
    and not every change run beats every parent run; ``gain`` when, over
    at least ten pairs, the change won at least nine tenths of them and
    its median is better by more than the parent's interquartile range;
    ``same`` otherwise.
    """
    p, c = summary(parent), summary(change)
    won = sum(better(b, a, direction) for a, b in zip(parent, change))
    base = p["median"]
    delta = (c["median"] - base) / base if base else 0.0
    worse_by = delta if direction == "lower" else -delta
    if worse_by > bound:
        verdict = "worse"
    elif (
        len(parent) >= 10
        and won >= 0.9 * len(parent)
        and better(c["median"], base, direction)
        and abs(c["median"] - base) > p["iqr"]
    ):
        verdict = "gain"
    elif base and p["iqr"] / abs(base) > bound and not all(
        better(b, a, direction) for a in parent for b in change
    ):
        verdict = "unresolved"
    else:
        verdict = "same"
    return {
        "parent": p,
        "change": c,
        "won": won,
        "pairs": len(parent),
        "delta": delta,
        "verdict": verdict,
    }


def shared(name: str, *runs: dict) -> bool:
    """Whether every one of ``runs`` reports the metric ``name``."""
    return all(name in run["metrics"] for run in runs)


def counts_equal(parent_runs, change_runs) -> bool:
    """Whether every count metric both sides report is equal, pair by pair."""
    return all(
        a["metrics"][name]["value"] == b["metrics"][name]["value"]
        for a, b in zip(parent_runs, change_runs)
        for name in COUNT_METRICS
        if shared(name, a, b)
    )


def compare_workload(parent_runs, change_runs, spec: dict) -> dict:
    """Every end-to-end metric of one workload; ``None`` where a side lacks it."""
    metrics = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        if not shared(name, *parent_runs, *change_runs):
            metrics[name] = None
            continue
        metrics[name] = compare(
            [run["metrics"][name]["value"] for run in parent_runs],
            [run["metrics"][name]["value"] for run in change_runs],
            metric["better"],
            metric["bound"],
        )
    return {"counts_equal": counts_equal(parent_runs, change_runs), "metrics": metrics}


def healthy(run: dict) -> bool:
    """A run that answered correctly and failed no operation."""
    return run.get("correct") is True and run.get("failed", 1) == 0


def history_line(role: str, sha: str, runs_by_workload: dict, meta: dict) -> dict:
    """The ``BENCH_HISTORY.jsonl`` record of one side: medians and IQRs per cell."""
    cells = {}
    for workload, runs in runs_by_workload.items():
        for name in runs[0]["metrics"]:
            stats = summary([run["metrics"][name]["value"] for run in runs])
            cells[f"{name}@{workload}"] = {"median": stats["median"], "iqr": stats["iqr"]}
    return {"role": role, "sha": sha, **meta, "cells": cells}


def table(results: dict, spec: dict) -> list[str]:
    """Markdown rows: one per workload, one column per end-to-end metric."""
    metrics = [metric["name"] for metric in spec["end_to_end"]]
    lines = [
        "| workload | " + " | ".join(f"`{name}`" for name in metrics) + " | counts |",
        "|---" * (len(metrics) + 2) + "|",
    ]
    for workload, entry in results.items():
        cells = []
        for name in metrics:
            cell = entry["metrics"][name]
            if cell is None:
                cells.append("n/a")
                continue
            p = cell["parent"]
            won = f"{cell['won']}/{cell['pairs']}, {cell['verdict']}"
            cells.append(
                f"{p['median']:.4g} [{p['q1']:.4g}, {p['q3']:.4g}] → "
                f"{cell['change']['median']:.4g} ({won})"
            )
        counts = "equal" if entry["counts_equal"] else "**differ**"
        lines.append(f"| `{workload}` | " + " | ".join(cells) + f" | {counts} |")
    return lines


# ---------------------------------------------------------------------- #
# Running
# ---------------------------------------------------------------------- #


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def export(ref: str, directory: str) -> str:
    """``git archive`` of ``ref`` into ``directory``; returns the full SHA."""
    sha = git("rev-parse", ref)
    os.makedirs(directory)
    archive = subprocess.run(
        ["git", "archive", sha], cwd=ROOT, check=True, capture_output=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", directory], input=archive, check=True)
    return sha


def run_once(checkout: str, workload: str, seed: int, seconds: float, scale: str) -> dict:
    """One ``perfbench/run.py --trace 0`` run; its last stdout line as JSON."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    command += ["--seconds", str(seconds), "--trace", "0", "--scale", scale]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    try:
        return json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(done.stderr[-2000:])
        return {"correct": False, "failed": -1, "metrics": {}}


def numpy_version() -> str:
    probe = [sys.executable, "-c", "import numpy; print(numpy.__version__)"]
    return subprocess.run(probe, capture_output=True, text=True).stdout.strip()


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="the commit to compare against (e.g. HEAD~1)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--scale", choices=("full", "rehearsal"), default="full")
    parser.add_argument("--seed-base", type=int, default=None)
    parser.add_argument("--out", help="also write the table to this file")
    args = parser.parse_args(argv)
    seed_base = args.seed_base if args.seed_base is not None else random.randrange(10**5, 10**6)
    seeds = [seed_base + index for index in range(args.pairs)]
    seconds = float(spec["run_seconds"])
    workloads = [workload["name"] for workload in spec["workloads"]]

    work = tempfile.mkdtemp(prefix="ab-")
    try:
        sides = {"parent": os.path.join(work, "p"), "change": os.path.join(work, "c")}
        shas = {
            "parent": export(args.parent, sides["parent"]),
            "change": export("HEAD", sides["change"]),
        }
        runs = {role: {w: [] for w in workloads} for role in sides}
        for workload in workloads:
            for index, seed in enumerate(seeds):
                order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
                for role in order:
                    runs[role][workload].append(
                        run_once(sides[role], workload, seed, seconds, args.scale)
                    )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    bad = [
        f"{role} {workload} seed {seeds[index]}: correct={run.get('correct')} "
        f"failed={run.get('failed')}"
        for role in runs
        for workload in workloads
        for index, run in enumerate(runs[role][workload])
        if not healthy(run)
    ]
    results = {}
    if not bad:
        for workload in workloads:
            results[workload] = compare_workload(
                runs["parent"][workload], runs["change"][workload], spec
            )
        meta = {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy_version(),
            "scale": args.scale,
            "seconds": seconds,
            "seeds": seeds,
        }
        with open(HISTORY, "a") as handle:
            for role in ("parent", "change"):
                # The tree of src/ names the measured code across amended commits.
                source = {"src_tree": git("rev-parse", f"{shas[role]}:src")}
                line = history_line(role, shas[role], runs[role], {**meta, **source})
                handle.write(json.dumps(line, sort_keys=True) + "\n")

    header = (
        f"parent {shas['parent'][:12]} vs change {shas['change'][:12]}: {args.pairs} "
        f"alternating pairs, seeds {seeds[0]}–{seeds[-1]}, {seconds:g} s per run, "
        f"--scale {args.scale}; median [parent quartiles] → change median (pairs won, verdict)"
    )
    lines = [header, ""] + (table(results, spec) if results else []) + bad
    print("\n".join(lines))
    if args.out:
        with open(args.out, "w") as handle:
            handle.write("\n".join(lines) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
