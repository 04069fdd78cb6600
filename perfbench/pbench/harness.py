"""One benchmark run: set-ups, timed passes, checks, optional traced pass."""

from __future__ import annotations

import contextlib
import gc
import json
import math
import os
import resource
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass

from pbench.inputs import Scale
from pbench.workloads import WORKLOADS, PassSample, Workload

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC_PATH = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
OUT_DIR = os.path.join(HERE, "out")

#: Spans written to ``out/trace_<workload>.json``; the rest are counted.
TRACE_FILE_SPANS = 100_000


def load_spec() -> dict:
    """``BENCHMARK.json``: the one place metric names, units and bounds live."""
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


@contextlib.contextmanager
def scratch_directory(prefix: str):
    """A directory under ``out/`` that also becomes ``tempfile.tempdir``.

    Everything the storage layer clones (``FileSystemBackend.clone`` uses
    ``mkdtemp``) thereby stays inside the benchmark's own directory, and
    all of it is removed on exit, failure included.
    """
    os.makedirs(OUT_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=prefix, dir=OUT_DIR)
    previous, tempfile.tempdir = tempfile.tempdir, scratch
    try:
        yield scratch
    finally:
        tempfile.tempdir = previous
        shutil.rmtree(scratch, ignore_errors=True)


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile: the smallest value with ``q`` of the sample at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def reference_pass(workload: Workload, sample: PassSample) -> tuple[list[float], float]:
    """A pass's per-operation latencies and its wall, in reference-host seconds.

    See :mod:`pbench.hostclock`.  One caller at a time: the wall is the
    sum of the latencies.  ``serve`` overlaps its requests, so its wall
    runs from the first submit to the last resolve.
    """
    latencies = [seconds * sample.host_factor for seconds in sample.latencies]
    wall = sum(latencies) if workload.single_threaded else sample.wall * sample.host_factor
    return latencies, wall


def repeatability_failures(workload: Workload, passes: list[PassSample]) -> list[str]:
    """Every pass must give pass 1's answers and (one thread) pass 1's counts."""
    failures = []
    first = passes[0]
    for number, sample in enumerate(passes[1:], start=2):
        if sample.hits != first.hits:
            failures.append(f"pass {number}: answer sizes differ from pass 1")
        if workload.single_threaded:
            for name in ("pages_read", "seeks", "pages_written"):
                if sample.io[name] != first.io[name]:
                    failures.append(f"pass {number}: {name} differs from pass 1")
            if (sample.bytes_written_life, sample.bytes_on_disk) != (
                first.bytes_written_life,
                first.bytes_on_disk,
            ):
                failures.append(f"pass {number}: bytes written or stored differ from pass 1")
    for number, sample in enumerate(passes, start=1):
        for kind in ("failed", "wrong", "anomalies"):
            count = sample.extra.get(kind, 0)
            failures += [f"pass {number}: a served request counted as {kind}"] * count
    return failures


def end_to_end(workload, passes, setup_times, peak_rss_mb) -> dict[str, float]:
    """The nine end-to-end metrics: every pass gives a value, the median is reported."""
    operations = len(passes[0].latencies)
    median = statistics.median
    per_pass = []
    for sample in passes:
        latencies, wall = reference_pass(workload, sample)
        per_pass.append((operations / wall, quantile(latencies, 0.50), quantile(latencies, 0.95)))
    qps, p50, p95 = (median(column) for column in zip(*per_pass))
    return {
        "setup_s": median(setup_times),
        "qps": qps,
        "q_p50_ms": p50 * 1e3,
        "q_p95_ms": p95 * 1e3,
        # Exact repeats on the single-threaded workloads (checked before).
        "read_pages_per_q": median(p.io["pages_read"] for p in passes) / operations,
        "seeks_per_q": median(p.io["seeks"] for p in passes) / operations,
        "write_amp": median(p.bytes_written_life for p in passes) / workload.raw_user_bytes,
        "space_amp": median(p.bytes_on_disk for p in passes) / workload.raw_user_bytes,
        "peak_rss_mb": peak_rss_mb,
    }


def traced_pass(workload: Workload, passes: list[PassSample], report) -> dict[str, float]:
    """One more pass (and one more ingest) with the layer wrappers installed."""
    from pbench.layers import layer_metrics
    from pbench.tracing import Instrumentation, Recorder, write_trace

    direct = workload.direct_rates()
    recorder = Recorder()
    with Instrumentation(recorder) as installed:
        workload.new_suite()
        ingest_totals = recorder.totals()
        recorder.clear()
        sample = workload.measure(collect_reports=workload.single_threaded)
    totals = recorder.totals()
    metrics = layer_metrics(workload, sample, recorder, totals, ingest_totals)
    walls = sorted(reference_pass(workload, p)[1] for p in passes)
    typical = statistics.median(walls)
    metrics["perfbench.trace_overhead"] = reference_pass(workload, sample)[1] / typical
    metrics["perfbench.pass_spread"] = (walls[-1] - walls[0]) / typical
    metrics["perfbench.host_factor"] = statistics.median(p.host_factor for p in passes)
    metrics["perfbench.trace_targets_missing"] = len(installed.missing)
    if direct is not None:
        sequential, batched = direct
        metrics["core.query_processor.direct_qps"] = sequential
        metrics["core.batch.direct_qps"] = batched
        metrics["serve.service.efficiency"] = len(sample.latencies) / typical / batched
    path = os.path.join(OUT_DIR, f"trace_{workload.name}.json")
    written = write_trace(path, recorder, limit=TRACE_FILE_SPANS)
    report(f"trace: {written} spans written to {path}")
    for name in sorted(totals, key=lambda n: -totals[n].self_s):
        entry = totals[name]
        report(
            f"  span {name:32s} calls {entry.calls:8d}  self {entry.self_s:9.4f} s"
            f"  ({entry.self_s / sample.wall:6.1%} of traced wall)  total {entry.total_s:9.4f} s"
        )
    return metrics


@dataclass
class Outcome:
    """What one run established."""

    attempted: int
    failures: list[str]
    end_to_end: dict[str, float]
    per_layer: dict[str, float] | None  # None without a traced pass

    def result(self, spec: dict, per_layer: bool) -> dict:
        """The result object of the benchmark contract, named as in ``spec``."""
        values, wanted = self.end_to_end, spec["end_to_end"]
        if per_layer:
            values, wanted = self.per_layer, spec["per_layer"]
        metrics = {}
        for entry in wanted:
            value = values[entry["name"]]
            if not math.isfinite(value):
                raise ValueError(f"metric {entry['name']} is not finite: {value}")
            metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        return {
            "correct": not self.failures,
            "attempted": self.attempted,
            "failed": len(self.failures),
            "metrics": metrics,
        }


def run(name: str, seed: int, seconds: float, trace: bool, scale: Scale, report=print) -> Outcome:
    """Run one workload: set-ups, timed passes, checks, optional traced pass."""
    with scratch_directory(f"run-{name}-"):
        workload = WORKLOADS[name](scale, seed)
        try:
            return _run(workload, seconds, trace, report)
        finally:
            workload.discard()


def _run(workload: Workload, seconds: float, trace: bool, report) -> Outcome:
    scale = workload.scale
    setup_times = []
    for _ in range(scale.setups):
        workload.discard()
        gc.collect()
        start = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - start)
    workload.prepare_checks()

    passes: list[PassSample] = []
    began = time.perf_counter()
    while len(passes) < scale.min_passes or time.perf_counter() - began < seconds:
        passes.append(workload.measure())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = repeatability_failures(workload, passes) + workload.verify(passes[0])
    metrics = end_to_end(workload, passes, setup_times, peak_rss_mb)
    walls = [reference_pass(workload, p)[1] for p in passes]
    report(f"workload {workload.name}  seed {workload.seed}  scale {scale.name}  passes {len(passes)}")
    report(f"  set-ups (s): {' '.join(f'{t:.3f}' for t in setup_times)}")
    report(f"  pass walls as clocked (s):      {' '.join(f'{p.wall:.3f}' for p in passes)}")
    report(f"  pass walls, reference host (s): {' '.join(f'{w:.3f}' for w in walls)}")
    report(f"  host factors: {' '.join(f'{p.host_factor:.3f}' for p in passes)}")
    report(f"  latency samples per pass: {len(passes[0].latencies)}")
    if "recover_s" in passes[0].extra:
        before = scale.durable_queries
        report(
            "  as clocked, per pass (s): "
            + "  ".join(
                f"run {sum(p.latencies[:before]):.3f} / recover {p.extra['recover_s']:.3f}"
                for p in passes
            )
        )
    for message in failures[:20]:
        report(f"  FAILED {message}")
    return Outcome(
        attempted=sum(len(p.latencies) for p in passes),
        failures=failures,
        end_to_end=metrics,
        per_layer=traced_pass(workload, passes, report) if trace else None,
    )
