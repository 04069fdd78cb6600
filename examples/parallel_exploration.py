#!/usr/bin/env python3
"""Thread-parallel batched exploration: a worker-count sweep.

This example extends ``batched_exploration.py`` with the thread-parallel
executor (:meth:`SpaceOdyssey.query_batch` with ``workers=K``): the batch's
read-only phases — overlap resolution per combination group, page decode +
vectorized filtering per query — fan out across K threads, while
statistics, refinement and merging replay through a single deterministic
writer phase.  Results, reports, adaptive state and
on-disk bytes are bit-identical at every worker count; only the wall
clock changes.

Run it with:

    python examples/parallel_exploration.py
"""

from __future__ import annotations

import os
import time

from repro import Box, OdysseyConfig, SpaceOdyssey, build_benchmark_suite

WORKER_SWEEP = (1, 2, 4, 8)
BATCH_SIZE = 32


def main() -> None:
    # 1. The synthetic neuroscience benchmark.
    suite = build_benchmark_suite(
        n_datasets=8,
        objects_per_dataset=8_000,
        seed=42,
        buffer_pages=0,
    )
    catalog = suite.catalog
    print(f"datasets: {len(catalog)}, total objects: {catalog.total_objects():,}")
    print(f"host cpus: {os.cpu_count()}, batch size: {BATCH_SIZE}")

    # 2. A dashboard-style sweep: many windows over a few combinations.
    microcircuits = suite.generator.microcircuit_centers
    queries = []
    for repeat in range(4):
        for center in microcircuits:
            region = Box.cube(tuple(center), side=55.0 + repeat * 5).clamp(
                catalog.universe
            )
            queries.append((region, [0, 2, 5]))
            queries.append((region, [1, 3, 7]))
    print(f"workload: {len(queries)} queries in batches of {BATCH_SIZE}")

    # 3. The sweep.  Every worker count runs on its own fork of the same
    #    data, converges identically (that is the executor's guarantee),
    #    and is timed on a second, steady-state pass.
    def run_batched(odyssey: SpaceOdyssey, workers: int) -> list[int]:
        counts: list[int] = []
        for start in range(0, len(queries), BATCH_SIZE):
            result = odyssey.query_batch(
                queries[start : start + BATCH_SIZE], workers=workers
            )
            counts.extend(result.hit_counts())
        return counts

    print(f"\n{'workers':>8}{'wall ms':>10}{'queries/s':>12}{'speedup':>9}")
    baseline_ms = None
    reference_counts = None
    for workers in WORKER_SWEEP:
        odyssey = SpaceOdyssey(suite.fork().catalog, OdysseyConfig())
        counts = run_batched(odyssey, workers)  # converge + warm
        if reference_counts is None:
            reference_counts = counts
        assert counts == reference_counts, "worker counts must not change answers"
        start = time.perf_counter()
        run_batched(odyssey, workers)
        elapsed_ms = (time.perf_counter() - start) * 1e3
        if baseline_ms is None:
            baseline_ms = elapsed_ms
        print(
            f"{workers:>8}{elapsed_ms:>10.1f}"
            f"{len(queries) / (elapsed_ms / 1e3):>12.0f}"
            f"{baseline_ms / elapsed_ms:>8.2f}x"
        )

    print(
        "\nanswers, reports and adaptive state are bit-identical at every "
        "worker count\n(the differential oracles in tests/ enforce this); "
        "speedups need real cores —\non a single-cpu host the sweep only "
        "shows the thread fan-out overhead."
    )


if __name__ == "__main__":
    main()
