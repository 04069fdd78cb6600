#!/usr/bin/env python3
"""Multi-tenant serving: many clients, one dynamically batched engine.

This example puts the engine behind :class:`repro.QueryService` — the
inference-server-style frontend from ``repro/serve/``.  Client threads
submit individual range queries; the service coalesces them into batches
(flushing on whichever fires first: ``max_batch`` queries or a
``max_delay_ms`` deadline), drains each batch inline through one
``SpaceOdyssey.query_batch`` call on one dispatcher thread, and routes
every answer back through its per-request future.

The determinism contract: whatever the thread interleaving, each client
receives byte-for-byte the answers it would get by issuing the same
queries sequentially in arrival order.  The serve row of the engine
oracle (``tests/test_engine_fuzz.py``) enforces this; here we just
demonstrate it by replaying one client's queries on a fresh fork.

Run it with:

    python examples/serving_frontend.py
"""

from __future__ import annotations

import threading
import time

from repro import Box, OdysseyConfig, SpaceOdyssey, build_benchmark_suite

N_CLIENTS = 4
QUERIES_PER_CLIENT = 24


def main() -> None:
    # 1. A shared engine over the synthetic neuroscience suite.
    suite = build_benchmark_suite(
        n_datasets=6,
        objects_per_dataset=4_000,
        seed=7,
        buffer_pages=0,
    )
    odyssey = SpaceOdyssey(suite.catalog, OdysseyConfig())
    print(f"datasets: {len(suite.catalog)}, objects: {suite.catalog.total_objects():,}")

    # 2. Per-client query streams over the microcircuit centers.
    centers = suite.generator.microcircuit_centers
    def client_queries(index: int):
        for round_no in range(QUERIES_PER_CLIENT):
            center = centers[(index + round_no) % len(centers)]
            region = Box.cube(tuple(center), side=50.0 + 4 * index).clamp(
                suite.catalog.universe
            )
            yield region, [index % 6, (index + 2) % 6, (round_no) % 6]

    # 3. Serve: clients hammer the service concurrently; the dispatcher
    #    batches their arrivals and answers through per-request futures.
    answers: dict[int, list[int]] = {}
    recorded: dict[int, list] = {index: [] for index in range(N_CLIENTS)}
    with odyssey.serve(max_batch=16, max_delay_ms=3.0) as service:

        def client(index: int) -> None:
            counts = []
            for box, ids in client_queries(index):
                submission = service.submit(box, ids)
                recorded[index].append((box, ids))
                counts.append(len(submission.result(timeout=60)))
            answers[index] = counts

        threads = [
            threading.Thread(target=client, args=(index,)) for index in range(N_CLIENTS)
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start

    stats = service.stats
    total = N_CLIENTS * QUERIES_PER_CLIENT
    print(
        f"\nserved {stats.completed}/{total} queries from {N_CLIENTS} clients "
        f"in {elapsed * 1e3:.0f} ms"
    )
    print(
        f"batches: {stats.batches} (mean size {stats.mean_batch_size:.1f}, "
        f"max {stats.max_batch_size}) — flushes: {stats.size_flushes} size / "
        f"{stats.deadline_flushes} deadline / {stats.drain_flushes} drain"
    )

    # 4. The contract, demonstrated: client 0's answers equal a sequential
    #    replay of its exact queries on a fresh fork of the same data.
    replay = SpaceOdyssey(suite.fork().catalog, OdysseyConfig())
    replayed = [len(replay.query(box, ids)) for box, ids in recorded[0]]
    assert answers[0] == replayed, "served answers must match sequential replay"
    print("client 0's answers match a sequential replay — determinism holds")

    # 5. Latency comes from the service itself: every submit→resolve time
    #    of the run above landed in its histogram, digested in the stats.
    latency = stats.latency
    print(
        f"\nlatency over {latency.count} requests: "
        f"p50 {latency.p50 * 1e3:.1f} ms, p99 {latency.p99 * 1e3:.1f} ms"
    )


if __name__ == "__main__":
    main()
