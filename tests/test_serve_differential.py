"""Differential oracle for the serving frontend: dynamically batched
service execution must be indistinguishable from sequential execution of
the same queries in arrival order.

The contract (documented in ``repro/serve/service.py``): sequence numbers
are assigned atomically with FIFO enqueue, the single dispatcher forms
batches of consecutive arrivals, and ``query_batch`` is
sequential-equivalent — so whatever interleaving the client threads and
the flush triggers produce, replaying the accepted queries sequentially
in ``seq`` order on a byte-identical fork must reproduce:

* byte-identical hits for every submission;
* identical post-run adaptive state (trees, merge directory, counters);
* byte-identical on-disk files.
"""

from __future__ import annotations

import threading

import pytest

from repro.bench.runner import generate_workload
from repro.core.config import OdysseyConfig
from repro.core.odyssey import SpaceOdyssey
from repro.data.suite import BenchmarkSuite

from tests.test_batch_differential import adaptive_state, disk_files, packed_hits


@pytest.fixture(scope="module")
def serve_suite(master_suite: BenchmarkSuite) -> BenchmarkSuite:
    return master_suite


def _serve_and_replay(
    suite: BenchmarkSuite,
    workloads,
    config: OdysseyConfig,
    *,
    max_batch: int,
    max_delay_ms: float,
) -> None:
    """Serve per-client workloads concurrently, then replay in seq order."""
    served = SpaceOdyssey(suite.fork().catalog, config)
    submissions_per_client = [[] for _ in workloads]
    errors: list[BaseException] = []
    barrier = threading.Barrier(len(workloads))

    with served.serve(max_batch=max_batch, max_delay_ms=max_delay_ms) as service:

        def client(index: int) -> None:
            try:
                barrier.wait(timeout=60)
                for query in workloads[index]:
                    submission = service.submit(query.box, query.dataset_ids)
                    submissions_per_client[index].append(submission)
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=client, args=(index,))
            for index in range(len(workloads))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive(), "client thread hung"
    assert not errors, f"clients raised: {errors!r}"

    everything = [s for per_client in submissions_per_client for s in per_client]
    seqs = sorted(s.seq for s in everything)
    assert seqs == list(range(len(everything))), "seq numbers not a dense range"
    assert service.stats.completed == len(everything)
    assert service.stats.failed == 0

    # The serial schedule the service promises to be equivalent to: all
    # accepted queries, in arrival (seq) order, on a byte-identical fork.
    replay = SpaceOdyssey(suite.fork().catalog, config)
    for submission in sorted(everything, key=lambda s: s.seq):
        expected = replay.query(submission.box, submission.dataset_ids)
        actual = submission.result(timeout=0)  # already resolved
        assert len(actual) == len(expected), f"hit count differs at seq {submission.seq}"
        assert packed_hits(served, actual) == packed_hits(
            replay, expected
        ), f"hit bytes differ at seq {submission.seq}"

    # Per-client order preservation: a client's submissions carry strictly
    # increasing sequence numbers (FIFO per client).
    for per_client in submissions_per_client:
        client_seqs = [s.seq for s in per_client]
        assert client_seqs == sorted(client_seqs)

    assert adaptive_state(served) == adaptive_state(replay)
    assert disk_files(served) == disk_files(replay)


def _split_workload(workload, n_clients: int):
    queries = list(workload)
    return [queries[index::n_clients] for index in range(n_clients)]


@pytest.mark.parametrize("n_clients,max_batch", [(1, 4), (4, 8)])
def test_uniform_serving_matches_sequential_arrival_order(serve_suite, n_clients, max_batch):
    workload = generate_workload(
        serve_suite.universe,
        serve_suite.catalog.dataset_ids(),
        48,
        seed=401,
        volume_fraction=1e-3,
        datasets_per_query=2,
        ids_distribution="zipf",
    )
    _serve_and_replay(
        serve_suite,
        _split_workload(workload, n_clients),
        OdysseyConfig(),
        max_batch=max_batch,
        max_delay_ms=2.0,
    )


def test_merge_heavy_serving_matches_sequential_arrival_order(serve_suite):
    """Clustered repeats trigger merges/evictions; the adaptive state and
    on-disk bytes must still replay identically."""
    workload = generate_workload(
        serve_suite.universe,
        serve_suite.catalog.dataset_ids(),
        40,
        seed=402,
        volume_fraction=5e-3,
        datasets_per_query=3,
        ranges="clustered",
        ids_distribution="heavy_hitter",
    )
    config = OdysseyConfig(
        merge_threshold=1,
        min_merge_combination=2,
        merge_space_budget_pages=6,
    )
    _serve_and_replay(
        serve_suite,
        _split_workload(workload, 3),
        config,
        max_batch=8,
        max_delay_ms=1.0,
    )

