"""Concurrency stress: one engine, several application threads.

The engine's concurrency model (see
:class:`~repro.core.query_processor.QueryProcessor`) is a gate lock that
serializes top-level ``query``/``query_batch`` calls, with thread
parallelism living *inside* a batch.  These tests hammer that contract:

* N threads issue interleaved ``query`` and ``query_batch(workers=K)``
  calls against one shared engine and its buffer pool;
* no call may raise and no internal structure may corrupt — every
  bookkeeping invariant that ties the pool, the disk accounting and the
  engine counters together must hold afterwards;
* every query's answer must equal a fresh single-threaded replay on a
  byte-identical fork (compared as packed-object byte sets: answers are
  exact and state-independent, so they are invariant under whichever
  serialization the gate lock produced).
"""

from __future__ import annotations

import threading

import pytest

from repro.bench.runner import generate_workload
from repro.core.config import OdysseyConfig
from repro.core.odyssey import SpaceOdyssey
from repro.data.suite import build_benchmark_suite
from repro.storage.cost_model import DiskModel

from tests.oracle import packed_hits

N_THREADS = 4
QUERIES_PER_THREAD = 12


@pytest.fixture(scope="module")
def stress_suite():
    return build_benchmark_suite(
        n_datasets=4,
        objects_per_dataset=700,
        seed=29,
        buffer_pages=192,
        model=DiskModel(seek_time_s=1e-4),
    )


def _thread_workload(stress_suite, thread_index: int):
    return list(
        generate_workload(
            stress_suite.universe,
            stress_suite.catalog.dataset_ids(),
            QUERIES_PER_THREAD,
            seed=1000 + thread_index,
            datasets_per_query=2,
            volume_fraction=5e-3,
            ranges="clustered" if thread_index % 2 else "uniform",
            ids_distribution="zipf",
        )
    )


def test_interleaved_query_and_batch_threads(stress_suite):
    config = OdysseyConfig(
        merge_threshold=1,
        min_merge_combination=2,
    )
    engine = SpaceOdyssey(stress_suite.fork().catalog, config)
    workloads = [_thread_workload(stress_suite, t) for t in range(N_THREADS)]
    answers: list[list[tuple]] = [[] for _ in range(N_THREADS)]
    errors: list[BaseException] = []
    barrier = threading.Barrier(N_THREADS)

    def worker(thread_index: int) -> None:
        try:
            barrier.wait(timeout=30)
            workload = workloads[thread_index]
            # Alternate execution styles so single queries, serial batches
            # and parallel batches all interleave through the gate.
            for start in range(0, len(workload), 3):
                chunk = workload[start : start + 3]
                style = (thread_index + start) % 3
                if style == 0:
                    for query in chunk:
                        hits = engine.query(query.box, query.dataset_ids)
                        answers[thread_index].append((query, hits))
                elif style == 1:
                    result = engine.query_batch(chunk)
                    answers[thread_index].extend(zip(chunk, result.results))
                else:
                    result = engine.query_batch(chunk, workers=2)
                    answers[thread_index].extend(zip(chunk, result.results))
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(index,), name=f"stress-{index}")
        for index in range(N_THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive(), "stress thread hung"
    assert not errors, f"stress threads raised: {errors!r}"

    total_queries = N_THREADS * QUERIES_PER_THREAD
    assert sum(len(per_thread) for per_thread in answers) == total_queries
    assert engine.summary().queries_executed == total_queries

    # --- no corruption: pool and disk accounting stay consistent --- #
    pool = engine.disk.buffer_pool
    # Every byte-layer lookup went through the disk, so the pool's totals
    # must reconcile exactly with the sequential I/O accounting: hits with
    # recorded cache hits, misses with pages read from the backend.
    assert pool.hits == engine.disk.stats.cache_hits
    assert pool.misses == engine.disk.stats.pages_read
    assert len(pool) <= pool.capacity_pages

    # Partition trees must be structurally intact: every leaf reachable,
    # object counts preserved per dataset.
    for dataset_id, tree in engine.trees.items():
        assert tree.n_objects == stress_suite.catalog.get(dataset_id).n_objects

    # --- every answer matches a fresh single-threaded replay --- #
    replay = SpaceOdyssey(stress_suite.fork().catalog, config)
    for thread_index in range(N_THREADS):
        for query, hits in answers[thread_index]:
            expected = replay.query(query.box, query.dataset_ids)
            assert packed_hits(engine, hits) == packed_hits(replay, expected), (
                f"thread {thread_index} got wrong hits for {query!r}"
            )


def test_concurrent_batches_on_one_engine_match_serial_totals(stress_suite):
    """Many threads firing parallel batches == the same queries run serially."""
    config = OdysseyConfig()
    engine = SpaceOdyssey(stress_suite.fork().catalog, config)
    workload = _thread_workload(stress_suite, 0) * 2  # duplicates included
    chunks = [workload[index::N_THREADS] for index in range(N_THREADS)]
    collected: list[list] = [[] for _ in range(N_THREADS)]
    errors: list[BaseException] = []

    def worker(index: int) -> None:
        try:
            result = engine.query_batch(chunks[index], workers=3)
            collected[index] = list(result.results)
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(index,)) for index in range(N_THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not errors, f"threads raised: {errors!r}"

    serial = SpaceOdyssey(stress_suite.fork().catalog, config)
    for index in range(N_THREADS):
        for query, hits in zip(chunks[index], collected[index]):
            expected = serial.query(query.box, query.dataset_ids)
            assert packed_hits(engine, hits) == packed_hits(serial, expected)
    assert engine.summary().queries_executed == len(workload)

