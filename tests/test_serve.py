"""Unit tests for the multi-tenant serving frontend (repro.serve).

Covers the dynamic batcher's two flush triggers, per-request
result/exception routing, backpressure, clean shutdown in both drain and
abort modes, and the service's bookkeeping invariants.  The determinism
contract (served results == sequential arrival-order execution) is the
serve row of the engine oracle, ``tests/test_engine_fuzz.py``.
"""

from __future__ import annotations

import threading

import pytest

from repro.core.config import OdysseyConfig
from repro.core.odyssey import SpaceOdyssey
from repro.geometry.box import Box
from repro.serve import QueryService, ServiceClosed



@pytest.fixture
def engine(suite) -> SpaceOdyssey:
    return SpaceOdyssey(suite.catalog, OdysseyConfig())


def window(suite, side: float = 60.0, center=(4000.0, 3000.0, 2500.0)) -> Box:
    return Box.cube(center, side).clamp(suite.universe)


class TestSubmission:
    def test_query_convenience_blocks_for_result(self, suite, engine):
        with engine.serve(max_batch=2, max_delay_ms=1) as service:
            hits = service.query(window(suite), [0], timeout=30)
        assert isinstance(hits, list)

    def test_invalid_parameters_rejected(self, engine):
        with pytest.raises(ValueError):
            QueryService(engine, max_batch=0)
        with pytest.raises(ValueError):
            QueryService(engine, max_delay_ms=-1)
        with pytest.raises(ValueError):
            QueryService(engine, max_pending=0)


class TestBatchingTriggers:
    def test_size_trigger_flushes_full_batches(self, suite, engine):
        # The deadline is far away, so only the size trigger can flush.
        with engine.serve(max_batch=4, max_delay_ms=10_000) as service:
            submissions = [service.submit(window(suite), [0, 1]) for _ in range(8)]
            for submission in submissions:
                submission.result(timeout=30)
            stats = service.stats
        assert stats.batches == 2
        assert stats.size_flushes == 2
        assert stats.deadline_flushes == 0
        assert stats.max_batch_size == 4
        assert stats.queries_batched == 8

    def test_deadline_trigger_flushes_partial_batches(self, suite, engine):
        # The batch can hold far more than we submit, so only the deadline
        # (or the closing drain) can flush.
        with engine.serve(max_batch=1000, max_delay_ms=5) as service:
            submissions = [service.submit(window(suite), [0]) for _ in range(3)]
            for submission in submissions:
                submission.result(timeout=30)
            stats = service.stats
        assert stats.batches >= 1
        assert stats.size_flushes == 0
        assert stats.deadline_flushes >= 1
        assert stats.queries_batched == 3

    def test_flush_reasons_partition_batches(self, suite, engine):
        with engine.serve(max_batch=4, max_delay_ms=3) as service:
            submissions = [service.submit(window(suite), [0]) for _ in range(10)]
            for submission in submissions:
                submission.result(timeout=30)
        stats = service.stats
        assert (
            stats.size_flushes + stats.deadline_flushes + stats.drain_flushes
            == stats.batches
        )
        assert stats.queries_batched == 10


class TestExceptionPropagation:
    def test_bad_query_fails_only_its_own_future(self, suite, engine):
        box = window(suite)
        with engine.serve(max_batch=4, max_delay_ms=5) as service:
            good_before = service.submit(box, [0])
            bad = service.submit(box, [9999])  # unknown dataset id
            good_after = service.submit(box, [1])
            assert isinstance(good_before.result(timeout=30), list)
            assert isinstance(good_after.result(timeout=30), list)
            with pytest.raises(KeyError):
                bad.result(timeout=30)
        stats = service.stats
        assert stats.completed == 2
        assert stats.failed == 1
        assert stats.fallbacks >= 1

    def test_service_keeps_serving_after_a_failed_batch(self, suite, engine):
        box = window(suite)
        with engine.serve(max_batch=2, max_delay_ms=2) as service:
            bad = service.submit(box, [12345])
            with pytest.raises(KeyError):
                bad.result(timeout=30)
            follow_up = service.submit(box, [0, 1])
            assert isinstance(follow_up.result(timeout=30), list)

    def test_empty_dataset_ids_fail_through_the_future(self, suite, engine):
        with engine.serve(max_batch=2, max_delay_ms=2) as service:
            bad = service.submit(window(suite), [])
            assert isinstance(bad.exception(timeout=30), ValueError)


class TestShutdown:
    def test_close_drain_executes_everything_queued(self, suite, engine):
        service = engine.serve(max_batch=1000, max_delay_ms=10_000)
        submissions = [service.submit(window(suite), [0, 1]) for _ in range(5)]
        service.close()  # drain: the queued batch runs as a drain flush
        for submission in submissions:
            assert isinstance(submission.result(timeout=30), list)
        stats = service.stats
        assert stats.completed == 5
        assert stats.drain_flushes == 1

    def test_close_abort_fails_pending_with_service_closed(self, suite, engine):
        service = engine.serve(max_batch=1000, max_delay_ms=10_000)
        submissions = [service.submit(window(suite), [0]) for _ in range(3)]
        service.close(drain=False)
        for submission in submissions:
            assert isinstance(submission.exception(timeout=30), ServiceClosed)
        assert service.stats.failed == 3

    def test_submit_after_close_raises(self, suite, engine):
        service = engine.serve(max_batch=2, max_delay_ms=1)
        service.close()
        with pytest.raises(ServiceClosed):
            service.submit(window(suite), [0])
        assert service.closed

    def test_close_is_idempotent(self, suite, engine):
        service = engine.serve(max_batch=2, max_delay_ms=1)
        service.close()
        service.close()
        service.close(drain=False)

    def test_engine_fully_usable_after_close(self, suite, engine):
        box = window(suite)
        with engine.serve(max_batch=2, max_delay_ms=1) as service:
            service.query(box, [0, 1], timeout=30)
        # The gate lock was released on shutdown: direct queries, batches
        # and even a fresh service all still work.
        assert isinstance(engine.query(box, [0, 1]), list)
        assert len(engine.query_batch([(box, [0, 1])])) == 1
        with engine.serve(max_batch=2, max_delay_ms=1) as second:
            assert isinstance(second.query(box, [2], timeout=30), list)

    def test_context_manager_drains_on_clean_exit(self, suite, engine):
        with engine.serve(max_batch=1000, max_delay_ms=10_000) as service:
            submission = service.submit(window(suite), [0])
        assert isinstance(submission.result(timeout=30), list)
        assert service.closed


class TestConcurrentClients:
    def test_every_stats_snapshot_balances_under_concurrent_clients(self, suite, engine):
        """``submitted == completed + failed + cancelled + pending`` in every snapshot.

        Each client has at most one query outstanding, and the dispatcher
        counts an outcome just after it resolves that query's future, so a
        snapshot taken while the clients run has ``0 <= pending <= clients
        + 1``; after ``close`` pending is zero.  One client's queries fail
        (an unknown dataset).
        """
        n_clients, per_client = 4, 12
        box = window(suite)
        snapshots = []
        done = threading.Event()

        def client(index: int) -> None:
            for _ in range(per_client):
                submission = service.submit(box, [99] if index == 0 else [index, 0])
                submission.exception(timeout=60)

        def sampler() -> None:
            while not done.is_set():
                snapshots.append(service.stats)

        # A client error is no storage failure: the breaker never sheds here.
        with engine.serve(max_batch=4, max_delay_ms=1) as service:
            watcher = threading.Thread(target=sampler)
            watcher.start()
            clients = [threading.Thread(target=client, args=(i,)) for i in range(n_clients)]
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(timeout=120)
                assert not thread.is_alive(), "client thread hung"
            done.set()
            watcher.join(timeout=30)
        for stats in snapshots + [service.stats]:
            resolved = stats.completed + stats.failed + stats.cancelled
            assert 0 <= stats.submitted - resolved <= n_clients + 1
        final = service.stats
        assert final.submitted == final.completed + final.failed + final.cancelled
        assert (final.submitted, final.failed) == (n_clients * per_client, per_client)
        assert len(snapshots) > 1

    def test_direct_queries_interleave_with_the_service(self, suite, engine):
        box = window(suite)
        with engine.serve(max_batch=4, max_delay_ms=2) as service:
            submission = service.submit(box, [0, 1])
            direct = engine.query(box, [2, 3])  # through the gate, no service
            assert isinstance(direct, list)
            assert isinstance(submission.result(timeout=30), list)

    def test_backpressure_bound_blocks_then_recovers(self, suite, engine):
        # A tiny pending bound with a fast dispatcher: submissions may
        # momentarily block but must all complete.
        with engine.serve(max_batch=2, max_delay_ms=1, max_pending=2) as service:
            submissions = [service.submit(window(suite), [0]) for _ in range(10)]
            for submission in submissions:
                assert isinstance(submission.result(timeout=60), list)
        assert service.stats.completed == 10
