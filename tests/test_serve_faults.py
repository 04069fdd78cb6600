"""Graceful degradation and shutdown semantics of the serving frontend.

A ``FlakyEngine`` delegating wrapper injects failures at exact engine
entry points (``query``, ``query_batch``), so every scenario is
deterministic: the service runs each query once and surfaces its error,
repeated storage failures must open the circuit breaker (typed
``ServiceDegraded`` shed, never a hang) while client errors must not, a
cooled-down breaker must close again on a successful probe, and
``close()``/``submit()`` must behave deterministically.  Transient faults
are retried below the service: behind ``RetryingBackend`` a served run
under injected faults answers as a sequential replay does.  A batch whose
writer half raises partway through must leave the service exactly where
sequential execution in arrival order leaves the engine.
"""

from __future__ import annotations

import threading

import pytest

from repro.baselines.interface import BruteForceScan
from repro.bench.runner import generate_workload
from repro.core.config import OdysseyConfig
from repro.core.odyssey import SpaceOdyssey
from repro.core.statistics import StatisticsCollector
from repro.data.suite import build_benchmark_suite
from repro.geometry.box import Box
from repro.serve import service as service_module
from repro.serve.service import (
    QueryService,
    ServiceClosed,
    ServiceDegraded,
)
from repro.storage.codec import decode_page_array, encode_page_array
from repro.storage.errors import CorruptPageError, StorageError, TransientIOError
from repro.storage.faults import FaultInjectingBackend, FaultPlan
from repro.storage.retry import RetryingBackend, RetryPolicy

from tests.oracle import (
    adaptive_state,
    disk_files,
    explore,
    fork_with,
    mixed_workload,
    packed_hits,
)


class FlakyEngine:
    """Delegates to a real engine, injecting scripted failures.

    ``armed_error`` — while set, ``query`` and ``query_batch`` both raise
    it (a persistently broken engine).  ``calls`` counts every call of
    either, armed or not.
    """

    def __init__(self, engine: SpaceOdyssey) -> None:
        self._engine = engine
        self.armed_error: BaseException | None = None
        self.calls = 0

    def __getattr__(self, name):
        return getattr(self._engine, name)

    def query(self, box, dataset_ids):
        self.calls += 1
        if self.armed_error is not None:
            raise self.armed_error
        return self._engine.query(box, dataset_ids)

    def query_batch(self, queries):
        self.calls += 1
        if self.armed_error is not None:
            raise self.armed_error
        return self._engine.query_batch(queries)


BOX = Box((100.0, 100.0, 100.0), (1000.0, 1000.0, 1000.0))


def hit_keys(hits) -> list[tuple[int, int]]:
    """Order-insensitive identity of a query answer."""
    return sorted((obj.dataset_id, obj.oid) for obj in hits)


@pytest.fixture
def engine(suite) -> SpaceOdyssey:
    return SpaceOdyssey(suite.catalog, OdysseyConfig())


def service(target, **kwargs) -> QueryService:
    kwargs.setdefault("max_delay_ms", 0.0)
    return QueryService(target, **kwargs)


# ---------------------------------------------------------------------- #
# Shutdown semantics
# ---------------------------------------------------------------------- #


class TestCloseSemantics:
    def test_close_is_idempotent(self, engine):
        svc = service(engine)
        svc.query(BOX, (0,))
        svc.close()
        svc.close()  # second close is a no-op, not an error
        svc.close(drain=False)  # ...in either mode
        assert svc.closed

    def test_submit_after_close_raises_deterministically(self, engine):
        svc = service(engine)
        svc.close()
        for _ in range(3):
            with pytest.raises(ServiceClosed):
                svc.submit(BOX, (0,))
        stats = svc.stats
        assert stats.submitted == stats.completed + stats.failed + stats.cancelled

    def test_engine_usable_after_close(self, engine):
        svc = service(engine)
        expected = hit_keys(svc.query(BOX, (0, 1)))
        svc.close()
        assert hit_keys(engine.query(BOX, (0, 1))) == expected
        assert hit_keys(engine.query(BOX, (0, 1))) == expected


# ---------------------------------------------------------------------- #
# Transient faults: retried by the backend, never by the service
# ---------------------------------------------------------------------- #


class TestOneRetryLayer:
    def test_a_transient_fault_surfaces_without_a_service_retry(self, engine):
        """On a store without ``RetryingBackend`` the batch fails, the
        fallback runs the query once, and its first fault is the answer."""
        flaky = FlakyEngine(engine)
        flaky.armed_error = TransientIOError("storage down")
        svc = service(flaky)
        with svc:
            error = svc.submit(BOX, (0,)).exception(timeout=10)
        assert isinstance(error, TransientIOError)
        assert flaky.calls == 2  # the batch, then one query() in the fallback
        assert (svc.stats.failed, svc.stats.fallbacks) == (1, 1)

    @pytest.mark.parametrize("seed", [5, 6])
    def test_served_answers_under_faults_equal_a_sequential_replay(self, suite, seed):
        """Several clients served over ``RetryingBackend(FaultInjectingBackend)``:
        no client sees a fault, no batch falls back (the backend retried
        the writer halves' writes too), and every answer, the adaptive
        state and the page files equal a fault-free sequential replay in
        arrival order."""
        plan = FaultPlan(seed=seed, read_error_rate=0.03, write_error_rate=0.03)
        policy = RetryPolicy(max_attempts=8, seed=seed)
        faulty = fork_with(
            suite,
            lambda backend: RetryingBackend(
                FaultInjectingBackend(backend, plan), policy, sleep=lambda _s: None
            ),
        )
        engine = SpaceOdyssey(faulty.catalog, OdysseyConfig())
        queries = mixed_workload(suite, seed=3, n_triples=24, n_pairs=12)
        n_clients = 4
        served = []

        def client(index: int) -> None:
            for box, ids in queries[index::n_clients]:
                submission = service.submit(box, ids)
                served.append((submission.seq, box, ids, submission.result(timeout=60)))

        with engine.serve(max_batch=4, max_delay_ms=1) as service:
            clients = [threading.Thread(target=client, args=(i,)) for i in range(n_clients)]
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(timeout=120)
                assert not thread.is_alive(), "client thread hung"
        stats = service.stats
        assert (stats.completed, stats.failed, stats.fallbacks) == (len(queries), 0, 0)
        assert engine.disk.stats.retries > 0

        reference = SpaceOdyssey(suite.fork().catalog, OdysseyConfig())
        for _, box, ids, hits in sorted(served, key=lambda entry: entry[0]):
            expected = reference.query(box, ids)
            assert packed_hits(engine, hits) == packed_hits(reference, expected)
        assert adaptive_state(engine) == adaptive_state(reference)
        engine.disk.backend.inner.disarm()
        assert disk_files(engine) == disk_files(reference)


class TestFailedSplitWithoutRetry:
    """On a store without ``RetryingBackend`` a split whose write raises has
    already overwritten part of its parent's pages, so the partition file
    disagrees with the tree until ``recover()``.  Leaving the file intact
    (or tainting the engine) is not done; what holds is that no query
    answers wrongly: each later answer is exact or a storage error."""

    @pytest.fixture(scope="class")
    def scenario(self):
        suite = build_benchmark_suite(
            n_datasets=4, objects_per_dataset=3000, seed=7, buffer_pages=0
        )
        workload = generate_workload(
            suite.universe,
            [dataset.dataset_id for dataset in suite.datasets],
            150,
            seed=7,
            volume_fraction=1e-3,
            datasets_per_query=3,
            ranges="clustered",
        )
        queries = [(query.box, query.dataset_ids) for query in workload]
        brute = BruteForceScan(suite.fork().catalog)
        return suite, queries, [hit_keys(brute.query(box, ids)) for box, ids in queries]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_every_answer_is_exact_or_a_storage_error(self, scenario, seed):
        suite, queries, expected = scenario
        plan = FaultPlan(seed=seed, write_error_rate=0.02)
        faulty = fork_with(suite, lambda backend: FaultInjectingBackend(backend, plan))
        engine = SpaceOdyssey(faulty.catalog, OdysseyConfig())
        failures = []
        for (box, ids), exact in zip(queries, expected):
            try:
                hits = engine.query(box, ids)
            except StorageError as error:
                failures.append(type(error))
                continue
            assert hit_keys(hits) == exact
        # Some queries met a write fault, and some later ones read a group
        # a failed split left short.
        assert TransientIOError in failures and CorruptPageError in failures


# ---------------------------------------------------------------------- #
# Circuit breaker
# ---------------------------------------------------------------------- #


class TestCircuitBreaker:
    def test_breaker_opens_and_sheds_with_typed_error(self, engine, monkeypatch):
        monkeypatch.setattr(service_module, "BREAKER_COOLDOWN_S", 60.0)  # stays open
        threshold = service_module.BREAKER_THRESHOLD
        flaky = FlakyEngine(engine)
        flaky.armed_error = StorageError("storage on fire")
        svc = service(flaky)
        with svc:
            failures = [svc.submit(BOX, (0,)).exception(timeout=10) for _ in range(threshold)]
            assert all(isinstance(error, StorageError) for error in failures)
            calls_when_opened = flaky.calls
            # The breaker is now open: queries resolve immediately with a
            # typed error (never a hang) and the engine is not touched.
            shed = [svc.submit(BOX, (0,)).exception(timeout=10) for _ in range(3)]
            assert all(isinstance(error, ServiceDegraded) for error in shed)
            assert flaky.calls == calls_when_opened
            assert not svc.healthy
        stats = svc.stats
        assert stats.breaker_opens == 1
        assert stats.degraded == 3
        assert stats.failed == threshold + 3  # engine failures plus shed queries
        assert stats.submitted == stats.completed + stats.failed + stats.cancelled

    def test_breaker_closes_after_successful_probe(self, engine, monkeypatch):
        monkeypatch.setattr(service_module, "BREAKER_COOLDOWN_S", 0.0)  # half-open at once
        flaky = FlakyEngine(engine)
        flaky.armed_error = StorageError("storage on fire")
        svc = service(flaky)
        with svc:
            for _ in range(service_module.BREAKER_THRESHOLD):
                svc.submit(BOX, (0,)).exception(timeout=10)
            assert svc.stats.breaker_opens == 1
            flaky.armed_error = None  # the storage recovered
            hits = svc.query(BOX, (0,))  # the half-open probe goes through
            assert hit_keys(hits) == hit_keys(engine.query(BOX, (0,)))
            assert svc.healthy
            assert hit_keys(svc.query(BOX, (0,))) == hit_keys(hits)

    def test_only_consecutive_storage_failures_open_it(self, engine):
        """A batch without a storage failure resets the count: one answered
        query between two runs of ``BREAKER_THRESHOLD - 1`` storage
        failures keeps the breaker closed."""
        flaky = FlakyEngine(engine)
        svc = service(flaky)
        with svc:
            for _ in range(2):
                flaky.armed_error = StorageError("storage on fire")
                for _ in range(service_module.BREAKER_THRESHOLD - 1):
                    svc.submit(BOX, (0,)).exception(timeout=10)
                flaky.armed_error = None
                svc.query(BOX, (0,), timeout=10)
        assert (svc.stats.failed, svc.stats.breaker_opens, svc.stats.degraded) == (
            2 * (service_module.BREAKER_THRESHOLD - 1), 0, 0
        )
        assert svc.healthy

    def test_a_client_error_probe_closes_the_breaker(self, engine, monkeypatch):
        """The half-open probe reached the engine and met no storage
        failure, so a probe that fails on an unknown dataset still closes
        the breaker."""
        monkeypatch.setattr(service_module, "BREAKER_COOLDOWN_S", 0.0)
        flaky = FlakyEngine(engine)
        flaky.armed_error = StorageError("storage on fire")
        svc = service(flaky)
        with svc:
            for _ in range(service_module.BREAKER_THRESHOLD):
                svc.submit(BOX, (0,)).exception(timeout=10)
            assert svc.stats.breaker_opens == 1
            flaky.armed_error = None
            assert isinstance(svc.submit(BOX, (99,)).exception(timeout=10), KeyError)
            assert svc.healthy
        assert svc.stats.degraded == 0

    def test_client_errors_never_open_the_breaker(self, engine):
        """Every fourth of 40 queries names an unknown dataset: each batch
        holds a failed query, yet none is a storage failure, so the other
        30 queries are answered and none is shed."""
        bad = [index % 4 == 3 for index in range(40)]
        with engine.serve(max_batch=4, max_delay_ms=50) as svc:
            submissions = [svc.submit(BOX, (99,) if b else (0, 1)) for b in bad]
            errors = [submission.exception(timeout=30) for submission in submissions]
        assert [type(error) for error, b in zip(errors, bad) if b] == [KeyError] * 10
        assert [error for error, b in zip(errors, bad) if not b] == [None] * 30
        assert (svc.stats.degraded, svc.stats.breaker_opens) == (0, 0)
        assert svc.healthy


class TestCorruptGroup:
    def test_a_group_that_decodes_short_opens_the_breaker(self, engine, monkeypatch):
        """A partition group whose page is rewritten, CRC-valid, with one
        record fewer than its run claims is a storage failure: each query
        that reads it fails with ``CorruptPageError``, and after
        ``BREAKER_THRESHOLD`` such batches the breaker opens."""
        monkeypatch.setattr(service_module, "BREAKER_COOLDOWN_S", 60.0)  # stays open
        explore(engine, [(BOX, (0,))])
        tree, disk = engine.trees[0], engine.disk
        table = tree.leaf_snapshot()
        rows = tree.leaves_overlapping_vectorized(BOX)
        page = table.runs[rows[table.n_records[rows] > 0][0]].extents[0].start
        name = tree.file.name
        records = decode_page_array(tree.file.dtype, disk.backend.read(name, page))
        disk.backend.write(name, page, encode_page_array(records[:-1], disk.page_size))
        disk.buffer_pool.invalidate_page(name, page)
        threshold = service_module.BREAKER_THRESHOLD
        with service(engine) as svc:
            failures = [svc.submit(BOX, (0,)).exception(timeout=10) for _ in range(threshold)]
            assert [type(error) for error in failures] == [CorruptPageError] * threshold
            assert isinstance(svc.submit(BOX, (0,)).exception(timeout=10), ServiceDegraded)
            assert not svc.healthy
        assert svc.stats.breaker_opens == 1


class TestParameterValidation:
    def test_retired_degradation_settings_are_rejected(self, engine):
        """The service takes three settings; the breaker's are constants
        and there is no service-level retry to tune."""
        for setting in ("batch_retries", "retry_backoff_ms", "breaker_threshold", "sleep"):
            with pytest.raises(TypeError):
                QueryService(engine, **{setting: 0})
            with pytest.raises(TypeError):
                engine.serve(**{setting: 0})


# ---------------------------------------------------------------------- #
# A batch whose writer half raises partway through
# ---------------------------------------------------------------------- #


class TestWriterHalfFailure:
    """The third of four served queries fails in its writer half: the two
    before it keep their batch answers, it takes its error without running
    again, and the service ends as sequential execution in arrival order
    does."""

    @staticmethod
    def setup_failure(monkeypatch, n_queries, error):
        """The suite, ``n_queries`` queries on datasets 0 and 1, and
        ``StatisticsCollector.record_query`` raising ``error`` on its third
        call; returns the suite, the queries and the call list to clear."""
        suite = build_benchmark_suite(n_datasets=3, objects_per_dataset=400, seed=3)
        queries = [
            (query.box, query.dataset_ids)
            for query in generate_workload(
                suite.universe, [0, 1], n_queries, seed=7, datasets_per_query=2,
                volume_fraction=5e-2,
            )
        ]
        real, calls = StatisticsCollector.record_query, []

        def record_query(collector, *args, **kwargs):
            calls.append(None)
            if len(calls) == 3:
                raise error
            return real(collector, *args, **kwargs)

        monkeypatch.setattr(StatisticsCollector, "record_query", record_query)
        return suite, queries, calls

    @staticmethod
    def outcome(engine, call):
        try:
            return packed_hits(engine, call())
        except CorruptPageError:
            return None

    def answer(self, engine, submission):
        return self.outcome(engine, lambda: submission.result(timeout=30))

    def sequential(self, engine, queries):
        return [self.outcome(engine, lambda: engine.query(box, ids)) for box, ids in queries]

    @pytest.mark.parametrize("journaled", [False, True])
    def test_served_batch_equals_sequential_arrival_order(
        self, tmp_path, monkeypatch, journaled
    ):
        error = CorruptPageError("injected writer-half failure")
        suite, queries, calls = self.setup_failure(monkeypatch, 4, error)

        def observed(name, run):
            """The outcomes and end state of ``run`` on a fresh engine."""
            calls.clear()
            journal = tmp_path / name if journaled else None
            engine = SpaceOdyssey(suite.fork().catalog, journal=journal)
            outcomes, log = run(engine), engine._processor.durability
            committed = log and log.committed_queries
            return outcomes, adaptive_state(engine), disk_files(engine), committed

        def served(engine):
            with engine.serve(max_batch=len(queries), max_delay_ms=1000) as service:
                submissions = [service.submit(box, ids) for box, ids in queries]
                outcomes = [self.answer(engine, s) for s in submissions]
            assert service.stats.fallbacks == 1
            return outcomes

        expected = observed("sequential.log", lambda e: self.sequential(e, queries))
        assert [hits is None for hits in expected[0]] == [False, False, True, False]
        assert observed("served.log", served) == expected

    def test_a_transient_writer_half_error_is_not_run_again(self, monkeypatch):
        """A transient fault raised in query 3's writer half is that
        query's answer: the service records no fourth statistics update
        for it, and the queries around it are answered."""
        error = TransientIOError("injected writer-half fault")
        suite, queries, calls = self.setup_failure(monkeypatch, 4, error)
        engine = SpaceOdyssey(suite.fork().catalog)
        with engine.serve(max_batch=len(queries), max_delay_ms=1000) as service:
            submissions = [service.submit(box, ids) for box, ids in queries]
            errors = [s.exception(timeout=30) for s in submissions]
        assert [e is error for e in errors] == [False, False, True, False]
        assert errors.count(None) == 3
        assert len(calls) == len(queries)  # query 3 recorded once, when it raised
        assert (service.stats.fallbacks, service.stats.failed) == (1, 1)

    def test_only_queries_that_ran_are_charged(self, tmp_path, monkeypatch):
        """A batch charges each query's simulated CPU as its writer half
        runs: one that stops at query 3 has charged what sequential
        ``query()`` charged through query 3, and the served run (the batch,
        then query 4 alone) what the whole sequential run charged."""
        error = CorruptPageError("injected writer-half failure")
        suite, queries, calls = self.setup_failure(monkeypatch, 4, error)
        reference = SpaceOdyssey(suite.fork().catalog)
        self.sequential(reference, queries[:3])
        through_third = reference.disk.stats.cpu_seconds
        self.sequential(reference, queries[3:])
        whole = reference.disk.stats.cpu_seconds
        assert 0 < through_third < whole

        calls.clear()
        engine = SpaceOdyssey(suite.fork().catalog, journal=tmp_path / "batch.log")
        with pytest.raises(CorruptPageError):
            engine.query_batch(queries)
        assert engine.disk.stats.cpu_seconds == through_third

        calls.clear()
        engine = SpaceOdyssey(suite.fork().catalog)
        with engine.serve(max_batch=len(queries), max_delay_ms=1000) as service:
            submissions = [service.submit(box, ids) for box, ids in queries]
            outcomes = [self.answer(engine, s) for s in submissions]
        assert [hits is None for hits in outcomes] == [False, False, True, False]
        assert engine.disk.stats.cpu_seconds == whole

    def test_a_reraised_error_carries_no_earlier_prefix(self, monkeypatch):
        """The writer half's error instance, raised again before the next
        batch does any work: that batch takes no answer of the first and
        is replayed whole."""
        error = CorruptPageError("injected writer-half failure")
        suite, queries, calls = self.setup_failure(monkeypatch, 8, error)
        reference = SpaceOdyssey(suite.fork().catalog)
        expected = self.sequential(reference, queries)
        assert [hits is None for hits in expected] == [False, False, True] + [False] * 5

        calls.clear()
        engine = SpaceOdyssey(suite.fork().catalog)
        batches = []

        def query_batch(*args, **kwargs):
            batches.append(None)
            if len(batches) == 2:
                raise error
            return SpaceOdyssey.query_batch(engine, *args, **kwargs)

        monkeypatch.setattr(engine, "query_batch", query_batch)
        outcomes = []
        with engine.serve(max_batch=4, max_delay_ms=1000) as service:
            for first in (0, 4):
                submissions = [service.submit(box, ids) for box, ids in queries[first : first + 4]]
                outcomes += [self.answer(engine, s) for s in submissions]
        assert (len(batches), service.stats.fallbacks) == (2, 2)
        assert outcomes == expected
        assert adaptive_state(engine) == adaptive_state(reference)
