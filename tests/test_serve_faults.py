"""Graceful degradation and shutdown semantics of the serving frontend.

A ``FlakyEngine`` delegating wrapper injects failures at exact engine
entry points (``query``, ``query_batch``), so every scenario is
deterministic: transient errors must be retried with backoff, repeated
failures must open the circuit breaker (typed ``ServiceDegraded`` shed,
never a hang), a cooled-down breaker must close again on a successful
probe, and ``close()``/``submit()`` must behave deterministically.
A batch whose writer half raises partway through must leave the service
exactly where sequential execution in arrival order leaves the engine.
"""

from __future__ import annotations

import time

import pytest

from repro.bench.runner import generate_workload
from repro.core.config import OdysseyConfig
from repro.core.odyssey import SpaceOdyssey
from repro.core.statistics import StatisticsCollector
from repro.data.suite import build_benchmark_suite
from repro.geometry.box import Box
from repro.serve.service import (
    QueryService,
    ServiceClosed,
    ServiceDegraded,
)
from repro.storage.errors import CorruptPageError, TransientIOError

from tests.oracle import adaptive_state, disk_files, packed_hits


class FlakyEngine:
    """Delegates to a real engine, injecting scripted failures.

    ``transient_query_failures`` — the next N ``query`` calls raise
    :class:`TransientIOError` (then delegate).
    ``batch_error`` — while set, every ``query_batch`` call raises it.
    ``armed_error`` — while set, ``query`` and ``query_batch`` both raise
    it (a persistently broken engine).
    """

    def __init__(self, engine: SpaceOdyssey) -> None:
        self._engine = engine
        self.transient_query_failures = 0
        self.batch_error: BaseException | None = None
        self.armed_error: BaseException | None = None
        self.engine_calls = 0

    def __getattr__(self, name):
        return getattr(self._engine, name)

    def query(self, box, dataset_ids):
        if self.armed_error is not None:
            raise self.armed_error
        if self.transient_query_failures > 0:
            self.transient_query_failures -= 1
            raise TransientIOError("injected transient query fault")
        self.engine_calls += 1
        return self._engine.query(box, dataset_ids)

    def query_batch(self, queries):
        if self.armed_error is not None:
            raise self.armed_error
        if self.batch_error is not None:
            raise self.batch_error
        self.engine_calls += 1
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
    kwargs.setdefault("sleep", lambda _s: None)
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
# Transient retry with backoff
# ---------------------------------------------------------------------- #


class TestTransientRetry:
    def test_sequential_fallback_retries_transient_queries(self, engine, suite):
        reference = SpaceOdyssey(suite.fork().catalog, OdysseyConfig())
        flaky = FlakyEngine(engine)
        flaky.batch_error = TransientIOError("batch path down")
        flaky.transient_query_failures = 2
        sleeps: list[float] = []
        svc = service(
            flaky, batch_retries=2, retry_backoff_ms=1.0,
            sleep=sleeps.append,
        )
        with svc:
            hits = svc.query(BOX, (0, 1))
        assert hit_keys(hits) == hit_keys(reference.query(BOX, (0, 1)))
        stats = svc.stats
        assert stats.failed == 0
        assert stats.fallbacks == 1  # the broken batch path forced the fallback
        assert stats.retries == 2  # both transient faults absorbed
        assert sleeps == [0.001, 0.002]  # exponential backoff between retries
        assert svc.healthy

    def test_retry_budget_exhaustion_surfaces_the_error(self, engine):
        flaky = FlakyEngine(engine)
        flaky.batch_error = TransientIOError("batch path down")
        flaky.transient_query_failures = 10
        svc = service(flaky, batch_retries=2)
        with svc:
            submission = svc.submit(BOX, (0,))
            error = submission.exception(timeout=10)
        assert isinstance(error, TransientIOError)
        assert svc.stats.failed == 1
        assert svc.stats.retries == 2  # budget spent before surfacing

    def test_backoff_cap_is_configurable(self, engine, suite):
        reference = SpaceOdyssey(suite.fork().catalog, OdysseyConfig())
        flaky = FlakyEngine(engine)
        flaky.batch_error = TransientIOError("batch path down")
        flaky.transient_query_failures = 3
        sleeps: list[float] = []
        svc = service(
            flaky, batch_retries=3, retry_backoff_ms=100.0,
            retry_backoff_max_ms=150.0, sleep=sleeps.append,
        )
        with svc:
            hits = svc.query(BOX, (0, 1))
        assert hit_keys(hits) == hit_keys(reference.query(BOX, (0, 1)))
        # 100 ms doubles to 200 ms but the configured ceiling clips it.
        assert sleeps == [0.1, 0.15, 0.15]

    def test_abort_during_backoff_returns_promptly(self, engine):
        """close(drain=False) must interrupt a backoff wait, not ride it out.

        The dispatcher backs off on an Event wait, so with a 60 s backoff
        an abort still shuts the service down in milliseconds and the
        in-flight submission surfaces the original transient error.
        """
        flaky = FlakyEngine(engine)
        flaky.batch_error = TransientIOError("batch path down")
        flaky.transient_query_failures = 100
        svc = QueryService(
            flaky, max_delay_ms=0.0, batch_retries=10,
            retry_backoff_ms=60_000.0, retry_backoff_max_ms=60_000.0,
        )
        submission = svc.submit(BOX, (0,))
        deadline = time.monotonic() + 10.0
        while svc.stats.retries == 0:  # dispatcher is now inside the backoff
            assert time.monotonic() < deadline, "dispatcher never started retrying"
            time.sleep(0.005)
        started = time.monotonic()
        svc.close(drain=False, timeout=10.0)
        elapsed = time.monotonic() - started
        assert elapsed < 5.0, f"abort waited out the backoff ({elapsed:.1f}s)"
        assert isinstance(submission.exception(timeout=1.0), TransientIOError)

    def test_non_transient_errors_are_not_retried(self, engine):
        flaky = FlakyEngine(engine)
        flaky.armed_error = ValueError("bad dataset id")
        svc = service(flaky, batch_retries=5)
        with svc:
            error = svc.submit(BOX, (0,)).exception(timeout=10)
        assert isinstance(error, ValueError)
        assert svc.stats.retries == 0


# ---------------------------------------------------------------------- #
# Circuit breaker
# ---------------------------------------------------------------------- #


class TestCircuitBreaker:
    def test_breaker_opens_and_sheds_with_typed_error(self, engine):
        flaky = FlakyEngine(engine)
        flaky.armed_error = ValueError("engine on fire")
        svc = service(
            flaky,
            batch_retries=0,
            breaker_threshold=2,
            breaker_cooldown_ms=60_000.0,  # stays open for the whole test
        )
        with svc:
            first = svc.submit(BOX, (0,)).exception(timeout=10)
            second = svc.submit(BOX, (0,)).exception(timeout=10)
            assert isinstance(first, ValueError)
            assert isinstance(second, ValueError)
            calls_when_opened = flaky.engine_calls
            # The breaker is now open: queries resolve immediately with a
            # typed error (never a hang) and the engine is not touched.
            shed = [svc.submit(BOX, (0,)).exception(timeout=10) for _ in range(3)]
            assert all(isinstance(error, ServiceDegraded) for error in shed)
            assert flaky.engine_calls == calls_when_opened
            assert not svc.healthy
        stats = svc.stats
        assert stats.breaker_opens == 1
        assert stats.degraded == 3
        assert stats.failed == 2 + 3  # engine failures plus shed queries
        assert stats.submitted == stats.completed + stats.failed + stats.cancelled

    def test_breaker_closes_after_successful_probe(self, engine):
        flaky = FlakyEngine(engine)
        flaky.armed_error = ValueError("engine on fire")
        svc = service(
            flaky,
            batch_retries=0,
            breaker_threshold=2,
            breaker_cooldown_ms=0.0,  # half-open immediately
        )
        with svc:
            svc.submit(BOX, (0,)).exception(timeout=10)
            svc.submit(BOX, (0,)).exception(timeout=10)
            assert svc.stats.breaker_opens == 1
            flaky.armed_error = None  # the storage recovered
            hits = svc.query(BOX, (0,))  # the half-open probe goes through
            assert hit_keys(hits) == hit_keys(engine.query(BOX, (0,)))
            assert svc.healthy
            assert hit_keys(svc.query(BOX, (0,))) == hit_keys(hits)

    def test_breaker_disabled_never_sheds(self, engine):
        flaky = FlakyEngine(engine)
        flaky.armed_error = ValueError("engine on fire")
        svc = service(flaky, batch_retries=0, breaker_threshold=None)
        with svc:
            errors = [svc.submit(BOX, (0,)).exception(timeout=10) for _ in range(6)]
        assert all(isinstance(error, ValueError) for error in errors)
        assert svc.stats.degraded == 0
        assert svc.stats.breaker_opens == 0


class TestParameterValidation:
    def test_rejects_bad_degradation_parameters(self, engine):
        with pytest.raises(ValueError):
            QueryService(engine, batch_retries=-1)
        with pytest.raises(ValueError):
            QueryService(engine, retry_backoff_ms=-1.0)
        with pytest.raises(ValueError):
            QueryService(engine, retry_backoff_max_ms=-1.0)
        with pytest.raises(ValueError):
            QueryService(engine, breaker_threshold=0)
        with pytest.raises(ValueError):
            QueryService(engine, breaker_cooldown_ms=-1.0)


# ---------------------------------------------------------------------- #
# A batch whose writer half raises partway through
# ---------------------------------------------------------------------- #


class TestWriterHalfFailure:
    """The third of four served queries fails in its writer half: the two
    before it keep their batch answers, it runs again only as a retry, and
    the service ends as sequential execution in arrival order does."""

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

    def sequential(self, engine, queries, retries=0):
        outcomes = []
        for box, ids in queries:
            outcomes.append(self.outcome(engine, lambda: engine.query(box, ids)))
            if outcomes[-1] is None and retries:
                outcomes[-1] = self.outcome(engine, lambda: engine.query(box, ids))
        return outcomes

    @pytest.mark.parametrize("retries", [0, 2])
    @pytest.mark.parametrize("journaled", [False, True])
    def test_served_batch_equals_sequential_arrival_order(
        self, tmp_path, monkeypatch, retries, journaled
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
            with engine.serve(
                max_batch=len(queries), max_delay_ms=1000, breaker_threshold=None,
                batch_retries=retries, sleep=lambda _s: None,
            ) as service:
                submissions = [service.submit(box, ids) for box, ids in queries]
                outcomes = [self.answer(engine, s) for s in submissions]
            assert (service.stats.fallbacks, service.stats.retries) == (1, min(retries, 1))
            return outcomes

        expected = observed("sequential.log", lambda e: self.sequential(e, queries, retries))
        assert [hits is None for hits in expected[0]] == [False, False, not retries, False]
        assert observed("served.log", served) == expected

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
        with engine.serve(
            max_batch=len(queries), max_delay_ms=1000, breaker_threshold=None,
            batch_retries=0, sleep=lambda _s: None,
        ) as service:
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
        with engine.serve(
            max_batch=4, max_delay_ms=1000, breaker_threshold=None, batch_retries=0
        ) as service:
            for first in (0, 4):
                submissions = [service.submit(box, ids) for box, ids in queries[first : first + 4]]
                outcomes += [self.answer(engine, s) for s in submissions]
        assert (len(batches), service.stats.fallbacks) == (2, 2)
        assert outcomes == expected
        assert adaptive_state(engine) == adaptive_state(reference)
