"""Unit and integration tests for the telemetry layer (:mod:`repro.obs`).

Covers the three layers the module promises — tracing, the metrics
registry, exporters — plus the wiring: trace structure across all four
execution modes (span parentage, worker-thread parenting, ring-buffer
eviction), registry adapter invariants (snapshot totals reconcile
exactly with the legacy subsystem counters they adopt), exporter golden
outputs, the disk stats snapshot satellite, service latency digests,
epoch-retention gauges, structured recovery logs and the ``stats`` CLI
command.
"""

from __future__ import annotations

import json
import logging
import threading

import pytest

from repro.core.config import OdysseyConfig
from repro.core.odyssey import SpaceOdyssey
from repro.data.suite import build_benchmark_suite
from repro.geometry.box import Box
import repro.obs
from repro.obs import (
    EngineSnapshot,
    Histogram,
    JsonLogFormatter,
    MetricsRegistry,
    Tracer,
    configure_json_logging,
    maybe_span,
    snapshot_to_json,
    snapshot_to_prometheus,
    spans_to_json,
    write_trace,
)
from repro.obs.metrics import log_bucket_bounds
from repro.obs.trace import _NULL_SPAN
from repro.storage.cost_model import DiskModel

from tests.oracle import make_workload


@pytest.fixture(scope="module")
def suite():
    return build_benchmark_suite(
        n_datasets=2,
        objects_per_dataset=250,
        seed=11,
        model=DiskModel(seek_time_s=1e-4),
    )


@pytest.fixture(scope="module")
def workload(suite):
    return make_workload(suite, n=10, seed=3)


# ---------------------------------------------------------------------- #
# Tracer
# ---------------------------------------------------------------------- #


class TestTracer:
    def test_nesting_follows_the_thread_stack(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert inner.parent_id == outer.span_id
                assert inner.trace_id == outer.trace_id
                assert tracer.current_span() is inner
        assert tracer.current_span() is None
        names = [span.name for span in tracer.finished()]
        assert names == ["inner", "outer"]  # children end first

    def test_rootless_spans_start_new_traces(self):
        tracer = Tracer()
        with tracer.span("a") as a:
            pass
        with tracer.span("b") as b:
            pass
        assert a.parent_id is None and b.parent_id is None
        assert a.trace_id != b.trace_id

    def test_explicit_parent_crosses_threads(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            recorded = []

            def worker():
                # A pool thread has an empty stack; parent= links it.
                with tracer.span("work", parent=root) as span:
                    recorded.append(span)

            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert recorded[0].parent_id == root.span_id
        assert recorded[0].trace_id == root.trace_id

    def test_ring_buffer_evicts_oldest_and_counts(self):
        tracer = Tracer(capacity=3)
        for index in range(5):
            with tracer.span(f"s{index}"):
                pass
        assert len(tracer) == 3
        assert tracer.evicted == 2
        assert [span.name for span in tracer.finished()] == ["s2", "s3", "s4"]

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)

    def test_record_completed_grafts_without_stack(self):
        tracer = Tracer()
        with tracer.span("phase") as phase:
            grafted = tracer.record_completed(
                "worker", parent=phase, start_wall=123.0, duration_s=0.5, pid=42
            )
            # Grafting must not disturb the open-span stack.
            assert tracer.current_span() is phase
        assert grafted.parent_id == phase.span_id
        assert grafted.start_wall == 123.0
        assert grafted.duration_s == 0.5
        assert grafted.attributes["pid"] == 42

    def test_event_parents_to_current_span(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            event = tracer.event("tick", detail=1)
        assert event.parent_id == root.span_id
        assert event.duration_s == 0.0

    def test_drain_empties_the_ring(self):
        tracer = Tracer()
        with tracer.span("once"):
            pass
        assert [span.name for span in tracer.drain()] == ["once"]
        assert len(tracer) == 0
        assert tracer.finished() == []


class TestMaybeSpan:
    def test_disabled_path_is_one_shared_noop(self):
        first = maybe_span(None, "anything", attr=1)
        second = maybe_span(None, "other")
        assert first is second is _NULL_SPAN
        with first as span:
            assert span is None

    def test_enabled_path_records(self):
        tracer = Tracer()
        with maybe_span(tracer, "phase", k=1) as span:
            assert span is not None and span.attributes == {"k": 1}
        assert [s.name for s in tracer.finished()] == ["phase"]


# ---------------------------------------------------------------------- #
# Metrics
# ---------------------------------------------------------------------- #


class TestHistogram:
    def test_observe_summary_and_percentiles(self):
        histogram = Histogram("h", bounds=(1.0, 2.0, 4.0))
        for value in (0.5, 0.6, 1.5, 3.0):
            histogram.observe(value)
        summary = histogram.summary()
        assert summary.count == 4
        assert summary.total == pytest.approx(5.6)
        assert summary.minimum == 0.5
        assert summary.maximum == 3.0
        # p50 is the upper bound of the bucket holding the median.
        assert summary.p50 == 1.0
        assert summary.p99 == 3.0  # clamped to the observed maximum

    def test_empty_summary_is_zero(self):
        summary = Histogram("h").summary()
        assert summary.count == 0 and summary.p99 == 0.0

    def test_overflow_bucket(self):
        histogram = Histogram("h", bounds=(1.0,))
        histogram.observe(10.0)
        state = histogram.to_dict()
        assert state["bucket_counts"] == [0]
        assert state["overflow"] == 1

    def test_merge_adds_bucket_counts(self):
        bounds = (1.0, 2.0)
        a, b = Histogram("a", bounds), Histogram("b", bounds)
        a.observe(0.5)
        b.observe(1.5)
        b.observe(9.0)
        a.merge(b)
        summary = a.summary()
        assert summary.count == 3
        assert summary.minimum == 0.5 and summary.maximum == 9.0
        assert a.to_dict()["overflow"] == 1

    def test_merge_requires_identical_bounds(self):
        with pytest.raises(ValueError):
            Histogram("a", (1.0,)).merge(Histogram("b", (2.0,)))

    def test_default_bounds_are_shared_and_valid(self):
        assert Histogram("a").bounds == Histogram("b").bounds
        with pytest.raises(ValueError):
            log_bucket_bounds(growth=1.0)
        with pytest.raises(ValueError):
            Histogram("h", bounds=(2.0, 1.0))


class TestMetricsRegistry:
    def test_adapter_flattens_nested_mappings_under_prefix(self):
        registry = MetricsRegistry()
        registry.add_counter_source(
            "disk", lambda: {"pages": 3, "by_kind": {"seq": 1, "rand": 2}}
        )
        snapshot = registry.snapshot()
        assert snapshot.counters == {
            "disk.pages": 3,
            "disk.by_kind.seq": 1,
            "disk.by_kind.rand": 2,
        }

    def test_raising_source_is_skipped(self):
        registry = MetricsRegistry()

        def broken():
            raise RuntimeError("dead weakref")

        registry.add_counter_source("bad", broken)
        registry.add_counter_source("good", lambda: {"x": 1})
        assert registry.snapshot().counters == {"good.x": 1}

    def test_histogram_sources_are_adopted(self):
        registry = MetricsRegistry()
        external = Histogram("ext", bounds=(1.0,))
        registry.add_histogram_source("ext", lambda: external)
        registry.add_histogram_source("gone", lambda: None)
        external.observe(0.5)
        snapshot = registry.snapshot()
        assert snapshot.histograms["ext"]["count"] == 1
        assert "gone" not in snapshot.histograms

    def test_registry_owns_no_write_side_metrics(self):
        # The registry adopts existing counters; it creates none of its own.
        for name in ("counter", "gauge", "histogram"):
            assert not hasattr(MetricsRegistry, name)
        assert not {"Counter", "Gauge"} & set(repro.obs.__all__)


# ---------------------------------------------------------------------- #
# Exporters
# ---------------------------------------------------------------------- #


class TestExporters:
    @staticmethod
    def _tiny_snapshot() -> EngineSnapshot:
        histogram = Histogram("h", bounds=(1.0, 2.0))
        histogram.observe(0.5)
        histogram.observe(3.0)
        return EngineSnapshot(
            taken_at=0.0,
            counters={"a.b": 2},
            gauges={"g": 1.5},
            histograms={"h": histogram.to_dict()},
        )

    def test_prometheus_golden_output(self):
        text = snapshot_to_prometheus(self._tiny_snapshot())
        assert text == (
            "# TYPE repro_a_b counter\n"
            "repro_a_b 2\n"
            "# TYPE repro_g gauge\n"
            "repro_g 1.5\n"
            "# TYPE repro_h histogram\n"
            'repro_h_bucket{le="1.0"} 1\n'
            'repro_h_bucket{le="2.0"} 1\n'
            'repro_h_bucket{le="+Inf"} 2\n'
            "repro_h_sum 3.5\n"
            "repro_h_count 2\n"
        )

    def test_json_round_trips(self):
        document = json.loads(snapshot_to_json(self._tiny_snapshot()))
        assert document["counters"]["a.b"] == 2
        assert document["histograms"]["h"]["bucket_counts"] == [1, 0]

    def test_spans_to_json_and_write_trace(self, tmp_path):
        tracer = Tracer()
        with tracer.span("root", k=1):
            with tracer.span("child"):
                pass
        document = json.loads(spans_to_json(tracer.finished(), evicted=7))
        assert document["evicted"] == 7
        assert [span["name"] for span in document["spans"]] == ["child", "root"]
        path = tmp_path / "trace.json"
        assert write_trace(tracer, path) == 2
        on_disk = json.loads(path.read_text())
        assert on_disk["spans"][1]["attributes"] == {"k": 1}


# ---------------------------------------------------------------------- #
# Structured logs
# ---------------------------------------------------------------------- #


class TestJsonLogging:
    def test_formatter_emits_json_with_extras(self):
        record = logging.LogRecord(
            "repro.test", logging.INFO, __file__, 1, "hello %s", ("world",), None
        )
        record.replayed_queries = 3
        payload = json.loads(JsonLogFormatter().format(record))
        assert payload["message"] == "hello world"
        assert payload["level"] == "INFO"
        assert payload["logger"] == "repro.test"
        assert payload["replayed_queries"] == 3

    def test_configure_is_idempotent(self):
        logger = logging.getLogger("repro")
        before = list(logger.handlers)
        try:
            handler = configure_json_logging()
            again = configure_json_logging()
            assert handler not in logger.handlers  # replaced, not stacked
            json_handlers = [
                h for h in logger.handlers if getattr(h, "_repro_json", False)
            ]
            assert json_handlers == [again]
        finally:
            logger.handlers[:] = before

    def test_recovery_emits_structured_progress(self, tmp_path, caplog):
        suite = build_benchmark_suite(
            n_datasets=2, objects_per_dataset=200, seed=5
        )
        engine = SpaceOdyssey(
            suite.catalog, journal=tmp_path / "manifest.journal"
        )
        window = Box.cube(
            center=tuple(500.0 for _ in range(suite.catalog.dimension)),
            side=200.0,
        )
        engine.query(window, [0, 1])
        with caplog.at_level(logging.INFO, logger="repro.recovery"):
            recovered = SpaceOdyssey.recover(engine.journal, disk=engine.disk)
        messages = [record.message for record in caplog.records]
        assert "recovery started" in messages
        assert "recovery complete" in messages
        complete = next(
            record
            for record in caplog.records
            if record.message == "recovery complete"
        )
        assert complete.replayed_queries == 1
        assert recovered.summary().queries_executed == 1


# ---------------------------------------------------------------------- #
# Disk stats snapshot (satellite: atomic copy vs documented live view)
# ---------------------------------------------------------------------- #


class TestDiskStatsSnapshot:
    def test_snapshot_is_an_immutable_copy(self, suite, workload):
        engine = SpaceOdyssey(suite.fork().catalog)
        disk = engine.disk
        frozen = disk.stats_snapshot()
        pages_before = frozen.pages_read
        for query in workload[:3]:
            engine.query(query.box, query.dataset_ids)
        assert frozen.pages_read == pages_before, "snapshot mutated after I/O"
        assert disk.stats_snapshot().pages_read > pages_before

    def test_stats_property_remains_the_live_view(self, suite):
        disk = suite.fork().catalog.datasets()[0].disk
        assert disk.stats is disk.stats, "live view must be the shared object"
        assert disk.stats_snapshot() is not disk.stats


# ---------------------------------------------------------------------- #
# Engine telemetry: adapter reconciliation and gauges
# ---------------------------------------------------------------------- #


class TestEngineTelemetry:
    def test_snapshot_reconciles_with_legacy_counters(self, suite, workload):
        engine = SpaceOdyssey(suite.fork().catalog)
        for start in range(0, len(workload), 4):
            engine.query_batch(workload[start : start + 4])
        snapshot = engine.telemetry()
        io = engine.disk.stats_snapshot()
        pool = engine.disk.buffer_pool.counters()
        summary = engine.summary()
        assert snapshot.counters["disk.io.pages_read"] == io.pages_read
        assert snapshot.counters["disk.io.cache_hits"] == io.cache_hits
        assert (
            snapshot.counters["disk.io.reads_by_kind.sequential"]
            == io.reads_by_kind["sequential"]
        )
        assert snapshot.counters["disk.buffer.hits"] == pool.hits
        assert snapshot.counters["disk.buffer.misses"] == pool.misses
        assert (
            snapshot.counters["engine.queries_executed"]
            == summary.queries_executed
        )
        assert (
            snapshot.counters["engine.total_partitions"]
            == summary.total_partitions
        )

    def test_epoch_gauges_quiescent_and_pinned(self, suite, workload):
        engine = SpaceOdyssey(suite.fork().catalog)
        assert "epoch.live_epochs" not in engine.telemetry().gauges
        assert engine.epochs is None  # telemetry observes; it never starts the epochs
        for query in workload[:2]:
            engine.query(query.box, query.dataset_ids)
        engine.query_batch(workload[2:3], snapshot=True)  # starts the epochs
        manager = engine.epochs
        gauges = manager.gauges()
        assert gauges == {
            "live_epochs": 1,
            "pinned_readers": 0,
            "retained_pages": 0,
            "retained_bytes": 0,
        }
        epoch = manager.pin()
        try:
            assert manager.gauges()["pinned_readers"] == 1
        finally:
            manager.unpin(epoch)
        snapshot = engine.telemetry()
        assert snapshot.gauges["epoch.live_epochs"] == 1
        assert snapshot.gauges["epoch.pinned_readers"] == 0

    def test_trace_gauges_follow_enable_disable(self, suite):
        engine = SpaceOdyssey(suite.fork().catalog)
        assert engine.tracer is None
        assert engine.telemetry().gauges["trace.enabled"] == 0
        tracer = engine.enable_tracing(capacity=128)
        assert engine.tracer is tracer
        gauges = engine.telemetry().gauges
        assert gauges["trace.enabled"] == 1
        assert gauges["trace.capacity"] == 128
        engine.disable_tracing()
        assert engine.tracer is None

    def test_retry_and_fault_adapters_reconcile(self, workload):
        from repro.storage.faults import FaultInjectingBackend, FaultPlan
        from repro.storage.retry import RetryingBackend, RetryPolicy

        from tests.oracle import fork_with

        local_suite = build_benchmark_suite(
            n_datasets=2, objects_per_dataset=200, seed=5
        )
        plan = FaultPlan(seed=1, read_error_rate=0.05, corrupt_read_rate=0.03)
        forked = fork_with(
            local_suite,
            lambda backend: RetryingBackend(
                FaultInjectingBackend(backend, plan),
                RetryPolicy(max_attempts=8, seed=1),
                sleep=lambda _s: None,
            ),
        )
        engine = SpaceOdyssey(forked.catalog)
        for query in workload[:5]:
            engine.query(query.box, query.dataset_ids)
        snapshot = engine.telemetry()
        retrying = engine.disk.backend
        counters = retrying.counters()
        assert snapshot.counters["storage.retry.retries"] == counters.retries
        assert (
            snapshot.counters["storage.retry.corrupt_reads_detected"]
            == counters.corrupt_reads_detected
        )
        fault = retrying.inner.counters()
        assert (
            snapshot.counters["storage.faults.transient_read_errors"]
            == fault.transient_read_errors
        )

    def test_prometheus_export_of_live_engine_parses(self, suite, workload):
        engine = SpaceOdyssey(suite.fork().catalog)
        engine.query(workload[0].box, workload[0].dataset_ids)
        text = snapshot_to_prometheus(engine.telemetry())
        for line in text.strip().splitlines():
            if line.startswith("#"):
                assert line.startswith("# TYPE repro_")
            else:
                name, value = line.rsplit(" ", 1)
                assert name.startswith("repro_")
                float(value)  # every sample parses as a number


# ---------------------------------------------------------------------- #
# Trace structure per execution mode (parentage: the engine oracle's traced rows)
# ---------------------------------------------------------------------- #


class TestTraceStructure:
    @pytest.fixture(scope="class")
    def traced_runs(self, suite, workload):
        """Each execution mode run once with tracing on; returns tracers."""
        config = OdysseyConfig()
        runs = {}

        engine = SpaceOdyssey(suite.fork().catalog, config)
        tracer = engine.enable_tracing(capacity=8192)
        for query in workload:
            engine.query(query.box, query.dataset_ids)
        runs["columnar"] = tracer

        def run_batched(name, **kwargs):
            engine = SpaceOdyssey(suite.fork().catalog, config)
            tracer = engine.enable_tracing(capacity=8192)
            for start in range(0, len(workload), 4):
                engine.query_batch(workload[start : start + 4], **kwargs)
            runs[name] = tracer

        run_batched("batch")
        run_batched("parallel", workers=2)
        run_batched("epoch", snapshot=True, workers=2)
        return runs

    def test_sequential_modes_emit_query_spans(self, traced_runs, workload):
        spans = traced_runs["columnar"].finished()
        queries = [span for span in spans if span.name == "query"]
        assert len(queries) == len(workload)
        for span in queries:
            assert span.parent_id is None  # each query is its own trace
            assert "route" in span.attributes
            assert "hits" in span.attributes

    @pytest.mark.parametrize("mode", ["batch", "parallel", "epoch"])
    def test_batch_modes_nest_phases_under_roots(self, traced_runs, mode):
        spans = traced_runs[mode].finished()
        by_id = {span.span_id: span for span in spans}
        roots = [span for span in spans if span.name == "batch"]
        assert roots, f"{mode}: missing batch root spans"
        executors = {span.attributes["executor"] for span in roots}
        expected = {"batch": "serial", "parallel": "thread", "epoch": "epoch"}[mode]
        assert executors == {expected}
        phases = [
            span for span in spans if span.name in ("batch.overlap", "batch.read_filter")
        ]
        assert phases, f"{mode}: missing phase spans"
        root_ids = {span.span_id for span in roots}
        for span in phases:
            # Phases hang off the root, possibly through epoch.prepare.
            ancestor = span
            while ancestor.parent_id is not None:
                ancestor = by_id[ancestor.parent_id]
            assert ancestor.span_id in root_ids

    def test_thread_parallel_read_spans_parented_to_phase(self, traced_runs, workload):
        spans = traced_runs["parallel"].finished()
        by_id = {span.span_id: span for span in spans}
        reads = [span for span in spans if span.name == "query.read"]
        assert len(reads) == len(workload)
        for span in reads:
            assert by_id[span.parent_id].name == "batch.read_filter"
        assert not any(span.name == "query.filter" for span in spans)

    def test_epoch_mode_records_prepare_and_commit(self, traced_runs):
        spans = traced_runs["epoch"].finished()
        names = {span.name for span in spans}
        assert {"epoch.prepare", "epoch.commit", "epoch.publish"} <= names
        prepares = [span for span in spans if span.name == "epoch.prepare"]
        assert all("epoch" in span.attributes for span in prepares)


# ---------------------------------------------------------------------- #
# Serving: latency digest and serve-phase spans
# ---------------------------------------------------------------------- #


class TestServeTelemetry:
    def test_latency_digest_and_serve_spans(self, suite, workload):
        engine = SpaceOdyssey(suite.fork().catalog)
        tracer = engine.enable_tracing()
        with engine.serve(max_batch=4, max_delay_ms=1.0) as service:
            submissions = [
                service.submit(query.box, query.dataset_ids)
                for query in workload
            ]
            for submission in submissions:
                submission.result(timeout=30.0)
        stats = service.stats
        assert stats.completed == len(workload)
        assert stats.latency is not None
        assert stats.latency.count == len(workload)
        assert stats.latency.maximum >= stats.latency.minimum > 0.0
        assert stats.latency.p99 >= stats.latency.p50
        spans = tracer.finished()
        serve_spans = [
            span for span in spans if span.name.startswith("serve.")
        ]
        assert serve_spans, "no serve-phase spans recorded"
        flushes = {span.attributes.get("flush") for span in serve_spans}
        assert flushes <= {"size", "deadline", "drain"}
        # The engine-level registry merges latency across services.
        snapshot = engine.telemetry()
        assert (
            snapshot.histograms["serve.latency_seconds"]["count"]
            == len(workload)
        )
        assert snapshot.counters["serve.completed"] == len(workload)


# ---------------------------------------------------------------------- #
# CLI: the stats command
# ---------------------------------------------------------------------- #


class TestStatsCommand:
    def test_stats_json_and_trace(self, tmp_path, capsys):
        from repro.cli import main

        output = tmp_path / "stats.json"
        trace = tmp_path / "trace.json"
        assert (
            main(
                [
                    "stats",
                    "--scale",
                    "tiny",
                    "--queries",
                    "4",
                    "--batch-size",
                    "2",
                    "--output",
                    str(output),
                    "--trace",
                    str(trace),
                ]
            )
            == 0
        )
        snapshot = json.loads(output.read_text())
        assert snapshot["counters"]["engine.queries_executed"] == 4
        document = json.loads(trace.read_text())
        assert document["spans"], "stats --trace wrote no spans"

    def test_stats_prometheus_to_stdout(self, capsys):
        from repro.cli import main

        assert (
            main(
                ["stats", "--queries", "2", "--batch-size", "2", "--format", "prometheus"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert out.startswith("# TYPE repro_")
        assert "repro_engine_queries_executed 2" in out
