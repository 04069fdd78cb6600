"""The public Space Odyssey facade.

:class:`SpaceOdyssey` wires the Adaptor, Statistics Collector, Merger and
Query Processor together over a dataset catalog and exposes the
:class:`~repro.baselines.interface.MultiDatasetIndex` interface so the
benchmark harness can treat it exactly like the static baselines (with an
empty build phase — that is the point of the paper).

Typical usage::

    from repro import OdysseyConfig, SpaceOdyssey, build_benchmark_suite
    from repro.geometry import Box

    suite = build_benchmark_suite(n_datasets=10, objects_per_dataset=5000)
    odyssey = SpaceOdyssey(suite.catalog)
    hits = odyssey.query(Box.cube(center=(500, 500, 500), side=25.0), [0, 2, 5])

Batched execution
-----------------
When several exploration queries are available at once (a dashboard
refresh, a scripted sweep, a replayed trace), :meth:`SpaceOdyssey.query_batch`
executes them together through :mod:`repro.core.batch`: overlap tests are
resolved per combination with one kernel call and page reads are
deduplicated across the batch.  Results and the post-batch adaptive state
are identical to issuing the same queries sequentially in order::

    batch = odyssey.query_batch([
        (region_a, [0, 2, 5]),
        (region_b, [0, 2, 5]),
        (region_c, [1, 7]),
    ])
    batch.results[0]      # hits of the first query
    batch.reports[2]      # its QueryReport, as in sequential execution
"""

from __future__ import annotations

import os
import weakref
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Iterable

from repro.baselines.interface import MultiDatasetIndex
from repro.core.adaptor import Adaptor
from repro.core.config import OdysseyConfig
from repro.core.merge import MergeDirectory
from repro.core.merger import Merger
from repro.core.partition import PartitionTree
from repro.core.query_processor import QueryProcessor, QueryReport
from repro.core.statistics import StatisticsCollector
from repro.data.dataset import DatasetCatalog
from repro.data.spatial_object import SpatialObject
from repro.geometry.box import Box
from repro.obs.metrics import EngineSnapshot, Histogram, MetricsRegistry
from repro.obs.trace import Tracer
from repro.storage.backend import StorageBackend
from repro.storage.disk import Disk
from repro.storage.journal import ManifestJournal

if TYPE_CHECKING:  # pragma: no cover - import cycle avoidance
    from repro.core.batch import BatchResult
    from repro.serve.service import QueryService


@dataclass(frozen=True, slots=True)
class ExplorationSummary:
    """A snapshot of the adaptive state after some queries have run."""

    queries_executed: int
    datasets_initialized: int
    total_partitions: int
    max_tree_depth: int
    merge_files: int
    merge_pages: int
    merges_performed: int


class SpaceOdyssey(MultiDatasetIndex):
    """Adaptive, in-situ exploration engine over multiple spatial datasets.

    Parameters
    ----------
    catalog:
        The datasets available for exploration (their raw files must
        already exist on the catalog's disk).
    config:
        Engine parameters; defaults to the paper's configuration
        (``rt = 4``, ``ppl = 64``, ``mt = 2``).
    journal:
        A path (or :class:`~repro.storage.journal.ManifestJournal`) to
        journal a crash-consistent manifest to at every commit point,
        enabling :meth:`recover` after a crash.  ``None`` (the default)
        disables durability — nothing about execution changes.
    """

    name = "Odyssey"

    def __init__(
        self,
        catalog: DatasetCatalog,
        config: OdysseyConfig | None = None,
        *,
        journal: str | os.PathLike[str] | ManifestJournal | None = None,
    ) -> None:
        self._catalog = catalog
        self._config = config or OdysseyConfig()
        # Validate ppl against the data dimensionality eagerly so a bad
        # configuration fails at construction, not on the first query.
        self._config.splits_per_dimension(catalog.dimension)
        self._disk: Disk = catalog.datasets()[0].disk
        self._statistics = StatisticsCollector()
        self._directory = MergeDirectory()
        self._adaptor = Adaptor(self._config)
        self._merger = Merger(
            disk=self._disk,
            config=self._config,
            directory=self._directory,
            statistics=self._statistics,
            dimension=catalog.dimension,
        )
        self._processor = QueryProcessor(
            catalog=catalog,
            adaptor=self._adaptor,
            statistics=self._statistics,
            directory=self._directory,
            merger=self._merger,
        )
        self._registry: MetricsRegistry | None = None
        self._services: "weakref.WeakSet[QueryService]" = weakref.WeakSet()
        if self._config.merge_space_budget_pages == 0:
            self.name = "Odyssey w/o merging"
        if journal is not None:
            if not isinstance(journal, ManifestJournal):
                journal = ManifestJournal(journal)
            existing = journal.read_last()
            if existing is not None and existing.get("queries"):
                raise ValueError(
                    "journal already holds committed queries; use "
                    "SpaceOdyssey.recover() to rebuild from it instead of "
                    "attaching a fresh engine"
                )
            self.attach_journal(journal)

    # ------------------------------------------------------------------ #
    # Durability & recovery
    # ------------------------------------------------------------------ #

    def attach_journal(self, journal: ManifestJournal) -> None:
        """Start journaling a crash-consistent manifest at every commit
        point, and make the engine's header durable at once: a fresh
        journal's first base, so a crash before the first commit recovers."""
        from repro.core.recovery import DurabilityLog

        log = DurabilityLog(journal, catalog=self._catalog, config=self._config)
        self._processor.attach_durability(log)
        if self.tracer is not None:
            journal.attach_tracer(self.tracer)
        log.checkpoint()

    @property
    def journal(self) -> ManifestJournal | None:
        """The manifest journal, or ``None`` when durability is disabled."""
        log = self._processor.durability
        return None if log is None else log.journal

    @classmethod
    def recover(
        cls,
        journal_path: str | os.PathLike[str] | ManifestJournal,
        *,
        backend: StorageBackend | None = None,
    ) -> "SpaceOdyssey":
        """Rebuild an engine after a crash from its manifest journal.

        Re-opens the raw dataset files (which survive any crash intact)
        and deterministically replays the committed query log through the
        writer half only — first touch, refinement, statistics, merging;
        no answer is recomputed — yielding an engine whose adaptive state,
        derived on-disk bytes and subsequent answers are bit-identical to a
        never-crashed engine that executed the same committed prefix.
        After a crash between commits, in the same boot, the derived files
        are kept and every storage step takes the runs its journal entry
        recorded, so no page is read or written; otherwise every derived
        file is deleted (partition and merge files may be torn) and
        rebuilt.  A journal of another manifest version than the one this
        engine writes is refused.  See :mod:`repro.core.recovery`.
        """
        from repro.core.recovery import recover

        return recover(journal_path, backend=backend)

    # ------------------------------------------------------------------ #
    # MultiDatasetIndex interface
    # ------------------------------------------------------------------ #

    def build(self) -> None:
        """No up-front work: Space Odyssey indexes while queries execute."""

    @property
    def is_built(self) -> bool:
        """Always true — there is nothing to build in advance."""
        return True

    def query(self, box: Box, dataset_ids: Iterable[int]) -> list[SpatialObject]:
        """Execute a range query over the requested datasets."""
        return self._processor.execute(box, dataset_ids)

    def query_batch(
        self,
        queries,
        *,
        workers: int | None = None,
        snapshot: bool = False,
    ) -> "BatchResult":
        """Execute a batch of range queries together (see :mod:`repro.core.batch`).

        ``queries`` is an iterable of ``(box, dataset_ids)`` pairs,
        :class:`~repro.workload.query.RangeQuery` instances (so a
        :class:`~repro.workload.builder.Workload` works directly), or an
        already-built :class:`~repro.core.batch.QueryBatch`.  Per-query
        result *sets*, reports and the post-batch adaptive state are
        identical to calling :meth:`query` once per entry in order; the
        batch only amortises the work (vectorized overlap tests and
        filtering, page reads deduplicated across the batch).  Two
        documented deviations: hits may come back in a different order
        within a query's result list, and ``QueryReport.objects_examined``
        may differ because the batch reads against start-of-batch trees
        (see :mod:`repro.core.batch`).

        Two choices change how the batch's read phases run, never what it
        returns (see :mod:`repro.core.batch`); results (hit order
        included), reports, adaptive state and on-disk bytes are
        bit-identical across them in isolation.  ``workers=K`` (``K > 1``)
        runs the page reads and decodes (per query) on ``K`` threads.
        ``snapshot=True`` reads a
        pinned epoch snapshot (:mod:`repro.core.epoch`; the first one starts
        the epoch layer) with no lock held, so the reads overlap other
        batches' commits; under concurrency per-batch results stay exact
        (answers depend only on the data and the query window) while
        commits serialize in arrival order.  Either way the commit — per
        query in submission order, its CPU charge, then statistics,
        refinement and merging — runs single-threaded under the engine's
        gate.
        """
        return self._processor.execute_batch(
            queries, workers=workers, snapshot=snapshot
        )

    def prepare_batch(self, queries, *, workers: int | None = None):
        """Run a snapshot batch's lock-free read half; defer its commit.

        Returns a :class:`~repro.core.batch.PreparedBatch` whose results
        are fully materialized against a pinned epoch.  Pass it to
        :meth:`commit_batch` to apply CPU charges and the in-order
        adaptive replay (and publish the next epoch).  Between the two
        calls the engine's gate is free, so other batches may read and
        commit; ``query_batch(..., snapshot=True)`` runs the same two
        halves back to back.
        """
        return self._processor.prepare_batch(queries, workers=workers)

    def commit_batch(self, prepared) -> "BatchResult":
        """Apply a prepared batch's writer phase and return its result."""
        return self._processor.commit_batch(prepared)

    @property
    def epochs(self):
        """The :class:`~repro.core.epoch.EpochManager`, or ``None`` until the
        first snapshot read; reading it never starts the epoch layer."""
        return self._processor.epochs

    def serve(
        self,
        *,
        max_batch: int = 32,
        max_delay_ms: float = 5.0,
        max_pending: int | None = None,
    ) -> "QueryService":
        """Start a multi-tenant serving frontend over this engine.

        Returns a running :class:`~repro.serve.QueryService`: many client
        threads call ``submit(box, dataset_ids)`` concurrently, a
        dedicated dispatcher coalesces submissions into batches (flushing
        at ``max_batch`` queries or after ``max_delay_ms``, whichever
        fires first), drains each batch inline through one
        :meth:`query_batch` call under the gate, and resolves each
        submission's future with its hits or exception.  Per-client
        results are identical to issuing the same queries sequentially in
        arrival order.  Close the service (or use it as a context
        manager) to drain and release it; the engine stays fully usable
        afterwards, and direct ``query``/``query_batch`` calls made while
        the service runs simply interleave through the gate lock.

        The service runs each query at most once: transient storage
        faults are retried by a :class:`~repro.storage.retry.RetryingBackend`
        under the engine's disk, if it has one.  A circuit breaker with
        fixed settings sheds load after repeated storage failures; see
        :mod:`repro.serve.service`.
        """
        from repro.serve.service import QueryService

        service = QueryService(
            self,
            max_batch=max_batch,
            max_delay_ms=max_delay_ms,
            max_pending=max_pending,
        )
        # Weakly tracked so telemetry() can aggregate serving counters
        # without keeping closed services alive.
        self._services.add(service)
        return service

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def catalog(self) -> DatasetCatalog:
        """The datasets available to this engine."""
        return self._catalog

    @property
    def config(self) -> OdysseyConfig:
        """The engine configuration."""
        return self._config

    @property
    def disk(self) -> Disk:
        """The simulated disk all structures live on."""
        return self._disk

    @property
    def statistics(self) -> StatisticsCollector:
        """The statistics collector."""
        return self._statistics

    @property
    def merge_directory(self) -> MergeDirectory:
        """The merge directory."""
        return self._directory

    @property
    def merger(self) -> Merger:
        """The merger component."""
        return self._merger

    @property
    def trees(self) -> dict[int, PartitionTree]:
        """The per-dataset partition trees built so far."""
        return self._processor.trees

    @property
    def last_report(self) -> QueryReport | None:
        """Diagnostics of the most recently executed query."""
        return self._processor.last_report

    def summary(self) -> ExplorationSummary:
        """A structural snapshot of the adaptive state."""
        trees = self._processor.trees
        return ExplorationSummary(
            queries_executed=self._processor.queries_executed,
            datasets_initialized=len(trees),
            total_partitions=sum(tree.n_partitions for tree in trees.values()),
            max_tree_depth=max((tree.depth for tree in trees.values()), default=0),
            merge_files=len(self._directory),
            merge_pages=self._directory.total_pages(),
            merges_performed=self._merger.merges_performed,
        )

    # ------------------------------------------------------------------ #
    # Telemetry (see repro.obs)
    # ------------------------------------------------------------------ #

    @property
    def tracer(self) -> Tracer | None:
        """The attached tracer, or ``None`` (the default: tracing off)."""
        return self._processor.tracer

    def enable_tracing(self, capacity: int = 4096) -> Tracer:
        """Attach a fresh :class:`~repro.obs.Tracer` to every subsystem.

        Observation only: spans never feed back into routing, merging,
        charging or lock ordering, so a traced engine is bit-identical
        to an untraced one (the engine fuzz oracle runs one engine per
        mode with tracing enabled to keep this true).  Returns the
        tracer; read spans via ``tracer.finished()`` / ``drain()``.
        """
        tracer = Tracer(capacity=capacity)
        self._attach_tracer(tracer)
        return tracer

    def disable_tracing(self) -> None:
        """Detach the tracer, restoring the zero-overhead fast path."""
        self._attach_tracer(None)

    def _attach_tracer(self, tracer: Tracer | None) -> None:
        self._processor.attach_tracer(tracer)
        self._disk.attach_tracer(tracer)
        log = self._processor.durability
        if log is not None:
            log.journal.attach_tracer(tracer)

    def metrics_registry(self) -> MetricsRegistry:
        """The engine's metric registry (built lazily, then cached).

        Every subsystem counter family is adopted through a read-time
        adapter, so the registry adds no bookkeeping to any hot path and
        its totals always reconcile with the legacy counters.
        """
        if self._registry is None:
            registry = MetricsRegistry()
            registry.add_counter_source(
                "disk.io", lambda: asdict(self._disk.stats_snapshot())
            )
            registry.add_counter_source(
                "disk.buffer", lambda: asdict(self._disk.buffer_pool.counters())
            )
            registry.add_counter_source("engine", lambda: asdict(self.summary()))
            registry.add_counter_source("storage.retry", self._retry_counters)
            registry.add_counter_source("storage.faults", self._fault_counters)
            registry.add_counter_source("serve", self._serve_counters)
            registry.add_gauge_source("epoch", self._epoch_gauges)
            registry.add_gauge_source("trace", self._trace_gauges)
            registry.add_histogram_source(
                "serve.latency_seconds", self._serve_latency
            )
            self._registry = registry
        return self._registry

    def telemetry(self) -> EngineSnapshot:
        """One atomic, exportable snapshot of every engine metric.

        Pair with :func:`repro.obs.snapshot_to_json` or
        :func:`repro.obs.snapshot_to_prometheus`.
        """
        return self.metrics_registry().snapshot()

    def _backend_chain(self):
        backend = self._disk.backend
        while backend is not None:
            yield backend
            backend = getattr(backend, "inner", None)

    def _retry_counters(self) -> dict:
        from repro.storage.retry import RetryingBackend

        totals: dict[str, int] = {}
        for backend in self._backend_chain():
            if isinstance(backend, RetryingBackend):
                for key, value in asdict(backend.counters()).items():
                    totals[key] = totals.get(key, 0) + value
        return totals

    def _fault_counters(self) -> dict:
        from repro.storage.faults import FaultInjectingBackend

        totals: dict[str, int] = {}
        for backend in self._backend_chain():
            if isinstance(backend, FaultInjectingBackend):
                for key, value in asdict(backend.counters()).items():
                    totals[key] = totals.get(key, 0) + value
        return totals

    def _epoch_gauges(self) -> dict:
        manager = self._processor.epochs
        return {} if manager is None else manager.gauges()

    def _trace_gauges(self) -> dict:
        tracer = self.tracer
        if tracer is None:
            return {"enabled": 0}
        return {
            "enabled": 1,
            "spans_buffered": len(tracer),
            "spans_evicted": tracer.evicted,
            "capacity": tracer.capacity,
        }

    def _serve_counters(self) -> dict:
        totals: dict[str, int] = {}
        for service in list(self._services):
            stats = service.stats
            for name, value in asdict(stats).items():
                if not isinstance(value, int) or isinstance(value, bool):
                    continue  # the latency digest is not a counter
                if name == "max_batch_size":
                    totals[name] = max(totals.get(name, 0), value)
                else:
                    totals[name] = totals.get(name, 0) + value
        return totals

    def _serve_latency(self) -> Histogram | None:
        merged: Histogram | None = None
        for service in list(self._services):
            if merged is None:
                merged = Histogram("serve.latency_seconds")
            merged.merge(service.latency_histogram)
        return merged
