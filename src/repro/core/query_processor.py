"""The Query Processor: per-query orchestration (Section 3.2.3).

For every range query ``Q = {A; DS_1, ..., DS_N}`` the processor

1. lazily initialises the partition tree of any requested dataset that has
   never been queried before (one full raw scan — the expensive first query
   the paper describes);
2. extends the query window by each dataset's maximum object extent and
   collects the leaf partitions it overlaps;
3. consults the merge directory to decide whether the partitions can be
   read from a merge file (exact / superset / subset / none);
4. reads the partitions, filters the objects against the original query
   range and the requested datasets;
5. refines the hit partitions whose volume exceeds ``rt`` times the query
   volume (the Adaptor's job);
6. updates the statistics and gives the Merger the chance to create or
   extend a merge file for the queried combination.

A :class:`QueryReport` describing what happened is kept for the last query
so that tests, examples and the benchmark harness can introspect behaviour
without re-deriving it from disk counters.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from repro.core.adaptor import Adaptor
from repro.core.config import OdysseyConfig
from repro.core.merge import MergeDirectory, RouteKind, choose_route
from repro.core.merger import Merger
from repro.core.partition import PartitionKey, PartitionNode, PartitionTree
from repro.core.statistics import StatisticsCollector
from repro.data.columnar import DecodedGroup, filter_groups
from repro.data.dataset import DatasetCatalog
from repro.data.spatial_object import SpatialObject
from repro.geometry.box import Box
from repro.obs.trace import maybe_span
from repro.storage.buffer import BufferCounters
from repro.storage.pagedfile import PagedFile, StoredRun

if TYPE_CHECKING:  # pragma: no cover - import cycle avoidance
    from repro.core.batch import BatchResult


def run_start(run: StoredRun) -> int:
    """First page of a stored run (0 when empty), for on-disk-order planning."""
    return run.extents[0].start if run.extents else 0


@dataclass
class QueryReport:
    """Diagnostics of one executed query.

    ``cache`` reports the buffer-pool counter deltas (byte layer and
    decoded-array layer) attributed to this query; for batched execution
    the attribution is approximate (reads are shared across the batch) and
    the field is excluded from the batch-vs-sequential identity guarantee.
    """

    query_index: int
    requested: tuple[int, ...]
    route: str = RouteKind.NONE.value
    initialized_datasets: list[int] = field(default_factory=list)
    partitions_read: int = 0
    partitions_from_merge: int = 0
    objects_examined: int = 0
    results: int = 0
    refinements: int = 0
    merged: bool = False
    merge_new_partitions: int = 0
    evicted_merge_files: int = 0
    cache: BufferCounters | None = None
    #: Transparent I/O retries absorbed while answering this query (only
    #: attributed on the sequential path; excluded, like ``cache``, from
    #: the batch-vs-sequential identity guarantee).
    retries: int = 0

    @property
    def used_merge_file(self) -> bool:
        """Whether any partition was served from a merge file."""
        return self.partitions_from_merge > 0


class QueryProcessor:
    """Coordinates the Adaptor, Statistics Collector and Merger per query.

    Concurrency model: top-level operations (:meth:`execute`,
    :meth:`execute_batch`) serialize on one internal gate lock, so several
    application threads may share one engine without corrupting the
    adaptive state — interleaved calls execute in *some* serial order, and
    every query's answer is exact regardless of that order (results depend
    only on the data and the query window, never on refinement state).
    Parallelism lives *inside* a batch: ``execute_batch(..., workers=K)``
    fans the read-only phases of one batch across ``K`` threads while the
    gate is held (see :mod:`repro.core.parallel`).

    With ``OdysseyConfig(snapshot_reads=True)`` (the default) the gate
    additionally becomes a pure *writer* lock for the epoch read path
    (:mod:`repro.core.epoch`): every gated operation publishes an
    immutable :class:`~repro.core.epoch.EngineEpoch` on completion, and
    ``execute_batch(..., snapshot=True)`` — or the
    :meth:`prepare_batch`/:meth:`commit_batch` pair — runs its whole read
    phase against a pinned epoch without holding the gate, so concurrent
    batches overlap their reads and only their short writer phases
    serialize.  Because answers are exact regardless of refinement state
    (see above), a reader pinned to a slightly older epoch still returns
    exact hits.
    """

    def __init__(
        self,
        catalog: DatasetCatalog,
        config: OdysseyConfig,
        adaptor: Adaptor,
        statistics: StatisticsCollector,
        directory: MergeDirectory,
        merger: Merger,
    ) -> None:
        self._catalog = catalog
        self._config = config
        self._adaptor = adaptor
        self._statistics = statistics
        self._directory = directory
        self._merger = merger
        self._disk = catalog.datasets()[0].disk
        self._trees: dict[int, PartitionTree] = {}
        self._queries_executed = 0
        self._last_report: QueryReport | None = None
        self._gate = threading.RLock()
        self._durability = None
        self._tracer = None
        self._epochs = None
        if config.snapshot_reads:
            from repro.core.epoch import EpochManager

            self._epochs = EpochManager(self._disk, catalog.dimension)
            with self._gate:
                self.publish_epoch()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def trees(self) -> dict[int, PartitionTree]:
        """The per-dataset partition trees created so far."""
        return dict(self._trees)

    @property
    def queries_executed(self) -> int:
        """Number of queries processed."""
        return self._queries_executed

    @property
    def last_report(self) -> QueryReport | None:
        """Diagnostics of the most recent query."""
        return self._last_report

    # ------------------------------------------------------------------ #
    # Internal surface shared with the batch executor
    # ------------------------------------------------------------------ #
    # The batched engine (repro.core.batch) drives the same components and
    # the same live tree map as the sequential path, so both paths mutate
    # one adaptive state.

    @property
    def catalog(self) -> DatasetCatalog:
        """The dataset catalog queries run against."""
        return self._catalog

    @property
    def config(self) -> OdysseyConfig:
        """The engine configuration."""
        return self._config

    @property
    def adaptor(self) -> Adaptor:
        """The Adaptor performing initial partitioning and refinement."""
        return self._adaptor

    @property
    def statistics(self) -> StatisticsCollector:
        """The statistics collector."""
        return self._statistics

    @property
    def directory(self) -> MergeDirectory:
        """The merge directory."""
        return self._directory

    @property
    def merger(self) -> Merger:
        """The merger."""
        return self._merger

    @property
    def live_trees(self) -> dict[int, PartitionTree]:
        """The *live* tree map (shared, mutable — unlike :attr:`trees`)."""
        return self._trees

    def note_executed(self, report: QueryReport) -> None:
        """Record that one query finished (advances counters, keeps report)."""
        self._queries_executed += 1
        self._last_report = report

    # ------------------------------------------------------------------ #
    # Telemetry (observation only)
    # ------------------------------------------------------------------ #

    @property
    def tracer(self):
        """The attached :class:`~repro.obs.trace.Tracer` (or ``None``).

        Shared with the batch/parallel/epoch executors; tracing is
        observation only and never feeds back into any decision.
        """
        return self._tracer

    def attach_tracer(self, tracer) -> None:
        """Attach (or with ``None``, detach) a tracer for query spans."""
        self._tracer = tracer

    # ------------------------------------------------------------------ #
    # Durability (crash-consistent manifest journaling)
    # ------------------------------------------------------------------ #

    @property
    def durability(self):
        """The attached :class:`~repro.core.recovery.DurabilityLog` (or None)."""
        return self._durability

    def attach_durability(self, log) -> None:
        """Journal a manifest at every commit point from now on."""
        self._durability = log

    def commit_durable(self, entries) -> None:
        """Journal newly committed queries (``(box, dataset_ids)`` pairs).

        Must be called with the gate held, *after* the state mutation and
        epoch publish, so the journal order equals the commit order.  A
        no-op without an attached durability log or with no entries.
        """
        if self._durability is not None:
            self._durability.record(entries)

    # ------------------------------------------------------------------ #
    # Epoch surface (snapshot reads)
    # ------------------------------------------------------------------ #

    @property
    def gate(self) -> threading.RLock:
        """The adaptation (writer) lock top-level operations serialize on."""
        return self._gate

    @property
    def epochs(self):
        """The :class:`~repro.core.epoch.EpochManager`, or ``None`` when
        ``snapshot_reads`` is disabled."""
        return self._epochs

    def publish_epoch(self) -> None:
        """Capture and publish a new epoch from the current adaptive state.

        Must be called with the gate held (every caller in this module
        is); a no-op when snapshot reads are disabled.
        """
        if self._epochs is not None:
            with maybe_span(self._tracer, "epoch.publish"):
                self._epochs.publish(self._trees, self._directory)

    # ------------------------------------------------------------------ #
    # Query execution
    # ------------------------------------------------------------------ #

    def execute(self, box: Box, dataset_ids: Iterable[int]) -> list[SpatialObject]:
        """Execute one range query over the requested datasets."""
        ids = tuple(dataset_ids)
        with self._gate:
            with maybe_span(self._tracer, "query") as span:
                results = self._execute(box, ids)
                if span is not None:
                    report = self._last_report
                    span.attributes.update(
                        datasets=list(report.requested),
                        route=report.route,
                        examined=report.objects_examined,
                        hits=len(results),
                        refinements=report.refinements,
                    )
            self.publish_epoch()
            self.commit_durable([(box, ids)])
            return results

    def _execute(self, box: Box, dataset_ids: Iterable[int]) -> list[SpatialObject]:
        requested = frozenset(dataset_ids)
        if not requested:
            raise ValueError("a query must request at least one dataset")
        for dataset_id in requested:
            self._catalog.get(dataset_id)  # validates the id
        ordered = tuple(sorted(requested))
        report = QueryReport(query_index=self._queries_executed, requested=ordered)
        columnar = self._config.columnar
        cache_start = self._disk.buffer_pool.counters()
        retries_start = self._disk.stats.retries
        self._statistics.tick()

        # 1. Lazy initialisation of partition trees (in-situ first touch).
        for dataset_id in ordered:
            if dataset_id not in self._trees:
                with maybe_span(self._tracer, "query.init_tree", dataset=dataset_id):
                    tree = self._adaptor.create_tree(self._catalog.get(dataset_id))
                    self._adaptor.initialize(tree)
                    self._trees[dataset_id] = tree
                report.initialized_datasets.append(dataset_id)

        # 2. Locate the leaf partitions each dataset must read.  The
        # columnar path tests the query window against the tree's cached
        # leaf-MBR arrays in one kernel call; leaves and their order are
        # identical to the scalar DFS walk.
        needed: dict[int, list[PartitionNode]] = {}
        for dataset_id in ordered:
            tree = self._trees[dataset_id]
            extended = box.expand(tree.max_extent).clamp(tree.universe)
            needed[dataset_id] = (
                tree.leaves_overlapping_vectorized(extended)
                if columnar
                else tree.leaves_overlapping(extended)
            )

        # 3. Routing: merge file vs individual partition files.
        decision = choose_route(self._directory, requested)
        report.route = decision.kind.value
        if decision.merge_info is not None:
            self._merger.mark_used(decision.merge_info.combination)

        # 4. Retrieval and filtering.  Reads are planned first and then
        # executed in on-disk order: merge-file segments in the order they
        # appear in the merge file (so co-located partitions are streamed
        # sequentially, which is the whole point of merging) and individual
        # partitions in partition-file order per dataset.  Hit counts and
        # statistics see every overlapped leaf; only leaves that hold
        # records are planned, read and later offered for refinement.
        accessed_keys: dict[int, set[PartitionKey]] = {}
        occupied: dict[int, list[PartitionNode]] = {}
        merge_plan: list[tuple[int, StoredRun]] = []
        plan: list[tuple[int, PagedFile[SpatialObject], StoredRun]] = []
        info = decision.merge_info
        for dataset_id in ordered:
            leaves = needed[dataset_id]
            accessed_keys[dataset_id] = {leaf.key for leaf in leaves}
            for leaf in leaves:
                leaf.hit_count += 1
            report.partitions_read += len(leaves)
            held = occupied[dataset_id] = [leaf for leaf in leaves if leaf.n_objects]
            if info is not None and dataset_id in decision.covered_datasets:
                merge_plan.extend(
                    (dataset_id, info.segment(leaf.key, dataset_id))
                    for leaf in leaves
                    if info.has_segment(leaf.key, dataset_id)
                )
                held = [leaf for leaf in held if not info.has_segment(leaf.key, dataset_id)]
            file = self._trees[dataset_id].file
            plan.extend(
                (dataset_id, file, run)
                for run in sorted((leaf.run for leaf in held), key=run_start)
            )
        if merge_plan:
            merge_file = self._merger.merge_file(info.combination)
            merge_plan.sort(key=lambda item: run_start(item[1]))
            report.partitions_from_merge = len(merge_plan)
            plan[:0] = [(dataset_id, merge_file, run) for dataset_id, run in merge_plan]

        if columnar:
            # Vectorized filtering: the query's stored groups decode into
            # columnar arrays, dataset membership and window overlap become
            # one mask over all of them, and SpatialObject instances exist
            # only for the final hits.
            dimension = self._catalog.dimension
            results, examined = filter_groups(
                [
                    (dataset_id, DecodedGroup.from_records(file.read_group_array(run), dimension))
                    for dataset_id, file, run in plan
                    if run.n_records
                ],
                box.lo,
                box.hi,
            )
        else:
            results = []
            examined = 0
            for dataset_id, file, run in plan:
                for obj in file.read_group(run):
                    examined += 1
                    if obj.dataset_id == dataset_id and obj.intersects(box):
                        results.append(obj)
        tree_disk = self._catalog.get(next(iter(requested))).disk
        tree_disk.charge_cpu_records(examined)
        report.objects_examined = examined
        report.results = len(results)

        # 5. Refinement of over-sized hit partitions.
        for dataset_id in ordered:
            tree = self._trees[dataset_id]
            for leaf in occupied[dataset_id]:
                if self._adaptor.maybe_refine(tree, leaf, box).refined:
                    report.refinements += 1

        # 6. Statistics and merging.
        self._statistics.record_query(requested, accessed_keys, query_volume=box.volume())
        merge_outcome = self._merger.maybe_merge(requested, self._trees)
        report.merged = merge_outcome.merged
        report.merge_new_partitions = merge_outcome.new_partitions
        report.evicted_merge_files = len(merge_outcome.evicted_combinations)
        report.cache = self._disk.buffer_pool.counters().delta_since(cache_start)
        report.retries = self._disk.stats.retries - retries_start

        self.note_executed(report)
        return results

    def execute_batch(
        self,
        queries,
        workers: int | None = None,
        snapshot: bool = False,
        executor: str | None = None,
    ) -> "BatchResult":
        """Execute a batch of queries through the batched engine.

        See :mod:`repro.core.batch` for the execution model; result sets
        and post-batch adaptive state are identical to calling
        :meth:`execute` once per query in order (hit order within a
        result and ``QueryReport.objects_examined`` may differ).

        ``workers`` selects a parallel executor
        (:mod:`repro.core.parallel`): ``None`` or ``1`` runs the serial
        batch engine; ``K > 1`` fans the read-only phases across ``K``
        workers with results, reports, adaptive state and on-disk bytes
        bit-identical to the serial batch.  ``executor`` picks the pool
        flavour — ``"thread"`` shares the engine's memory and relies on
        NumPy releasing the GIL; ``"process"`` ships page bytes to worker
        processes over shared memory (or lets them ``mmap`` the page
        files of a plain filesystem backend) so decode + filter scale
        past the GIL.  ``None`` defers to
        ``OdysseyConfig.batch_executor``.

        ``snapshot=True`` routes through the epoch executor
        (:mod:`repro.core.epoch`): the read phase runs against a pinned
        immutable epoch *without* holding the gate, and only the short
        writer phase serializes — so concurrent batches overlap their
        reads.  In isolation the epoch executor is bit-identical to the
        batch executor (reports and ``objects_examined`` included);
        requires ``OdysseyConfig(snapshot_reads=True)``.  Snapshot reads
        are thread-only (the epoch object graph is not shipped across
        processes); combining ``snapshot=True`` with
        ``executor="process"`` raises ``ValueError``.
        """
        from repro.core.batch import BatchExecutor, QueryBatch

        if executor is None:
            executor = self._config.batch_executor
        if executor not in ("thread", "process"):
            raise ValueError("executor must be 'thread' or 'process'")
        batch = queries if isinstance(queries, QueryBatch) else QueryBatch(queries)
        if snapshot:
            if executor == "process":
                raise ValueError("snapshot reads do not support executor='process'")
            if self._epochs is None:
                raise RuntimeError(
                    "snapshot reads require OdysseyConfig(snapshot_reads=True)"
                )
            from repro.core.epoch import EpochExecutor

            return EpochExecutor(self, workers).run(batch)
        with self._gate:
            if workers is not None and workers != 1:
                if executor == "process":
                    from repro.core.parallel import ProcessExecutor

                    result = ProcessExecutor(self, workers).run(batch)
                else:
                    from repro.core.parallel import ParallelExecutor

                    result = ParallelExecutor(self, workers).run(batch)
            else:
                result = BatchExecutor(self).run(batch)
            self.publish_epoch()
            self.commit_durable((q.box, q.requested) for q in batch.queries)
            return result

    def prepare_batch(self, queries, workers: int | None = None):
        """Run the lock-free read phase of a snapshot batch.

        Pins the current epoch, resolves overlaps, reads and filters every
        query against the pinned snapshot — all without the gate — and
        returns an opaque prepared batch for :meth:`commit_batch`.  The
        serving dispatcher uses this split to overlap the read phase of
        batch N+1 with the writer phase of batch N.
        """
        if self._epochs is None:
            raise RuntimeError(
                "snapshot reads require OdysseyConfig(snapshot_reads=True)"
            )
        from repro.core.batch import QueryBatch
        from repro.core.epoch import EpochExecutor

        batch = queries if isinstance(queries, QueryBatch) else QueryBatch(queries)
        return EpochExecutor(self, workers).prepare(batch)

    def commit_batch(self, prepared) -> "BatchResult":
        """Apply a prepared batch's writer phase (gate-held, in order)."""
        return prepared.executor.commit(prepared)
