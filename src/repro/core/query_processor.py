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

The batch executor (:mod:`repro.core.batch`) shares the pieces: the
query check, the first-touch routine (step 1), the read planner (step 4)
and the writer half (steps 5–6, :meth:`QueryProcessor.commit_query`).
Recovery replays a committed query through the check, the first touch
and the writer half alone.

Those two are the only parts that change files, and both run under the
gate.  Their storage steps run through the processor's facts
(:mod:`repro.core.facts`): with a journal attached, the writer half
seals each query's facts for its journal entry, and one that raises
drops them and taints the log if a file may have changed
(:meth:`~repro.core.recovery.DurabilityLog.abort`).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from operator import attrgetter, itemgetter
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.core.adaptor import Adaptor
from repro.core.facts import NO_FACTS
from repro.core.merge import MergeDirectory, MergeFileInfo, RouteKind, RoutingDecision
from repro.core.merge import choose_route
from repro.core.merger import Merger
from repro.core.partition import LeafSnapshot, PartitionTree
from repro.core.statistics import StatisticsCollector
from repro.data.columnar import filter_groups
from repro.data.dataset import DatasetCatalog
from repro.data.spatial_object import SpatialObject
from repro.geometry.box import Box
from repro.obs.trace import maybe_span
from repro.storage.buffer import BufferCounters
from repro.storage.pagedfile import PagedFile, StoredRun, read_groups

if TYPE_CHECKING:  # pragma: no cover - import cycle avoidance
    from repro.core.batch import BatchResult, QueryBatch
    from repro.core.epoch import EngineEpoch


def plan_reads(
    occupied: Iterable[tuple[int, LeafSnapshot, np.ndarray]],
    decision: RoutingDecision,
    tree_file: Callable[[int], PagedFile[SpatialObject]],
    merge_file: Callable[[MergeFileInfo], PagedFile[SpatialObject]],
) -> list[tuple[int, PagedFile[SpatialObject], StoredRun]]:
    """One query's ``(dataset_id, file, run)`` reads, in on-disk order (step 4).

    ``occupied`` gives each requested dataset, ascending, with the leaf
    table its rows index (live, or a pinned epoch's) and the overlapped
    rows that hold records (:meth:`LeafSnapshot.occupied`, taken once per
    query and tree by the caller; the writer half reuses it).  Merge-file
    segments come first in merge-file order (co-located partitions stream
    sequentially: the point of merging), then each dataset's uncovered
    runs, in partition-file order.
    """
    info = decision.merge_info
    covered = decision.covered_datasets if info is not None else ()
    merged: list[tuple[tuple, int, StoredRun]] = []
    plan: list[tuple[int, PagedFile[SpatialObject], StoredRun]] = []
    for dataset_id, table, rows in occupied:
        rows = rows.tolist()
        if dataset_id in covered:
            runs: list[StoredRun] = []
            for row in rows:
                key = table.keys[row]
                if info.has_segment(key, dataset_id):
                    segment = info.segment(key, dataset_id)
                    merged.append((segment.extents, dataset_id, segment))
                else:
                    runs.append(table.runs[row])
        else:
            runs = list(map(table.runs.__getitem__, rows))
        if runs:
            # Runs of one file never share a page, so their extents order
            # them by their first page, with no Python call per run.
            runs.sort(key=_extents)
            file = tree_file(dataset_id)
            plan += [(dataset_id, file, run) for run in runs]
    if merged:
        merged.sort(key=_first)
        file = merge_file(info)
        plan[:0] = [(dataset_id, file, run) for _, dataset_id, run in merged]
    return plan


_extents = attrgetter("extents")
_first = itemgetter(0)


def _extended_window(tree, box: Box) -> Box:
    """``box`` extended by the tree's maximum extent, clamped to its universe.

    The floats of ``box.expand(tree.max_extent).clamp(tree.universe)``, bit
    for bit: per axis the same IEEE subtraction or addition, then the same
    Python ``max``/``min`` in the same order.  The corners are valid by
    construction (a valid window, non-negative extents), so they skip the
    two checking constructors; the batch's ``(m, d)`` counterpart is
    :func:`repro.core.batch._extended_windows`.
    """
    extent, u_lo, u_hi = tree.max_extent, tree.universe.lo, tree.universe.hi
    return Box._trusted(
        tuple([min(max(low - e, a), b) for low, e, a, b in zip(box.lo, extent, u_lo, u_hi)]),
        tuple([max(min(high + e, b), a) for high, e, a, b in zip(box.hi, extent, u_lo, u_hi)]),
    )


@dataclass
class QueryReport:
    """Diagnostics of one executed query.

    ``cache`` reports the buffer-pool counter deltas (byte layer and
    decoded-array layer) attributed to this query.  They are differences
    of the pool's raw counter tallies (``BufferPool.tally``, plain
    integers) taken at the query's boundaries: around ``query()`` as a
    whole, and in a batch around the query's read plus around its commit,
    one ``BufferCounters`` built per report from the summed differences.
    For batched execution the attribution is approximate (reads are shared
    across the batch) and the field is excluded from the
    batch-vs-sequential identity guarantee.

    A query that recovery replays runs the writer half only: ``route``, the
    partition counts, ``refinements`` and the merge fields are filled,
    ``objects_examined`` and ``results`` stay 0 — as ``last_report`` shows
    right after ``recover()``.
    """

    query_index: int
    requested: tuple[int, ...]
    route: str = RouteKind.NONE.value
    initialized_datasets: list[int] = field(default_factory=list)
    #: Leaves the extended window overlaps, summed over the requested
    #: datasets — empty leaves included, so this is not the number of
    #: groups read (perfbench's ``core.partition.leaves_per_q``).
    partitions_read: int = 0
    #: Of those, the leaves whose segment the routed merge file holds.
    partitions_from_merge: int = 0
    objects_examined: int = 0
    results: int = 0
    refinements: int = 0
    merged: bool = False
    merge_new_partitions: int = 0
    cache: BufferCounters | None = None

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
    fans the reads of one batch across ``K`` threads while the
    gate is held (see :mod:`repro.core.batch`).

    Snapshot reads make the gate a pure *writer* lock for the epoch read
    path (:mod:`repro.core.epoch`): ``execute_batch(..., snapshot=True)``
    — or the :meth:`prepare_batch`/:meth:`commit_batch` pair — runs its
    whole read half against a pinned immutable
    :class:`~repro.core.epoch.EngineEpoch` without holding the gate, so
    concurrent batches overlap their reads and only their short writer
    phases serialize.  Because answers are exact regardless of refinement
    state (see above), a reader pinned to a slightly older epoch still
    returns exact hits.  The first snapshot read starts the epoch layer
    (:meth:`pin_epoch`); from then on every gated operation publishes.
    """

    def __init__(
        self,
        catalog: DatasetCatalog,
        adaptor: Adaptor,
        statistics: StatisticsCollector,
        directory: MergeDirectory,
        merger: Merger,
    ) -> None:
        self._catalog = catalog
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
        self._facts = NO_FACTS
        self._tracer = None
        self._epochs = None

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
    def adaptor(self) -> Adaptor:
        """The Adaptor."""
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

    def check_query(self, box: Box, dataset_ids: Iterable[int]) -> frozenset[int]:
        """Refuse a malformed query before anything changes; returns the requested ids."""
        if not isinstance(box, Box):
            raise TypeError(f"a query window must be a Box, not {type(box).__name__}")
        dimension = self._catalog.dimension
        if box.dimension != dimension:
            raise ValueError(f"a {box.dimension}-D window cannot query {dimension}-D datasets")
        requested = frozenset(dataset_ids)
        if not requested:
            raise ValueError("a query must request at least one dataset")
        for dataset_id in requested:
            self._catalog.get(dataset_id)  # validates the id
        return requested

    def initialize_trees(self, dataset_ids: Iterable[int]) -> list[int]:
        """Step 1, first touch: build the missing trees, in order; returns their ids.

        Called with the gate held.
        """
        initialized = []
        try:
            for dataset_id in dataset_ids:
                if dataset_id not in self._trees:
                    with maybe_span(self._tracer, "query.init_tree", dataset=dataset_id):
                        tree = self._adaptor.create_tree(self._catalog.get(dataset_id))
                        self._adaptor.initialize(tree)
                        self._trees[dataset_id] = tree
                    initialized.append(dataset_id)
        except Exception:
            self._writer_raised()
            raise
        return initialized

    def _writer_raised(self) -> None:
        if self._durability is not None:
            self._durability.abort()

    def _overlapped_rows(self, box: Box, dataset_id: int) -> np.ndarray:
        """Step 2: the rows of the dataset's current leaf table its extended window overlaps."""
        tree = self._trees[dataset_id]
        return tree.leaves_overlapping_vectorized(_extended_window(tree, box))

    def commit_query(
        self,
        box: Box,
        requested: frozenset[int],
        report: QueryReport,
        overlapped: Mapping[int, np.ndarray] | None = None,
        occupied: Mapping[int, np.ndarray] | None = None,
        decision: RoutingDecision | None = None,
        candidates: Mapping[int, Sequence[int]] | None = None,
    ) -> None:
        """The writer half of one query, under the gate, against the *current* state.

        Resolves the rows ``overlapped`` lacks and the occupied rows
        ``occupied`` lacks (:meth:`LeafSnapshot.occupied`, the selection
        :func:`plan_reads` reads), routes unless given a ``decision`` and
        picks the rows to refine (:meth:`Adaptor.candidates`, over the
        occupied rows) in each tree ``candidates`` lacks, but reads no
        partition: recovery replays a query through this alone.  The keys
        of the occupied rows, the partitions the query reads, enter the
        statistics; the rows the Adaptor picks are refined in search order
        (key order, descending: no leaf key is a prefix of another, and a
        split moves no row); the merger gets its chance; the query counts as executed.  A caller
        that passes rows, occupied rows or candidates for a tree vouches
        that they were taken from the tree's current table.  The query's
        storage facts are sealed last.
        """
        with self._gate:
            try:
                given = overlapped or {}
                held = occupied or {}
                picked = candidates or {}
                if decision is None:
                    decision = choose_route(self._directory, requested)
                report.route = decision.kind.value
                info = decision.merge_info
                covered = decision.covered_datasets if info is not None else ()
                volume = box.volume()
                keys: set = set()
                refining = []
                for dataset_id in sorted(requested):
                    tree = self._trees[dataset_id]
                    table = tree.leaf_snapshot()
                    rows = given.get(dataset_id)
                    if rows is None:
                        rows = self._overlapped_rows(box, dataset_id)
                    reads = held.get(dataset_id)
                    if reads is None:
                        (reads,) = table.occupied([rows])
                    report.partitions_read += len(rows)
                    keys.update(map(table.keys.__getitem__, reads.tolist()))
                    if dataset_id in covered:
                        hit = map(table.keys.__getitem__, rows.tolist())
                        report.partitions_from_merge += sum(
                            info.has_segment(key, dataset_id) for key in hit
                        )
                    chosen = picked.get(dataset_id)
                    if chosen is None:
                        chosen = self._adaptor.candidates(table, reads, volume)
                    if chosen:
                        chosen = sorted(chosen, key=table.keys.__getitem__, reverse=True)
                        refining.append((tree, chosen))
                for tree, chosen in refining:
                    for row in chosen:
                        if self._adaptor.maybe_refine(tree, row, box).refined:
                            report.refinements += 1
                self._statistics.record_query(requested, keys, query_volume=volume)
                merge_outcome = self._merger.maybe_merge(requested, self._trees)
                report.merged = merge_outcome.merged
                report.merge_new_partitions = merge_outcome.new_partitions
                self._facts.seal(requested)
                self.note_executed(report)
            except Exception:
                self._writer_raised()
                raise

    # ------------------------------------------------------------------ #
    # Telemetry (observation only)
    # ------------------------------------------------------------------ #

    @property
    def tracer(self):
        """The attached :class:`~repro.obs.trace.Tracer` (or ``None``).

        Shared with the batch executor; tracing is
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
        self.attach_facts(log.facts)

    def attach_facts(self, facts) -> None:
        """Run the Adaptor's and Merger's storage steps through ``facts``
        (:mod:`repro.core.facts`) from now on."""
        self._facts = self._adaptor.facts = self._merger.facts = facts

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
        """The :class:`~repro.core.epoch.EpochManager`, or ``None`` until
        the first snapshot read."""
        return self._epochs

    def publish_epoch(self) -> None:
        """Capture and publish a new epoch from the current adaptive state.

        Must be called with the gate held (every caller in this module
        is); a no-op before the first snapshot read.
        """
        if self._epochs is not None:
            with maybe_span(self._tracer, "epoch.publish"):
                self._epochs.publish(self._trees, self._directory)

    def pin_epoch(self) -> "EngineEpoch":
        """Pin the current epoch for a snapshot read (balance with ``unpin``).

        The first call, under the gate, builds the epoch manager (the
        disk's snapshot sink) and publishes the current state; before it
        nothing publishes or retains a page.
        """
        if self._epochs is None:
            with self._gate:
                if self._epochs is None:
                    from repro.core.epoch import EpochManager

                    # Seen only once published: a pin outside the gate must
                    # never find the manager without an epoch.
                    epochs = EpochManager(self._disk, self._catalog.dimension)
                    with maybe_span(self._tracer, "epoch.publish"):
                        epochs.publish(self._trees, self._directory)
                    self._epochs = epochs
        return self._epochs.pin()

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
        requested = self.check_query(box, dataset_ids)
        ordered = tuple(sorted(requested))
        report = QueryReport(query_index=self._queries_executed, requested=ordered)
        pool = self._disk.buffer_pool
        cache_start = pool.tally
        report.initialized_datasets = self.initialize_trees(ordered)

        # 2. The overlapped rows: one kernel call per tree.
        overlapped = {dataset_id: self._overlapped_rows(box, dataset_id) for dataset_id in ordered}

        # 3-4. Route and plan the occupied rows (the writer half reuses
        # them); the plan's groups are one storage read, and their records
        # go through the batch filter as a batch of one: one window+dataset
        # mask filters them all, and only hits become objects.
        decision = choose_route(self._directory, requested)
        tables = {d: self._trees[d].leaf_snapshot() for d in ordered}
        occupied = {d: tables[d].occupied([rows])[0] for d, rows in overlapped.items()}
        selected = [(d, tables[d], rows) for d, rows in occupied.items()]
        plan = plan_reads(selected, decision, self._tree_file, self._merge_file)
        records = read_groups([(file, run) for _, file, run in plan])
        (results,), (examined,) = filter_groups(
            [(0, dataset_id, group) for (dataset_id, _, _), group in zip(plan, records)],
            [box.lo],
            [box.hi],
        )
        self._disk.charge_cpu_records(examined)
        report.objects_examined = examined
        report.results = len(results)

        # 5-6. Refinement, statistics and merging.
        self.commit_query(box, requested, report, overlapped, occupied, decision)
        report.cache = BufferCounters.between(cache_start, pool.tally)
        return results

    def _tree_file(self, dataset_id: int) -> PagedFile[SpatialObject]:
        return self._trees[dataset_id].file

    def _merge_file(self, info: MergeFileInfo) -> PagedFile[SpatialObject]:
        return self._merger.merge_file(info.combination)

    def _checked_batch(self, queries) -> "QueryBatch":
        """``queries`` as a :class:`QueryBatch`, every entry checked up front."""
        from repro.core.batch import QueryBatch

        batch = queries if isinstance(queries, QueryBatch) else QueryBatch(queries)
        for query in batch:
            self.check_query(query.box, query.requested)
        return batch

    def execute_batch(
        self,
        queries,
        workers: int | None = None,
        snapshot: bool = False,
    ) -> "BatchResult":
        """Execute a batch of queries through the batched engine.

        See :mod:`repro.core.batch` for the execution model; result sets
        and post-batch adaptive state are identical to calling
        :meth:`execute` once per query in order (hit order within a
        result and ``QueryReport.objects_examined`` may differ).

        ``workers=K > 1`` runs the reads on ``K`` threads;
        ``snapshot=True`` runs the read half against a pinned immutable epoch
        *without* holding the gate, so that only the commit serializes and
        concurrent batches overlap their reads (see :meth:`pin_epoch`).
        Every combination is
        bit-identical to the serial batch in isolation, reports and
        ``objects_examined`` included.
        """
        from repro.core.batch import BatchExecutor

        batch = self._checked_batch(queries)
        executor = BatchExecutor(self, workers, snapshot)
        if snapshot:
            return executor.run(batch)
        with self._gate:
            return executor.run(batch)

    def prepare_batch(self, queries, workers: int | None = None):
        """Run the lock-free read half of a snapshot batch.

        Pins the current epoch, resolves overlaps, reads and filters every
        query against the pinned snapshot — all without the gate — and
        returns a :class:`~repro.core.batch.PreparedBatch` for
        :meth:`commit_batch`.
        """
        from repro.core.batch import BatchExecutor

        executor = BatchExecutor(self, workers, snapshot=True)
        return executor.prepare(self._checked_batch(queries))

    def commit_batch(self, prepared) -> "BatchResult":
        """Apply a prepared batch's commit (gate-held, in order)."""
        return prepared.executor.commit(prepared)
