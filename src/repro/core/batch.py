"""Batched execution: amortising work across a group of exploration queries.

The paper's setting is a *sequence* of exploratory queries, yet the
sequential :class:`~repro.core.query_processor.QueryProcessor` pays every
cost — partition overlap tests, page decoding, object filtering — once per
query.  This module executes a whole batch at once while guaranteeing that
results **and** the post-batch adaptive state (partition trees, statistics,
merge directory, file bytes) are identical to running the same queries
sequentially in order.

Execution model
---------------
A batch runs in four phases:

1. **Initialisation** — every requested dataset whose partition tree does
   not exist yet is initialised up front, in the order sequential execution
   would have first touched it.  Initialisation only depends on the raw
   dataset, so doing it early changes no observable state.
2. **Overlap resolution** — queries are grouped by requested dataset
   combination and, per (group, dataset), the partition overlap tests of
   all the group's query windows are resolved in a single call to the
   vectorized :func:`~repro.geometry.vectorized.intersect_matrix` kernel
   over the tree's cached per-partition MBR arrays
   (:meth:`~repro.core.partition.PartitionTree.leaf_snapshot`).
3. **Retrieval and filtering** — partitions are read through a
   :class:`BatchReadSet`, a shared read set layered on the existing buffer
   pool: each distinct stored group is fetched and decoded once per batch
   (into columnar NumPy arrays, not per-record Python objects) no matter
   how many queries need it.  Filtering against the original query window
   is a vectorized mask; ``SpatialObject`` instances are materialised only
   for actual hits.
4. **Replay of adaptive updates** — statistics, refinement and merging are
   applied once per batch, afterwards, by replaying the per-query pipeline
   in submission order against the evolving trees.  Because refinement
   decisions depend only on (tree state, query window) and both start from
   the same state, the replay reproduces the sequential evolution exactly
   — same refinements in the same order, same page reuse, same merge files,
   same eviction decisions.

Why the reads may be coarser than sequential reads
--------------------------------------------------
Phase 3 reads against the *start-of-batch* trees while sequential
execution reads against trees that refine mid-sequence.  Reading a
partition that sequential execution would have read as several refined
children is safe: the parent's object set is the union of its children's,
and the query-window extension guarantees every true hit lies in a
partition overlapping the extended window at any refinement level.  The
filter step therefore yields byte-identical hits; only
``QueryReport.objects_examined`` (and the simulated CPU charge for it) may
differ from the sequential run.  The shared read set also means a batch
never reads *more* pages than the equivalent sequential run
(``tests/test_batch_cost.py`` enforces this).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from repro.core.merge import RoutingDecision, choose_route
from repro.core.partition import PartitionNode
from repro.core.query_processor import QueryProcessor, QueryReport, run_start
from repro.data.columnar import DecodedGroup, filter_groups
from repro.data.spatial_object import SpatialObject
from repro.geometry.box import Box
from repro.obs.trace import maybe_span
from repro.storage.buffer import BufferCounters
from repro.storage.pagedfile import PagedFile, StoredRun
from repro.workload.query import RangeQuery


@dataclass(frozen=True, slots=True)
class BatchQuery:
    """One normalised query of a batch: its position, window and combination."""

    index: int
    box: Box
    requested: frozenset[int]


class QueryBatch:
    """A validated, ordered collection of range queries to execute together.

    Accepts :class:`~repro.workload.query.RangeQuery` instances or
    ``(box, dataset_ids)`` pairs (so a
    :class:`~repro.workload.builder.Workload` can be passed directly).
    Queries keep their submission order; :meth:`groups` exposes them
    grouped by requested dataset combination, which is the unit the batch
    engine amortises routing and overlap resolution over.
    """

    def __init__(self, queries: Iterable[RangeQuery | tuple | list]) -> None:
        normalized: list[BatchQuery] = []
        for index, query in enumerate(queries):
            if isinstance(query, RangeQuery):
                box, dataset_ids = query.box, query.dataset_ids
            elif isinstance(query, (tuple, list)) and len(query) == 2:
                box, dataset_ids = query
            else:
                raise TypeError(
                    f"batch entry {index} must be a RangeQuery or a "
                    f"(box, dataset_ids) pair, got {query!r}"
                )
            if not isinstance(box, Box):
                raise TypeError(f"batch entry {index} has no query Box")
            requested = frozenset(dataset_ids)
            if not requested:
                raise ValueError(f"batch entry {index} requests no datasets")
            normalized.append(BatchQuery(index=index, box=box, requested=requested))
        self._queries = tuple(normalized)

    @property
    def queries(self) -> tuple[BatchQuery, ...]:
        """The normalised queries in submission order."""
        return self._queries

    def __len__(self) -> int:
        return len(self._queries)

    def __iter__(self) -> Iterator[BatchQuery]:
        return iter(self._queries)

    def combinations(self) -> set[frozenset[int]]:
        """The distinct dataset combinations appearing in the batch."""
        return {query.requested for query in self._queries}

    def groups(self) -> dict[frozenset[int], list[BatchQuery]]:
        """Queries grouped by requested combination, preserving order."""
        grouped: dict[frozenset[int], list[BatchQuery]] = {}
        for query in self._queries:
            grouped.setdefault(query.requested, []).append(query)
        return grouped


@dataclass
class BatchResult:
    """Everything a batch execution produced.

    ``results[i]`` and ``reports[i]`` belong to the i-th submitted query.
    ``group_reads`` counts every partition-group retrieval the batch
    needed; ``group_reads_deduped`` is how many of those were served from
    the shared read set instead of touching the disk again.
    """

    results: list[list[SpatialObject]]
    reports: list[QueryReport]
    group_reads: int = 0
    group_reads_deduped: int = 0

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator[list[SpatialObject]]:
        return iter(self.results)

    def __getitem__(self, index: int) -> list[SpatialObject]:
        return self.results[index]

    def hit_counts(self) -> list[int]:
        """Number of hits per query, in submission order."""
        return [len(hits) for hits in self.results]

    def total_results(self) -> int:
        """Total hits across the batch."""
        return sum(len(hits) for hits in self.results)


class BatchReadSet:
    """The shared read set of one batch, layered on the buffer pool.

    Keys are ``(file name, page extents, record count)`` — the identity of
    a stored group.  The first request for a group goes through the shared
    columnar storage surface
    (:meth:`~repro.storage.pagedfile.PagedFile.read_group_array`, so cost
    accounting, the buffer pool and the decoded-array cache behave exactly
    as for sequential reads); later requests for the same group from other
    queries of the batch are free.  The set lives for a single batch only:
    batch reads all complete before any write of the replay phase, so no
    invalidation is ever needed.
    """

    def __init__(self, dimension: int) -> None:
        self._dimension = dimension
        self._groups: dict[tuple, DecodedGroup] = {}
        self.group_reads = 0
        self.dedup_hits = 0

    def read(self, file: PagedFile[SpatialObject], run: StoredRun) -> DecodedGroup:
        """The decoded records of one stored group (cached per batch)."""
        self.group_reads += 1
        key = (file.name, run.extents, run.n_records)
        group = self._groups.get(key)
        if group is not None:
            self.dedup_hits += 1
            return group
        group = self._load(file, run)
        self._groups[key] = group
        return group

    def _load(self, file: PagedFile[SpatialObject], run: StoredRun) -> DecodedGroup:
        """Fetch and decode one group (overridden by the epoch read set)."""
        return DecodedGroup.from_records(file.read_group_array(run), self._dimension)


class BatchExecutor:
    """Runs one :class:`QueryBatch` against a query processor's live state.

    See the module docstring for the four-phase execution model and the
    sequential-identity guarantee.
    """

    #: Label carried on the batch root span (overridden by subclasses).
    _executor_name = "serial"

    def __init__(self, processor: QueryProcessor) -> None:
        self._processor = processor

    # ------------------------------------------------------------------ #
    # Read-state hooks
    # ------------------------------------------------------------------ #
    # The retrieval phase reaches engine state only through these four
    # hooks, so a subclass can redirect the whole read path at a pinned
    # immutable epoch (repro.core.epoch.EpochExecutor) while reusing the
    # planning, dedup, filtering and replay machinery unchanged.

    def _leaf_run(self, dataset_id: int, leaf: PartitionNode) -> StoredRun | None:
        """The stored run to read for one leaf (live: the leaf's own run)."""
        return leaf.run

    def _tree_file(self, dataset_id: int) -> PagedFile[SpatialObject]:
        """The partition file of one dataset."""
        return self._processor.live_trees[dataset_id].file

    def _merge_file(self, info) -> PagedFile[SpatialObject]:
        """The open merge file behind a directory entry."""
        return self._processor.merger.merge_file(info.combination)

    def _route_directory(self):
        """The merge directory routing decisions are made against."""
        return self._processor.directory

    def run(self, batch: QueryBatch) -> BatchResult:
        """Execute the batch; equivalent to sequential execution in order."""
        processor = self._processor
        queries = batch.queries
        if not queries:
            return BatchResult(results=[], reports=[])
        catalog = processor.catalog
        for query in queries:
            for dataset_id in query.requested:
                catalog.get(dataset_id)  # validates every id before any work

        tracer = processor.tracer
        with maybe_span(
            tracer, "batch", queries=len(queries), executor=self._executor_name
        ) as span:
            with maybe_span(tracer, "batch.init_trees"):
                first_touch = self._initialize_trees(queries)
            with maybe_span(tracer, "batch.overlap"):
                extended = self._extended_windows(queries)
                needed0, versions0 = self._resolve_overlaps(batch, extended)
            read_set = BatchReadSet(catalog.dimension)
            with maybe_span(tracer, "batch.read_filter"):
                results, examined, cache_deltas = self._read_and_filter(
                    batch, needed0, read_set
                )
            with maybe_span(tracer, "batch.replay"):
                reports = self._replay_updates(
                    queries, first_touch, extended, needed0, versions0, results,
                    examined, cache_deltas,
                )
            if span is not None:
                span.attributes.update(
                    group_reads=read_set.group_reads,
                    dedup_hits=read_set.dedup_hits,
                )
        return BatchResult(
            results=results,
            reports=reports,
            group_reads=read_set.group_reads,
            group_reads_deduped=read_set.dedup_hits,
        )

    # ------------------------------------------------------------------ #
    # Phase 1 — lazy initialisation
    # ------------------------------------------------------------------ #

    def _initialize_trees(self, queries: Sequence[BatchQuery]) -> dict[int, int]:
        """Initialise missing trees in sequential first-touch order.

        Returns ``dataset_id -> index of the query that first touched it``
        so the replay phase can attribute initialisations to the right
        :class:`QueryReport`, exactly as sequential execution would.
        """
        processor = self._processor
        trees = processor.live_trees
        first_touch: dict[int, int] = {}
        for query in queries:
            for dataset_id in sorted(query.requested):
                if dataset_id not in trees and dataset_id not in first_touch:
                    first_touch[dataset_id] = query.index
        for dataset_id in first_touch:  # dict preserves first-touch order
            tree = processor.adaptor.create_tree(processor.catalog.get(dataset_id))
            processor.adaptor.initialize(tree)
            trees[dataset_id] = tree
        return first_touch

    # ------------------------------------------------------------------ #
    # Phase 2 — vectorized overlap resolution
    # ------------------------------------------------------------------ #

    def _extended_windows(
        self, queries: Sequence[BatchQuery]
    ) -> dict[tuple[int, int], Box]:
        """Per (query, dataset) extended-and-clamped query windows."""
        trees = self._processor.live_trees
        extended: dict[tuple[int, int], Box] = {}
        for query in queries:
            for dataset_id in query.requested:
                tree = trees[dataset_id]
                extended[(query.index, dataset_id)] = query.box.expand(
                    tree.max_extent
                ).clamp(tree.universe)
        return extended

    def _resolve_overlaps(
        self, batch: QueryBatch, extended: dict[tuple[int, int], Box]
    ) -> tuple[dict[tuple[int, int], list[PartitionNode]], dict[int, int]]:
        """Overlap tests for the whole batch, one kernel call per (group, dataset).

        Returns the per-(query, dataset) overlapping leaves against the
        start-of-batch trees, plus each tree's structure version at
        resolution time (so the replay phase knows when the lists are still
        valid for reuse).
        """
        trees = self._processor.live_trees
        needed0: dict[tuple[int, int], list[PartitionNode]] = {}
        versions0: dict[int, int] = {}
        for combination, group in batch.groups().items():
            for dataset_id in sorted(combination):
                tree = trees[dataset_id]
                versions0[dataset_id] = tree.version
                windows = [extended[(query.index, dataset_id)] for query in group]
                per_query = tree.leaves_overlapping_batch(windows)
                for query, leaves in zip(group, per_query):
                    needed0[(query.index, dataset_id)] = leaves
        return needed0, versions0

    # ------------------------------------------------------------------ #
    # Phase 3 — retrieval through the shared read set, vectorized filtering
    # ------------------------------------------------------------------ #

    def _route_decisions(
        self, batch: QueryBatch
    ) -> dict[frozenset[int], RoutingDecision]:
        """Routing resolved once per combination.

        The merge directory cannot change between retrieval and the replay
        phase, so all reads of the batch see the same directory state.
        """
        directory = self._route_directory()
        return {
            combination: choose_route(directory, combination)
            for combination in batch.groups()
        }

    def _query_plan(
        self,
        query: BatchQuery,
        needed0: dict[tuple[int, int], list[PartitionNode]],
        decisions: dict[frozenset[int], RoutingDecision],
    ) -> list[tuple[int, PagedFile[SpatialObject], StoredRun]]:
        """One query's read plan: ``(dataset_id, file, run)`` in collect order.

        The plan construction and the on-disk-order sorting are
        deterministic functions of ``(query, needed0, decisions)``:
        merge-file segments first (sorted by segment start), then
        individual partition runs (sorted by dataset, then run start).
        Both the serial/thread executors (which read the plan through a
        :class:`BatchReadSet`) and the process executor (which stages the
        plan's pages for its workers) consume this one plan builder, so
        every engine reads the same groups in the same order.
        """
        decision = decisions[query.requested]
        info = decision.merge_info
        merge_plan: list[tuple[int, StoredRun]] = []
        entries: list[tuple[int, PagedFile[SpatialObject], StoredRun]] = []
        for dataset_id in sorted(query.requested):
            covered = info is not None and dataset_id in decision.covered_datasets
            runs: list[StoredRun] = []
            for leaf in needed0[(query.index, dataset_id)]:
                if covered and info.has_segment(leaf.key, dataset_id):
                    merge_plan.append((dataset_id, info.segment(leaf.key, dataset_id)))
                else:
                    run = self._leaf_run(dataset_id, leaf)
                    if run is not None and run.n_records:
                        runs.append(run)
            if runs:
                file = self._tree_file(dataset_id)
                runs.sort(key=run_start)
                entries.extend((dataset_id, file, run) for run in runs)
        if merge_plan:
            merge_file = self._merge_file(info)
            merge_plan.sort(key=lambda item: run_start(item[1]))
            entries[:0] = [(dataset_id, merge_file, run) for dataset_id, run in merge_plan]
        return entries

    def _filter_one_query(
        self,
        query: BatchQuery,
        needed0: dict[tuple[int, int], list[PartitionNode]],
        decisions: dict[frozenset[int], RoutingDecision],
        read_set: BatchReadSet,
    ) -> tuple[list[SpatialObject], int]:
        """One query's retrieval and filtering against the start-of-batch trees.

        Returns ``(hits, records examined)``.  The plan and the per-group
        collect order are deterministic (see :meth:`_query_plan`), so the
        hits come back in the same order no matter which thread — or how
        many threads — execute the queries of a batch.
        """
        return filter_groups(
            [
                (dataset_id, read_set.read(file, run))
                for dataset_id, file, run in self._query_plan(query, needed0, decisions)
            ],
            query.box.lo,
            query.box.hi,
        )

    def _read_and_filter(
        self,
        batch: QueryBatch,
        needed0: dict[tuple[int, int], list[PartitionNode]],
        read_set: BatchReadSet,
    ) -> tuple[list[list[SpatialObject]], list[int], list[BufferCounters]]:
        """Read every needed group once, filter each query with one mask each."""
        processor = self._processor
        disk = processor.catalog.datasets()[0].disk
        pool = disk.buffer_pool
        decisions = self._route_decisions(batch)
        results: list[list[SpatialObject]] = [[] for _ in batch.queries]
        examined: list[int] = [0 for _ in batch.queries]
        cache_deltas: list[BufferCounters] = [BufferCounters() for _ in batch.queries]
        for query in batch.queries:
            cache_start = pool.counters()
            hits, count = self._filter_one_query(query, needed0, decisions, read_set)
            disk.charge_cpu_records(count)
            results[query.index] = hits
            examined[query.index] = count
            cache_deltas[query.index] = pool.counters().delta_since(cache_start)
        return results, examined, cache_deltas

    # ------------------------------------------------------------------ #
    # Phase 4 — replay of the adaptive per-query pipeline
    # ------------------------------------------------------------------ #

    def _replay_updates(
        self,
        queries: Sequence[BatchQuery],
        first_touch: dict[int, int],
        extended: dict[tuple[int, int], Box],
        needed0: dict[tuple[int, int], list[PartitionNode]],
        versions0: dict[int, int],
        results: list[list[SpatialObject]],
        examined: list[int],
        cache_deltas: list[BufferCounters],
    ) -> list[QueryReport]:
        """Apply statistics, refinement and merging in sequential order.

        Works on the *current* trees: the leaves each query retrieved are
        re-resolved whenever a tree was refined since overlap resolution,
        which makes every hit count, refinement decision, statistics update
        and merge trigger identical to sequential execution.
        """
        processor = self._processor
        adaptor = processor.adaptor
        statistics = processor.statistics
        directory = processor.directory
        merger = processor.merger
        trees = processor.live_trees
        pool = processor.catalog.datasets()[0].disk.buffer_pool
        reports: list[QueryReport] = []
        for query in queries:
            requested = query.requested
            cache_start = pool.counters()
            ordered = tuple(sorted(requested))
            report = QueryReport(query_index=processor.queries_executed, requested=ordered)
            statistics.tick()
            report.initialized_datasets = [
                dataset_id
                for dataset_id in ordered
                if first_touch.get(dataset_id) == query.index
            ]
            needed: dict[int, list[PartitionNode]] = {}
            for dataset_id in ordered:
                tree = trees[dataset_id]
                if tree.version == versions0[dataset_id]:
                    needed[dataset_id] = needed0[(query.index, dataset_id)]
                else:
                    # The tree was refined mid-replay; the scalar walk gives
                    # the same leaves in the same order as the snapshot.
                    needed[dataset_id] = tree.leaves_overlapping(
                        extended[(query.index, dataset_id)]
                    )
            decision = choose_route(directory, requested)
            report.route = decision.kind.value
            info = decision.merge_info
            if info is not None:
                merger.mark_used(info.combination)
            accessed_keys: dict[int, set] = {}
            for dataset_id in ordered:
                leaves = needed[dataset_id]
                accessed_keys[dataset_id] = {leaf.key for leaf in leaves}
                for leaf in leaves:
                    leaf.hit_count += 1
                report.partitions_read += len(leaves)
                if info is not None and dataset_id in decision.covered_datasets:
                    report.partitions_from_merge += sum(
                        info.has_segment(leaf.key, dataset_id) for leaf in leaves
                    )
            report.objects_examined = examined[query.index]
            report.results = len(results[query.index])
            for dataset_id in ordered:
                tree = trees[dataset_id]
                for leaf in needed[dataset_id]:
                    # A leaf without records is never a refinement candidate.
                    if leaf.n_objects and adaptor.maybe_refine(tree, leaf, query.box).refined:
                        report.refinements += 1
            statistics.record_query(
                requested, accessed_keys, query_volume=query.box.volume()
            )
            merge_outcome = merger.maybe_merge(requested, trees)
            report.merged = merge_outcome.merged
            report.merge_new_partitions = merge_outcome.new_partitions
            report.evicted_merge_files = len(merge_outcome.evicted_combinations)
            report.cache = cache_deltas[query.index] + pool.counters().delta_since(
                cache_start
            )
            processor.note_executed(report)
            reports.append(report)
        return reports
