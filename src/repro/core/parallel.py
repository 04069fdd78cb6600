"""Thread-parallel batch execution with a deterministic writer phase.

:class:`ParallelExecutor` runs the same four-phase model as
:class:`~repro.core.batch.BatchExecutor` but fans the read-only middle out
across a :class:`~concurrent.futures.ThreadPoolExecutor`:

* **overlap resolution** is one task per combination group — each task
  resolves all of its group's query windows with one
  :meth:`~repro.core.partition.PartitionTree.leaves_overlapping_batch`
  kernel call over prebuilt leaf snapshots;
* **retrieval and filtering** is one task per query — page decode and the
  vectorized window mask run concurrently, with group reads deduplicated
  through a thread-safe :class:`ParallelReadSet` (per-key locks, so one
  group is decoded exactly once no matter how many queries race for it).

Everything that *mutates* engine state stays single-threaded and ordered:

* phase 1 initialises missing trees in sequential first-touch order before
  any worker starts (tree initialisation writes partition files);
* simulated CPU charges for the filtered records are applied in submission
  order after the parallel phase completes, so the accumulated
  ``cpu_seconds`` is the identical float sum the serial batch produces;
* phase 4 replays statistics, refinement and merging in submission order —
  the same deterministic writer phase the serial batch executor uses.

Because the parallel phases only read start-of-batch state and every
worker-side computation (plan construction, on-disk-order sorting, collect
order) is a deterministic function of that state, a parallel batch returns
bit-identical results (hit order included), ``QueryReport``\\ s, adaptive
state and on-disk bytes to the serial batch executor — and therefore, by
the batch oracle, result-identical state to sequential execution.  The
randomized differential fuzz harness (``tests/test_engine_fuzz.py``)
enforces this across engines, seeds and worker counts.

What is *not* reproduced bit-for-bit is the simulated I/O trace: threads
fetch pages in nondeterministic order, so head-position classification
(sequential vs random) and buffer-pool hit patterns may differ between
runs.  That trace never feeds back into results or adaptive decisions —
the cache is read-through/write-through and refinement depends only on
tree state and query windows — which is exactly why it can be left free.

Where the speedup comes from: NumPy releases the GIL inside its kernels
and the byte-copy work under the disk lock is small, so the decode +
filter work of independent queries overlaps on multi-core hosts.  On a
single core (or for tiny batches) the thread fan-out only adds overhead —
``workers=1`` falls back to the serial batch executor.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor

from repro.core.batch import (
    BatchExecutor,
    BatchQuery,
    BatchReadSet,
    BatchResult,
    QueryBatch,
)
from repro.core.partition import PartitionNode
from repro.core.query_processor import QueryProcessor
from repro.data.columnar import DecodedGroup
from repro.data.spatial_object import SpatialObject
from repro.geometry.box import Box
from repro.obs.trace import maybe_span
from repro.storage.buffer import BufferCounters
from repro.storage.pagedfile import PagedFile, StoredRun


def default_workers() -> int:
    """The worker count used when ``workers`` is requested but unspecified."""
    return min(8, os.cpu_count() or 1)


class ParallelReadSet(BatchReadSet):
    """A :class:`BatchReadSet` safe for concurrent readers.

    The dedup dictionary is guarded by one lock; decoding happens under a
    *per-group* lock so two queries racing for the same stored group never
    decode it twice (the loser blocks briefly, then counts a dedup hit),
    while queries needing different groups decode fully in parallel.
    Counter semantics match the serial read set exactly: ``group_reads``
    is the number of :meth:`read` calls and ``dedup_hits`` is that count
    minus the number of distinct groups, regardless of interleaving.
    """

    def __init__(self, dimension: int) -> None:
        super().__init__(dimension)
        self._registry_lock = threading.Lock()
        self._group_locks: dict[tuple, threading.Lock] = {}

    def read(self, file: PagedFile[SpatialObject], run: StoredRun) -> DecodedGroup:
        """The decoded records of one stored group (decoded exactly once)."""
        key = (file.name, run.extents, run.n_records)
        with self._registry_lock:
            self.group_reads += 1
            group = self._groups.get(key)
            if group is not None:
                self.dedup_hits += 1
                return group
            lock = self._group_locks.setdefault(key, threading.Lock())
        with lock:
            group = self._groups.get(key)
            if group is None:
                group = self._load(file, run)
                with self._registry_lock:
                    self._groups[key] = group
            else:
                with self._registry_lock:
                    self.dedup_hits += 1
        return group


class ParallelExecutor(BatchExecutor):
    """Runs one :class:`QueryBatch` across ``workers`` threads.

    Results, reports, adaptive state and on-disk bytes are bit-identical
    to :class:`~repro.core.batch.BatchExecutor` (see the module docstring
    for the argument); only wall-clock time and the per-query
    ``QueryReport.cache`` attribution — approximate under any batched
    execution — may differ.
    """

    def __init__(self, processor: QueryProcessor, workers: int | None = None) -> None:
        super().__init__(processor)
        if workers is None:
            workers = default_workers()
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self._workers = workers

    @property
    def workers(self) -> int:
        """The maximum number of worker threads used per batch."""
        return self._workers

    _executor_name = "thread"

    def run(self, batch: QueryBatch) -> BatchResult:
        """Execute the batch; equivalent to sequential execution in order."""
        if self._workers == 1 or len(batch) < 2:
            return super().run(batch)
        processor = self._processor
        queries = batch.queries
        catalog = processor.catalog

        tracer = processor.tracer
        with maybe_span(
            tracer,
            "batch",
            queries=len(queries),
            executor=self._executor_name,
            workers=self._workers,
        ):
            # Writer-side setup: initialise trees in first-touch order, then
            # freeze everything the workers will consume — extended windows,
            # per-tree leaf snapshots, routing decisions and merge-file
            # handles — so the parallel phases run over immutable state.
            with maybe_span(tracer, "batch.init_trees"):
                first_touch = self._initialize_trees(queries)
                extended = self._extended_windows(queries)
                self._prebuild_read_state(batch)
                decisions = self._route_decisions(batch)
                for decision in decisions.values():
                    if decision.merge_info is not None:
                        processor.merger.merge_file(decision.merge_info.combination)

            with ThreadPoolExecutor(
                max_workers=self._workers, thread_name_prefix="repro-batch"
            ) as executor:
                with maybe_span(tracer, "batch.overlap"):
                    needed0, versions0 = self._resolve_overlaps_parallel(
                        batch, extended, executor
                    )
                read_set = ParallelReadSet(catalog.dimension)
                with maybe_span(tracer, "batch.read_filter") as phase:
                    results, examined, cache_deltas = self._read_and_filter_parallel(
                        batch, needed0, decisions, read_set, executor,
                        tracer=tracer, parent=phase,
                    )

            # Deterministic writer phase: CPU charges in submission order
            # (the identical float sum the serial batch accumulates), then
            # the ordered replay of statistics, refinement and merging.
            with maybe_span(tracer, "batch.replay"):
                disk = catalog.datasets()[0].disk
                for query in queries:
                    disk.charge_cpu_records(examined[query.index])
                reports = self._replay_updates(
                    queries, first_touch, extended, needed0, versions0, results,
                    examined, cache_deltas,
                )
        return BatchResult(
            results=results,
            reports=reports,
            group_reads=read_set.group_reads,
            group_reads_deduped=read_set.dedup_hits,
        )

    # ------------------------------------------------------------------ #
    # Parallel phase 2 — overlap resolution, one task per combination group
    # ------------------------------------------------------------------ #

    def _prebuild_read_state(self, batch: QueryBatch) -> None:
        """Build every involved tree's leaf snapshot before fanning out.

        Snapshot construction mutates the tree's cache; doing it here —
        single-threaded, in sorted dataset order — keeps the parallel
        phases free of writes to shared structures.
        """
        trees = self._processor.live_trees
        involved = sorted({d for query in batch.queries for d in query.requested})
        for dataset_id in involved:
            trees[dataset_id].leaf_snapshot()

    def _resolve_overlaps_parallel(
        self,
        batch: QueryBatch,
        extended: dict[tuple[int, int], Box],
        executor: ThreadPoolExecutor,
    ) -> tuple[dict[tuple[int, int], list[PartitionNode]], dict[int, int]]:
        """Per-(query, dataset) overlapping leaves, one task per group."""
        trees = self._processor.live_trees
        versions0: dict[int, int] = {}
        groups = batch.groups()
        for combination in groups:
            for dataset_id in combination:
                versions0[dataset_id] = trees[dataset_id].version

        def resolve(
            combination: frozenset[int], group: list[BatchQuery]
        ) -> dict[tuple[int, int], list[PartitionNode]]:
            local: dict[tuple[int, int], list[PartitionNode]] = {}
            for dataset_id in sorted(combination):
                windows = [extended[(query.index, dataset_id)] for query in group]
                per_query = trees[dataset_id].leaves_overlapping_batch(windows)
                for query, leaves in zip(group, per_query):
                    local[(query.index, dataset_id)] = leaves
            return local

        futures = [
            executor.submit(resolve, combination, group)
            for combination, group in groups.items()
        ]
        needed0: dict[tuple[int, int], list[PartitionNode]] = {}
        for future in futures:  # merged in submission (group) order
            needed0.update(future.result())
        return needed0, versions0

    # ------------------------------------------------------------------ #
    # Parallel phase 3 — retrieval and filtering, one task per query
    # ------------------------------------------------------------------ #

    def _read_and_filter_parallel(
        self,
        batch: QueryBatch,
        needed0: dict[tuple[int, int], list[PartitionNode]],
        decisions,
        read_set: ParallelReadSet,
        executor: ThreadPoolExecutor,
        *,
        tracer=None,
        parent=None,
    ) -> tuple[list[list[SpatialObject]], list[int], list[BufferCounters]]:
        """Every query's decode + filter as one concurrent task.

        With a tracer attached, each task records a ``query.filter`` span
        explicitly parented on the dispatching phase span (``parent``) —
        worker threads have empty span stacks, so implicit nesting cannot
        apply across the pool boundary.
        """
        pool = self._processor.catalog.datasets()[0].disk.buffer_pool

        def work(
            query: BatchQuery,
        ) -> tuple[list[SpatialObject], int, BufferCounters]:
            with maybe_span(
                tracer, "query.filter", parent=parent, query=query.index
            ) as span:
                cache_start = pool.counters()
                hits, count = self._filter_one_query(
                    query, needed0, decisions, read_set
                )
                if span is not None:
                    span.attributes.update(hits=len(hits), examined=count)
                return hits, count, pool.counters().delta_since(cache_start)

        futures = [executor.submit(work, query) for query in batch.queries]
        results: list[list[SpatialObject]] = [[] for _ in batch.queries]
        examined: list[int] = [0 for _ in batch.queries]
        cache_deltas: list[BufferCounters] = [BufferCounters() for _ in batch.queries]
        for query, future in zip(batch.queries, futures):
            hits, count, delta = future.result()
            results[query.index] = hits
            examined[query.index] = count
            cache_deltas[query.index] = delta
        return results, examined, cache_deltas
