"""Batched execution: one pipeline that amortises work across a group of queries.

The paper's setting is a *sequence* of exploratory queries, yet the
sequential :class:`~repro.core.query_processor.QueryProcessor` pays every
cost — partition overlap tests, page decoding, object filtering — once per
query.  :class:`BatchExecutor` executes a whole batch at once while
guaranteeing that results **and** the post-batch adaptive state (partition
trees, statistics, merge directory, file bytes) are identical to running
the same queries sequentially in order.

Execution model
---------------
A batch runs the Query Processor's per-query pipeline in four phases.
:meth:`BatchExecutor.prepare` is the read half:

1. **First touch** — every requested dataset whose partition tree does
   not exist yet is initialised up front, in the order sequential execution
   would have first touched it.  Initialisation only depends on the raw
   dataset, so doing it early changes no observable state.
2. **Overlap resolution** — the windows of every (query, dataset) pair
   are extended and clamped as one array program, and per requested
   dataset their partition overlap tests are resolved in a single call to
   the vectorized :func:`~repro.geometry.vectorized.intersect_matrix`
   kernel over the tree's leaf table.  The rows of those that hold
   records, which the query reads, come from one
   :meth:`~repro.core.partition.LeafSnapshot.occupied` call per tree, and
   the rows each query would refine from one candidate program per tree
   over them (:meth:`~repro.core.adaptor.Adaptor.candidates_batch`).
3. **Retrieval and filtering** — routing is decided once per combination
   and every query's reads are planned in on-disk order; each query then
   hands its whole plan to a :class:`BatchReadSet`, a shared read set
   layered on the buffer pool, once: the groups no earlier query of the
   batch read are one storage call
   (:func:`~repro.storage.pagedfile.read_groups`), so each distinct stored
   group is fetched and decoded once per batch (into structured NumPy
   arrays, not per-record Python objects) no matter how many queries need
   it.  The batch's records are then filtered together against the
   original query windows (:func:`~repro.data.columnar.filter_groups`):
   one concatenation, one split into columns, one vectorized mask over
   per-row windows, one materialisation of ``SpatialObject`` instances
   for the actual hits, split per query.

:meth:`BatchExecutor.commit` is the write half, under the engine gate:

4. **Ordered commit** — per query, in submission order, the simulated
   CPU charge for the records it examined, then statistics, refinement
   and merging, replayed through the sequential writer half
   (``QueryProcessor.commit_query``) against the evolving trees, handed
   each tree's rows, occupied rows and candidates while the tree is
   unrefined and each combination's route while the merge directory is
   unchanged; then the next epoch is published (once a snapshot read
   started the epoch layer) and the batch journaled.  Each query's
   ``cache`` report comes from the buffer pool's counter tallies at its
   read's and its commit's boundaries.  Because refinement
   decisions depend only on (tree state, query window) and both start
   from the same state, the replay reproduces
   the sequential evolution exactly — same refinements in the same order,
   same page reuse, same merge files, same budget refusals.  Nothing a
   commit owns changes before it runs, so a batch whose read half raises
   leaves the CPU clock, the query count, the statistics, the trees (past
   first touch) and the journal as they were.  A batch whose writer half
   raises at query ``k`` leaves the first ``k`` committed and journaled,
   as sequential execution would, and the error carries their answers as
   ``committed_results``.

Two choices
-----------
The phases are written once; two constructor arguments choose how the read
half runs.

* **Where reads resolve.**  Live (``snapshot=False``): the processor's
  trees, merge directory and merge files, with the gate held by the caller
  for the whole batch.  Pinned (``snapshot=True``): the current
  :class:`~repro.core.epoch.EngineEpoch`, read with no lock held, so only
  the commit serialises and concurrent batches overlap their reads; pages
  overwritten or deleted since the pin come from the epoch's retained
  pre-images.  In isolation the pinned epoch *is* the start-of-batch state,
  so both give the same bytes.
* **How phase 3's reads run.**  Inline (``workers`` ``None`` or 1), or on
  a :class:`~concurrent.futures.ThreadPoolExecutor` of ``workers``
  threads: one task per query, with group reads deduplicated through the
  thread-safe :class:`~repro.core.parallel.ParallelReadSet`.  Overlaps,
  planning and the filter always run inline — each is a few array calls
  for the whole batch.  The reads only touch start-of-batch state and
  every task is a deterministic function of it, so results (hit order
  included), reports, adaptive state and on-disk bytes do not depend on
  the thread count; only the simulated I/O *trace* (head position, buffer
  hits) may, and it never feeds back into results or decisions.

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

from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import chain
from operator import add
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.core.epoch import EngineEpoch
from repro.core.merge import RoutingDecision, choose_route
from repro.core.partition import LeafSnapshot
from repro.core.query_processor import QueryProcessor, QueryReport, plan_reads
from repro.data.columnar import filter_groups
from repro.data.spatial_object import SpatialObject
from repro.geometry.box import Box
from repro.obs.trace import maybe_span
from repro.storage.buffer import BufferCounters
from repro.storage.pagedfile import PagedFile, StoredRun, read_groups
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
    a stored group.  :meth:`read` is entered once per query with its whole
    plan: the groups no earlier query of the batch read go through one
    call of the shared storage reader
    (:func:`~repro.storage.pagedfile.read_groups`, so cost accounting, the
    buffer pool and the decoded-array cache behave exactly as for
    sequential reads); the rest are free.  With ``lookup`` — a pinned
    epoch's :meth:`~repro.core.epoch.EngineEpoch.lookup_page` — pages
    destroyed since the pin are served from their retained pre-images.
    The set lives for a single batch only: batch reads all complete before
    any write of the commit phase, so no invalidation is ever needed.
    """

    def __init__(self, lookup: Callable[[str, int], bytes | None] | None = None) -> None:
        self._lookup = lookup
        self._groups: dict[tuple, np.ndarray] = {}
        self.group_reads = 0
        self.dedup_hits = 0

    def read(self, plan: Sequence[tuple[int, PagedFile, StoredRun]]) -> list[np.ndarray]:
        """The records of each ``(dataset, file, run)`` of one plan, in plan order."""
        groups = self._groups
        keys = [(file.name, run.extents, run.n_records) for _, file, run in plan]
        missing = {key: (file, run) for key, (_, file, run) in zip(keys, plan) if key not in groups}
        self.group_reads += len(keys)
        self.dedup_hits += len(keys) - len(missing)
        if missing:
            groups.update(zip(missing, read_groups(list(missing.values()), self._lookup)))
        return [groups[key] for key in keys]


@dataclass
class PreparedBatch:
    """What the read half of one batch produced; the commit's whole input.

    Produced by :meth:`BatchExecutor.prepare` and consumed exactly once by
    :meth:`BatchExecutor.commit` (or :meth:`QueryProcessor.commit_batch`).
    A snapshot batch's epoch (``epoch_id``; ``-1`` for live reads) is
    already unpinned — every read is materialised into ``results``.
    """

    executor: "BatchExecutor"
    batch: QueryBatch
    epoch_id: int = -1
    first_touch: dict[int, int] = field(default_factory=dict)
    tables0: dict[int, LeafSnapshot] = field(default_factory=dict)
    #: Per ``(query, dataset)``: the rows of ``tables0`` it overlaps, those
    #: of them that hold records (which it reads) and those it refines.
    selected0: dict[tuple[int, int], tuple] = field(default_factory=dict)
    #: The route of each combination, decided at merge-directory version
    #: ``route_version``.
    routes: dict[frozenset[int], RoutingDecision] = field(default_factory=dict)
    route_version: int = -1
    results: list[list[SpatialObject]] = field(default_factory=list)
    examined: list[int] = field(default_factory=list)
    #: Per query: the buffer pool's tally before and after its reads.
    read_tallies: list[tuple[tuple[int, ...], tuple[int, ...]]] = field(default_factory=list)
    group_reads: int = 0
    dedup_hits: int = 0


def _each(pool: ThreadPoolExecutor | None, task: Callable, items: Iterable) -> list:
    """``task`` over ``items``, results in item order: inline or on ``pool``."""
    if pool is None:
        return [task(item) for item in items]
    return list(pool.map(task, items))


def _extended_windows(
    extent: np.ndarray, u_lo: np.ndarray, u_hi: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(m, d)`` query windows extended by maximum extents, clamped to universes.

    Row ``i`` of ``lo``/``hi`` is a window and row ``i`` of ``extent``,
    ``u_lo`` and ``u_hi`` its tree's maximum extent and universe corners
    (or one row for all windows).  Row for row the floats of
    ``Box.expand(max_extent).clamp(universe)``, bit for bit: the same IEEE
    subtraction and addition, then Python's ``max``/``min`` written as
    ``np.where`` (``np.maximum`` may return the other of two equal zeros).
    """
    lo = lo - extent
    lo = np.where(u_lo > lo, u_lo, lo)
    hi = hi + extent
    hi = np.where(u_hi < hi, u_hi, hi)
    return np.where(u_hi < lo, u_hi, lo), np.where(u_lo > hi, u_lo, hi)


class BatchExecutor:
    """Runs one :class:`QueryBatch`: ``commit(prepare(batch))``.

    ``workers`` (``None`` or 1 runs the reads inline) and
    ``snapshot`` (read a pinned epoch instead of the live state) are the
    two choices of the module docstring; every combination is
    bit-identical in isolation.  A live batch must run with the processor's
    gate held (:meth:`QueryProcessor.execute_batch` holds it); a snapshot
    batch takes the gate itself, only where it writes.
    """

    def __init__(
        self, processor: QueryProcessor, workers: int | None = None, snapshot: bool = False
    ) -> None:
        if workers is not None and workers < 1:
            raise ValueError("workers must be >= 1")
        self._processor = processor
        self._workers = workers or 1
        self._snapshot = snapshot

    def run(self, batch: QueryBatch) -> BatchResult:
        """Execute the batch; equivalent to sequential execution in order."""
        if self._snapshot:
            label = "epoch"
        else:
            label = "thread" if self._workers > 1 else "serial"
        with maybe_span(
            self._processor.tracer,
            "batch",
            queries=len(batch),
            executor=label,
            workers=self._workers,
        ) as span:
            result = self.commit(self.prepare(batch))
            if span is not None:
                span.attributes.update(
                    group_reads=result.group_reads, dedup_hits=result.group_reads_deduped
                )
        return result

    # ------------------------------------------------------------------ #
    # The read half: phases 1-3
    # ------------------------------------------------------------------ #

    def prepare(self, batch: QueryBatch) -> PreparedBatch:
        """First touch, overlap resolution, routing, retrieval and filtering."""
        processor = self._processor
        if not batch.queries:
            return PreparedBatch(executor=self, batch=batch)
        # Only a snapshot batch's read half is a span of its own: it runs
        # outside the gate its commit takes.
        with maybe_span(
            processor.tracer if self._snapshot else None, "epoch.prepare", queries=len(batch)
        ) as span:
            first_touch, epoch = self._first_touch(batch.queries)
            if span is not None:
                span.attributes["epoch"] = epoch.epoch_id
            try:
                return self._read(batch, first_touch, epoch)
            finally:
                if epoch is not None:
                    processor.epochs.unpin(epoch)

    def _first_touch(
        self, queries: Sequence[BatchQuery]
    ) -> tuple[dict[int, int], EngineEpoch | None]:
        """Phase 1: build missing trees in sequential first-touch order.

        Returns ``dataset_id -> index of the query that first touched it``,
        so the commit attributes each initialisation to the right
        :class:`QueryReport` exactly as sequential execution would, and the
        epoch to read (pinned by :meth:`QueryProcessor.pin_epoch`; ``None``
        for live reads).  A snapshot batch takes the gate only when its
        pinned epoch lacks a requested tree: initialisation writes the
        partition file.
        """
        processor = self._processor
        if self._snapshot:
            epoch = processor.pin_epoch()
            if all(d in epoch.trees for query in queries for d in query.requested):
                return {}, epoch
            processor.epochs.unpin(epoch)
        with processor.gate:  # re-entrant: a live batch's caller holds it already
            with maybe_span(processor.tracer, "batch.init_trees"):
                trees = processor.live_trees
                first_touch: dict[int, int] = {}
                for query in queries:
                    for dataset_id in sorted(query.requested):
                        if dataset_id not in trees:
                            first_touch.setdefault(dataset_id, query.index)
                processor.initialize_trees(first_touch)  # in first-touch order
            if not self._snapshot:
                return first_touch, None
            processor.publish_epoch()
            return first_touch, processor.pin_epoch()

    def _read(
        self, batch: QueryBatch, first_touch: dict[int, int], epoch: EngineEpoch | None
    ) -> PreparedBatch:
        """Phases 2-3 against the live state (``epoch`` is ``None``) or a pinned epoch."""
        processor = self._processor
        queries = batch.queries
        tracer = processor.tracer
        if epoch is None:
            trees, directory, lookup = processor.live_trees, processor.directory, None
        else:
            trees, directory, lookup = epoch.trees, epoch.directory, epoch.lookup_page
        pooled = self._workers > 1 and len(queries) > 1
        q_lo = np.array([query.box.lo for query in queries], dtype=np.float64)
        q_hi = np.array([query.box.hi for query in queries], dtype=np.float64)
        with maybe_span(tracer, "batch.overlap"):
            tables0, selected0 = self._resolve_overlaps(queries, q_lo, q_hi, trees)
        plans, routes = self._plans(batch, tables0, selected0, directory, epoch)
        if pooled:
            from repro.core.parallel import ParallelReadSet

            read_set = ParallelReadSet(lookup)
        else:
            read_set = BatchReadSet(lookup)
        with maybe_span(tracer, "batch.read_filter") as phase:
            with (
                ThreadPoolExecutor(self._workers, thread_name_prefix="repro-batch")
                if pooled
                else nullcontext()
            ) as pool:
                reads = self._read_groups(plans, read_set, pool, phase)
            results, examined = filter_groups(
                [entry for entries, _ in reads for entry in entries], q_lo, q_hi
            )
        return PreparedBatch(
            executor=self,
            batch=batch,
            epoch_id=-1 if epoch is None else epoch.epoch_id,
            first_touch=first_touch,
            tables0=tables0,
            selected0=selected0,
            routes=routes,
            route_version=directory.version,
            results=results,
            examined=examined,
            read_tallies=[tallies for _, tallies in reads],
            group_reads=read_set.group_reads,
            dedup_hits=read_set.dedup_hits,
        )

    def _resolve_overlaps(
        self, queries: Sequence[BatchQuery], q_lo: np.ndarray, q_hi: np.ndarray, trees: Mapping
    ) -> tuple[dict[int, LeafSnapshot], dict[tuple[int, int], tuple]]:
        """Phase 2: all windows as one array program, one kernel call per dataset.

        The extended windows of every ``(query, dataset)`` pair are built
        together, grouped by dataset, and each dataset's block is one
        overlap kernel over its tree's leaf table.  Returns each tree's
        start-of-batch table — live, or the pinned epoch's frozen one,
        which the live trees' refinements never touch — and per (query,
        dataset) the rows of it the window overlaps, those of them that
        hold records, from one :meth:`LeafSnapshot.occupied` call per tree,
        and those the query would refine, from one candidate program per
        tree over the occupied rows (:meth:`Adaptor.candidates_batch`).
        The plans read the occupied rows, and the commit reuses all three
        while a tree is still at that table's version.
        """
        requesting: dict[int, list[int]] = {}
        for query in queries:
            for dataset_id in query.requested:
                requesting.setdefault(dataset_id, []).append(query.index)
        sources = [trees[dataset_id] for dataset_id in requesting]
        # Per pair: its query's corners and its tree's extent and universe.
        pairs = np.fromiter(chain.from_iterable(requesting.values()), dtype=np.intp)
        which = np.repeat(np.arange(len(sources)), [len(q) for q in requesting.values()])
        bounds = np.array(
            [(s.max_extent, s.universe.lo, s.universe.hi) for s in sources], dtype=np.float64
        )[which]
        lo, hi = _extended_windows(
            bounds[:, 0], bounds[:, 1], bounds[:, 2], q_lo[pairs], q_hi[pairs]
        )
        # Each query's Box.volume(): math.prod's left fold, per axis.
        extents = q_hi - q_lo
        volumes = extents[:, 0]
        for axis in range(1, extents.shape[1]):
            volumes = volumes * extents[:, axis]
        adaptor = self._processor.adaptor
        tables0: dict[int, LeafSnapshot] = {}
        selected0: dict[tuple[int, int], tuple] = {}
        stop = 0
        for (dataset_id, indices), tree in zip(requesting.items(), sources):
            start, stop = stop, stop + len(indices)
            if self._snapshot:
                table = tree.snapshot
                per_window = tree.overlapping_batch(lo[start:stop], hi[start:stop])
            else:
                table = tree.leaf_snapshot()
                per_window = tree.leaves_overlapping_batch(lo[start:stop], hi[start:stop])
            tables0[dataset_id] = table
            occupied = table.occupied(per_window)
            picked = adaptor.candidates_batch(table, occupied, volumes[indices])
            pair_keys = [(index, dataset_id) for index in indices]
            selected0.update(zip(pair_keys, zip(per_window, occupied, picked)))
        return tables0, selected0

    def _plans(
        self,
        batch: QueryBatch,
        tables0: Mapping[int, LeafSnapshot],
        selected0: Mapping[tuple[int, int], tuple],
        directory,
        epoch: EngineEpoch | None,
    ) -> tuple[
        list[list[tuple[int, PagedFile[SpatialObject], StoredRun]]],
        dict[frozenset[int], RoutingDecision],
    ]:
        """Each query's reads (its occupied rows) in on-disk order, and the combinations' routes.

        Routing is decided once per combination: the merge directory cannot
        change before the commit, so every read of the batch sees one
        directory state.  Planned inline, before any read: the merger's
        handle cache is not for pool threads to fill.
        """
        routes = {
            combination: choose_route(directory, combination) for combination in batch.groups()
        }
        if epoch is None:
            trees, merger = self._processor.live_trees, self._processor.merger

            def merge_file(info) -> PagedFile[SpatialObject]:
                return merger.merge_file(info.combination)

        else:
            trees = epoch.trees

            def merge_file(info) -> PagedFile[SpatialObject]:
                return epoch.merge_files[info.combination]

        def tree_file(dataset_id: int) -> PagedFile[SpatialObject]:
            return trees[dataset_id].file

        plans = [
            plan_reads(
                [(d, tables0[d], selected0[(query.index, d)][1]) for d in sorted(query.requested)],
                routes[query.requested],
                tree_file,
                merge_file,
            )
            for query in batch.queries
        ]
        return plans, routes

    def _read_groups(
        self,
        plans: Sequence[list[tuple[int, PagedFile[SpatialObject], StoredRun]]],
        read_set: BatchReadSet,
        pool: ThreadPoolExecutor | None,
        phase,
    ) -> list[tuple[list[tuple[int, int, np.ndarray]], tuple[tuple[int, ...], tuple[int, ...]]]]:
        """Phase 3's reads: one read-set call per query, with its whole plan.

        Returns, per query in submission order, its ``(query index, owner,
        records)`` entries in plan order and the buffer pool's tally
        (:attr:`~repro.storage.buffer.BufferPool.tally`) before and after
        its read.  A pooled task records a ``query.read`` span parented
        explicitly on ``phase``: worker threads have empty span stacks, so
        implicit nesting cannot apply across the pool boundary.
        """
        buffer_pool = self._processor.catalog.datasets()[0].disk.buffer_pool
        tracer = None if pool is None else self._processor.tracer

        def work(item):
            index, plan = item
            with maybe_span(tracer, "query.read", parent=phase, query=index):
                start = buffer_pool.tally
                records = read_set.read(plan)
                entries = [(index, d, group) for (d, _, _), group in zip(plan, records)]
                return entries, (start, buffer_pool.tally)

        return _each(pool, work, enumerate(plans))

    # ------------------------------------------------------------------ #
    # The write half: phase 4
    # ------------------------------------------------------------------ #

    def commit(self, prepared: PreparedBatch) -> BatchResult:
        """The ordered commit, under the gate; publishes and journals the batch.

        The replay charges each query's examined records just before its
        writer half, as sequential ``query()`` does, so the queries after
        one whose writer half raises are not charged.  Concurrent
        snapshot batches commit in gate-acquisition (arrival) order, so
        the adaptive state evolves exactly as sequential execution.
        """
        processor = self._processor
        queries = prepared.batch.queries
        with maybe_span(
            processor.tracer,
            "epoch.commit" if self._snapshot else "batch.replay",
            queries=len(queries),
            epoch=prepared.epoch_id,
        ):
            with processor.gate:
                reports: list[QueryReport] = []
                failure = None
                try:
                    self._replay_updates(prepared, reports)
                except Exception as error:
                    failure = error
                committed = queries[: len(reports)]
                processor.publish_epoch()
                processor.commit_durable((query.box, query.requested) for query in committed)
                if failure is not None:
                    failure.committed_results = prepared.results[: len(committed)]
                    raise failure
        return BatchResult(
            results=prepared.results,
            reports=reports,
            group_reads=prepared.group_reads,
            group_reads_deduped=prepared.dedup_hits,
        )

    def _replay_updates(self, prepared: PreparedBatch, reports: list[QueryReport]) -> None:
        """Apply statistics, refinement and merging in sequential order.

        Works on the *current* trees: each query goes through the sequential
        writer half, handed the rows it overlapped, the occupied rows it
        read and the rows it refines from every tree that has not been
        refined since overlap resolution (the writer half re-resolves the
        others: their read-half rows miss the children splits appended), and the route
        planned for its combination while the merge directory is at the
        version it was planned at (the writer half re-routes otherwise).
        That makes every refinement decision, statistics update and merge
        trigger identical to sequential execution.  A query's ``cache`` is
        its read's tally difference plus its commit's, taken at the query
        boundaries of the replay.  Each committed query's report is appended
        to ``reports``, so after a raise they count the committed prefix.
        """
        processor = self._processor
        trees = processor.live_trees
        directory = processor.directory
        disk = processor.catalog.datasets()[0].disk
        pool = disk.buffer_pool
        first_touch, tables0, selected0 = prepared.first_touch, prepared.tables0, prepared.selected0
        start = pool.tally
        for query, (read_start, read_end) in zip(prepared.batch.queries, prepared.read_tallies):
            index = query.index
            ordered = tuple(sorted(query.requested))
            report = QueryReport(query_index=processor.queries_executed, requested=ordered)
            if first_touch:
                report.initialized_datasets = [d for d in ordered if first_touch.get(d) == index]
            report.objects_examined = prepared.examined[index]
            report.results = len(prepared.results[index])
            rows: dict[int, np.ndarray] = {}
            held: dict[int, np.ndarray] = {}
            picked: dict[int, Sequence[int]] = {}
            for dataset_id in ordered:
                if trees[dataset_id].version == tables0[dataset_id].version:
                    selection = selected0[(index, dataset_id)]
                    rows[dataset_id], held[dataset_id], picked[dataset_id] = selection
            decision = None
            if directory.version == prepared.route_version:
                decision = prepared.routes[query.requested]
            disk.charge_cpu_records(prepared.examined[index])
            processor.commit_query(query.box, query.requested, report, rows, held, decision, picked)
            end = pool.tally
            report.cache = BufferCounters.between(
                map(add, read_start, start), map(add, read_end, end)
            )
            start = end
            reports.append(report)
