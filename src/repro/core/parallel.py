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
filter work of independent queries overlaps on multi-core hosts.  Pair
``workers > 1`` with a sharded buffer pool
(``Disk(buffer_shards=...)``) so the decoded-array cache stripes its
lock contention as well.  On a single core (or for tiny batches) the
thread fan-out only adds overhead — ``workers=1`` falls back to the
serial batch executor.
"""

from __future__ import annotations

import atexit
import mmap
import multiprocessing
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from repro.core.batch import (
    BatchExecutor,
    BatchQuery,
    BatchReadSet,
    BatchResult,
    QueryBatch,
)
from repro.core.partition import PartitionNode
from repro.core.query_processor import QueryProcessor
from repro.data.columnar import DecodedGroup, filter_groups
from repro.data.spatial_object import SpatialObject
from repro.geometry.box import Box
from repro.geometry.vectorized import boxes_to_arrays, intersect_matrix
from repro.obs.trace import maybe_span
from repro.storage.buffer import BufferCounters
from repro.storage.codec import decode_page_array
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
        for query in queries:
            for dataset_id in query.requested:
                catalog.get(dataset_id)  # validates every id before any work

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


# ---------------------------------------------------------------------- #
# Process-parallel execution
# ---------------------------------------------------------------------- #
#
# ProcessExecutor escapes the GIL entirely: the read-only phases (overlap
# resolution, page decode, vectorized filtering) run in a pool of worker
# *processes*.  Nothing mutable crosses the process boundary — workers
# receive immutable page bytes (a shared-memory staging block, or an mmap
# of the page file for a plain filesystem backend) plus plain-data task
# descriptions, and return plain hit objects.  The deterministic writer
# phase is byte-for-byte the one the serial batch executor runs, in the
# parent, under the gate.

_pool_lock = threading.Lock()
_pools: dict[int, ProcessPoolExecutor] = {}


def _process_pool(workers: int) -> ProcessPoolExecutor:
    """A lazily created, reused worker pool per worker count.

    Pools are expensive to start (a fork or spawn per worker), so they are
    shared across batches and engines for the life of the process.  That
    is safe because workers are stateless: every task carries its own
    immutable inputs.
    """
    with _pool_lock:
        pool = _pools.get(workers)
        if pool is None:
            methods = multiprocessing.get_all_start_methods()
            context = multiprocessing.get_context(
                "fork" if "fork" in methods else "spawn"
            )
            pool = ProcessPoolExecutor(max_workers=workers, mp_context=context)
            _pools[workers] = pool
        return pool


def _discard_pool(workers: int) -> None:
    """Drop a (presumably broken) pool so the next batch starts a fresh one."""
    with _pool_lock:
        pool = _pools.pop(workers, None)
    if pool is not None:
        pool.shutdown(wait=False, cancel_futures=True)


def _shutdown_pools() -> None:
    with _pool_lock:
        pools = list(_pools.values())
        _pools.clear()
    for pool in pools:
        pool.shutdown(wait=False, cancel_futures=True)


atexit.register(_shutdown_pools)


def _attach_shared_memory(name: str) -> shared_memory.SharedMemory:
    """Attach to the parent's staging block without tracking it.

    The parent owns the block's lifecycle (it unlinks after the batch);
    ``track=False`` (Python 3.13+) keeps the worker's resource tracker out
    of it.  Older interpreters attach plainly and then withdraw the
    registration the attach just made, so the tracker never warns about a
    "leaked" segment the parent already unlinked.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13 signature
        handle = shared_memory.SharedMemory(name=name)
        try:
            resource_tracker.unregister(handle._name, "shared_memory")
        except Exception:  # pragma: no cover - tracker quirks are non-fatal
            pass
        return handle


def _resolve_overlap_group(payload, trace: bool = False):
    """Worker half of overlap resolution for one combination group.

    ``payload`` is a list of ``(dataset_id, lo, hi, q_lo, q_hi,
    query_indices)`` tuples — the per-dataset leaf-MBR corner matrices of
    the prebuilt snapshot plus the group's extended windows.  Returns
    ``{(query index, dataset_id): [leaf indices]}``; indices select rows
    of the snapshot the parent shipped, which it maps back to
    ``PartitionNode`` objects (exactly the kernel + gather that
    ``PartitionTree.leaves_overlapping_batch`` runs in-process).

    With ``trace=True`` (parent has a tracer attached) the return value
    becomes ``(out, (start_wall, duration_s, pid))`` — plain timing data
    the parent grafts into its trace.  The computation itself is
    identical either way.
    """
    start_wall = time.time()
    start_perf = time.perf_counter()
    out = {}
    for dataset_id, lo, hi, q_lo, q_hi, query_indices in payload:
        matrix = intersect_matrix(q_lo, q_hi, lo, hi)
        for query_index, row in zip(query_indices, matrix):
            out[(query_index, dataset_id)] = np.nonzero(row)[0].tolist()
    if trace:
        return out, (start_wall, time.perf_counter() - start_perf, os.getpid())
    return out


def _decode_worker_group(task, source, handles) -> DecodedGroup:
    """Decode one staged group inside a worker (zero-copy where possible)."""
    kind = source[0]
    offsets = source[2] if kind == "mmap" else source[1]
    if not offsets:
        # A zero-page group (an empty merge segment): nothing staged for
        # it, so don't touch the buffers — there may not even be a
        # staging block when the whole batch stages nothing.
        records = np.empty(0, dtype=task["dtype"])
        records.setflags(write=False)
        return DecodedGroup.from_records(records, task["dimension"])
    if kind == "shm":
        _, offsets, n_records = source
        handle = handles.get("shm")
        if handle is None:
            handle = _attach_shared_memory(task["shm_name"])
            handles["shm"] = handle
        buffer = handle.buf
    else:
        _, path, offsets, n_records = source
        handle = handles.get(("mmap", path))
        if handle is None:
            with open(path, "rb") as stream:
                handle = mmap.mmap(stream.fileno(), 0, access=mmap.ACCESS_READ)
            handles[("mmap", path)] = handle
        buffer = memoryview(handle)
    dtype = task["dtype"]
    page_size = task["page_size"]
    parts = []
    for offset in offsets:
        decoded = decode_page_array(dtype, buffer[offset : offset + page_size])
        if len(decoded):
            parts.append(decoded)
    if not parts:
        records = np.empty(0, dtype=dtype)
    elif len(parts) == 1:
        records = parts[0]
    else:
        records = np.concatenate(parts)
    records.setflags(write=False)
    if len(records) < n_records:
        raise ValueError(
            f"staged group is corrupt: expected {n_records} records, "
            f"decoded {len(records)}"
        )
    return DecodedGroup.from_records(records[:n_records], task["dimension"])


def _filter_staged_query(task, handles) -> list[SpatialObject]:
    """Decode + filter one query's plan over staged pages (worker side)."""
    groups: dict = {}
    plan = []
    for dataset_id, source in task["plan"]:
        group = groups.get(source)
        if group is None:
            group = _decode_worker_group(task, source, handles)
            groups[source] = group
        plan.append((dataset_id, group))
    return filter_groups(plan, task["q_lo"], task["q_hi"])[0]


def _filter_query_task(task):
    """Pool entry point: run one query's filter, then release the mappings.

    The decode/filter work runs in an inner call so every NumPy view over
    the shared buffers dies with that frame *before* the mappings are
    closed (closing an mmap or shared-memory segment with live exported
    buffers raises ``BufferError``).  The returned hits are plain Python
    objects with no ties to the mappings.

    When the task carries ``trace=True`` the return value becomes
    ``(hits, (start_wall, duration_s, pid))`` so the parent can graft the
    worker-side timing into its trace; the filter work is identical.
    """
    start_wall = time.time()
    start_perf = time.perf_counter()
    handles: dict = {}
    try:
        hits = _filter_staged_query(task, handles)
    finally:
        for handle in handles.values():
            try:
                handle.close()
            except (BufferError, OSError, ValueError):  # pragma: no cover
                pass
    if task.get("trace"):
        return hits, (start_wall, time.perf_counter() - start_perf, os.getpid())
    return hits


class ProcessExecutor(ParallelExecutor):
    """Runs one :class:`QueryBatch` across ``workers`` processes.

    Same contract as :class:`ParallelExecutor` — results (hit order
    included), reports, adaptive state and on-disk bytes are bit-identical
    to the serial batch executor — but the read-only phases run in worker
    *processes*, so page decode and filtering scale past the GIL.

    What crosses the process boundary, and how:

    * **overlap resolution** ships each prebuilt leaf snapshot's MBR
      corner matrices plus the group's extended windows; workers run the
      same ``intersect_matrix`` kernel and return leaf *indices*, which
      the parent maps back to live ``PartitionNode`` objects.
    * **page decode + filtering** ships raw page bytes.  On a plain
      filesystem backend workers ``mmap`` the page files read-only and
      decode ``np.frombuffer`` views straight over the mapping (zero
      copy, CRC trailers verified per access).  Any other backend —
      in-memory, fault-injecting, retrying — is staged instead: the
      parent reads every distinct group's pages once through the normal
      :meth:`Disk.read_run` path (so cache accounting and any retry
      layer's semantics are preserved and injected faults are absorbed
      *before* bytes reach workers) into one ``multiprocessing.shared_memory``
      block that workers attach to read-only.
    * the deterministic **writer phase** (CPU charges in submission
      order, then the statistics/refinement/merge replay) never leaves
      the parent; it is the identical code path every other engine runs
      under the gate.

    Like the thread executor, the simulated I/O trace is not reproduced
    bit-for-bit (mmap reads are not charged at all); that trace never
    feeds back into results or adaptive decisions.  If the pool dies
    (a worker killed mid-batch), the batch transparently re-runs on the
    thread executor — every pre-step is idempotent and no adaptive state
    has been touched yet.
    """

    _executor_name = "process"

    def run(self, batch: QueryBatch) -> BatchResult:
        """Execute the batch; equivalent to sequential execution in order."""
        if self._workers == 1 or len(batch) < 2:
            return BatchExecutor.run(self, batch)
        processor = self._processor
        queries = batch.queries
        catalog = processor.catalog
        for query in queries:
            for dataset_id in query.requested:
                catalog.get(dataset_id)  # validates every id before any work

        tracer = processor.tracer
        with maybe_span(
            tracer,
            "batch",
            queries=len(queries),
            executor=self._executor_name,
            workers=self._workers,
        ):
            with maybe_span(tracer, "batch.init_trees"):
                first_touch = self._initialize_trees(queries)
                extended = self._extended_windows(queries)
                self._prebuild_read_state(batch)
                decisions = self._route_decisions(batch)
                for decision in decisions.values():
                    if decision.merge_info is not None:
                        processor.merger.merge_file(decision.merge_info.combination)

            try:
                pool = _process_pool(self._workers)
                with maybe_span(tracer, "batch.overlap") as overlap_span:
                    needed0, versions0 = self._resolve_overlaps_process(
                        batch, extended, pool, tracer=tracer, parent=overlap_span
                    )
                with maybe_span(tracer, "batch.read_filter") as filter_span:
                    results, examined, read_counts = self._read_and_filter_process(
                        batch, needed0, decisions, pool,
                        tracer=tracer, parent=filter_span,
                    )
            except BrokenProcessPool:
                # A worker died (OOM kill, signal).  Nothing adaptive has
                # been touched and the setup above is idempotent, so fall
                # back to the thread executor for this batch and start a
                # fresh pool next time.
                _discard_pool(self._workers)
                return super().run(batch)

            with maybe_span(tracer, "batch.replay"):
                disk = catalog.datasets()[0].disk
                for query in queries:
                    disk.charge_cpu_records(examined[query.index])
                cache_deltas = [BufferCounters() for _ in queries]
                reports = self._replay_updates(
                    queries, first_touch, extended, needed0, versions0, results,
                    examined, cache_deltas,
                )
        return BatchResult(
            results=results,
            reports=reports,
            group_reads=read_counts[0],
            group_reads_deduped=read_counts[1],
        )

    def _resolve_overlaps_process(
        self,
        batch: QueryBatch,
        extended: dict[tuple[int, int], Box],
        pool: ProcessPoolExecutor,
        *,
        tracer=None,
        parent=None,
    ) -> tuple[dict[tuple[int, int], list[PartitionNode]], dict[int, int]]:
        """Overlap resolution in workers, one task per combination group."""
        trees = self._processor.live_trees
        dimension = self._processor.catalog.dimension
        versions0: dict[int, int] = {}
        snapshots: dict[int, object] = {}
        groups = batch.groups()
        for combination in groups:
            for dataset_id in combination:
                versions0[dataset_id] = trees[dataset_id].version
                if dataset_id not in snapshots:
                    snapshots[dataset_id] = trees[dataset_id].leaf_snapshot()
        futures = []
        for combination, group in groups.items():
            payload = []
            for dataset_id in sorted(combination):
                snapshot = snapshots[dataset_id]
                windows = [extended[(query.index, dataset_id)] for query in group]
                q_lo, q_hi = boxes_to_arrays(windows, dimension=dimension)
                payload.append(
                    (
                        dataset_id,
                        snapshot.lo,
                        snapshot.hi,
                        q_lo,
                        q_hi,
                        [query.index for query in group],
                    )
                )
            if tracer is None:
                futures.append(pool.submit(_resolve_overlap_group, payload))
            else:
                futures.append(pool.submit(_resolve_overlap_group, payload, True))
        needed0: dict[tuple[int, int], list[PartitionNode]] = {}
        for future in futures:  # merged in submission (group) order
            resolved = future.result()
            if tracer is not None:
                # Graft the worker-side timing shipped back as plain data.
                resolved, (start_wall, duration_s, pid) = resolved
                tracer.record_completed(
                    "batch.overlap.worker",
                    parent=parent,
                    start_wall=start_wall,
                    duration_s=duration_s,
                    pid=pid,
                )
            for (query_index, dataset_id), indices in resolved.items():
                leaves = snapshots[dataset_id].leaves
                needed0[(query_index, dataset_id)] = [leaves[j] for j in indices]
        return needed0, versions0

    def _read_and_filter_process(
        self,
        batch: QueryBatch,
        needed0: dict[tuple[int, int], list[PartitionNode]],
        decisions,
        pool: ProcessPoolExecutor,
        *,
        tracer=None,
        parent=None,
    ) -> tuple[list[list[SpatialObject]], list[int], tuple[int, int]]:
        """Stage every distinct group's pages once, filter per query in workers."""
        processor = self._processor
        catalog = processor.catalog
        disk = catalog.datasets()[0].disk
        page_size = disk.page_size
        dtype = catalog.datasets()[0].file.dtype

        plans = {
            query.index: self._query_plan(query, needed0, decisions)
            for query in batch.queries
        }
        group_reads = sum(len(plan) for plan in plans.values())

        # Stage distinct groups in first-use order (deterministic).  Reads
        # go through Disk.read_run, so charging, the buffer pool and any
        # retry/fault wrapper behave exactly as for in-process engines.
        sources: dict[tuple, tuple] = {}
        staged_chunks: list[bytes] = []
        staged_size = 0
        mmap_cache: dict[str, tuple[str, int] | None] = {}
        for query in batch.queries:
            for dataset_id, file, run in plans[query.index]:
                key = (file.name, run.extents, run.n_records)
                if key in sources:
                    continue
                if file.name not in mmap_cache:
                    mmap_cache[file.name] = disk.mmap_descriptor(file.name)
                descriptor = mmap_cache[file.name]
                if descriptor is not None:
                    path, _ = descriptor
                    offsets = tuple(
                        page_no * page_size for page_no in run.page_numbers()
                    )
                    sources[key] = ("mmap", path, offsets, run.n_records)
                else:
                    offsets = []
                    for extent in run.extents:
                        for page in disk.read_run(file.name, extent.start, extent.count):
                            offsets.append(staged_size)
                            staged_chunks.append(page)
                            staged_size += page_size
                    sources[key] = ("shm", tuple(offsets), run.n_records)
        dedup_hits = group_reads - len(sources)

        block = None
        if staged_size:
            block = shared_memory.SharedMemory(create=True, size=staged_size)
            position = 0
            for chunk in staged_chunks:
                block.buf[position : position + len(chunk)] = chunk
                position += page_size
        del staged_chunks

        results: list[list[SpatialObject]] = [[] for _ in batch.queries]
        try:
            futures = []
            for query in batch.queries:
                task = {
                    "q_lo": query.box.lo,
                    "q_hi": query.box.hi,
                    "dtype": dtype,
                    "dimension": catalog.dimension,
                    "page_size": page_size,
                    "shm_name": None if block is None else block.name,
                    "trace": tracer is not None,
                    "plan": [
                        (
                            dataset_id,
                            sources[(file.name, run.extents, run.n_records)],
                        )
                        for dataset_id, file, run in plans[query.index]
                    ],
                }
                futures.append(pool.submit(_filter_query_task, task))
            for query, future in zip(batch.queries, futures):
                hits = future.result()
                if tracer is not None:
                    # Graft the worker-side timing shipped back as data.
                    hits, (start_wall, duration_s, pid) = hits
                    tracer.record_completed(
                        "query.filter",
                        parent=parent,
                        start_wall=start_wall,
                        duration_s=duration_s,
                        query=query.index,
                        hits=len(hits),
                        pid=pid,
                    )
                results[query.index] = hits
        finally:
            if block is not None:
                block.close()
                block.unlink()
        examined = [0 for _ in batch.queries]
        for query in batch.queries:
            examined[query.index] = sum(
                run.n_records for _, _, run in plans[query.index]
            )
        return results, examined, (group_reads, dedup_hits)
