"""Epoch-versioned snapshot reads: MVCC for the adaptive engine.

The engine mutates partition trees, the merge directory and statistics on
every query, which is why top-level operations serialize on the
QueryProcessor's gate lock.  This module decouples *readers* from that
lock: every completed adaptation publishes an immutable
:class:`EngineEpoch` — a copy-on-write capture of the partition trees'
leaf state and the merge-file map — and a snapshot reader pins the
current epoch by refcount, runs overlap resolution, page decode and
filtering entirely against the pinned capture, and only re-enters the
gate for the short writer phase (the in-order replay of statistics,
refinement and merging that :mod:`repro.core.parallel` already runs
single-threaded).

Three mechanisms make a pinned epoch readable while adaptation runs:

**Copy-on-write capture.**  :meth:`EpochManager.publish` (always called
under the gate) snapshots each tree's leaf runs
(:meth:`~repro.core.partition.PartitionTree.epoch_snapshot`) and a frozen
copy of the merge directory, reusing the previous epoch's captures for
any tree or directory whose version counter is unchanged — at
convergence, publishing is a dictionary copy, not a rebuild.  A changed
tree's capture comes from summaries the tree splices as it refines, and
a changed directory hands out the copies it took of the infos as they
were registered, so a publish costs what changed, not what exists.

**Retained pre-images (undo pages).**  The paper's in-place refinement
overwrites partition pages, and merge eviction deletes files; both would
tear a pinned reader's view.  The manager registers as a *snapshot sink*
on the :class:`~repro.storage.disk.Disk`: under the disk lock, the
pre-image bytes of every destructively written page are retained into the
**latest published** epoch (first pre-image wins, so an epoch's overlay
holds each page's value as of its publish).  A reader pinned at epoch
``e`` resolves a page by walking the chain ``e → e.next → ...`` and
taking the first retained pre-image, falling back to the live page —
:meth:`EngineEpoch.lookup_page`, consulted by
:meth:`Disk.read_run_at` under the same lock that serializes retention.
Publish links ``prev.next`` *before* switching the retention target, so
a pre-image can never land in an epoch a pinned reader cannot reach.

**Refcounted release.**  Pins and unpins go through the manager's lock;
the chain is pruned from its head whenever the oldest epochs are
unpinned and superseded, so retained pages and captures are freed as
soon as no reader can need them (and a pinned epoch is never freed).

Correctness story: query answers are exact functions of the data and the
query window — refinement state only changes *how* data is read — so a
reader pinned to a slightly older epoch returns bit-identical hits.  The
writer phases of concurrent batches still serialize on the gate in
arrival order, so the adaptive state evolves exactly as sequential
execution.  In isolation, :class:`EpochExecutor` is bit-identical to the
serial batch executor, reports and ``objects_examined`` included; the
five-engine fuzz oracle (``tests/test_engine_fuzz.py``) enforces this.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.batch import BatchResult, QueryBatch
from repro.core.parallel import ParallelExecutor, ParallelReadSet
from repro.core.partition import PartitionNode, TreeEpochSnapshot
from repro.data.columnar import DecodedGroup
from repro.data.spatial_object import SpatialObject, spatial_object_codec
from repro.geometry.box import Box
from repro.obs.trace import maybe_span
from repro.storage.buffer import BufferCounters
from repro.storage.pagedfile import PagedFile, StoredRun

if TYPE_CHECKING:  # pragma: no cover - import cycle avoidance
    from repro.core.merge import MergeDirectory
    from repro.core.partition import PartitionTree
    from repro.core.query_processor import QueryProcessor
    from repro.storage.disk import Disk


class EngineEpoch:
    """One immutable published state of the engine.

    ``trees`` maps dataset id to its
    :class:`~repro.core.partition.TreeEpochSnapshot`; ``directory`` is a
    frozen merge-directory copy and ``merge_files`` this epoch's own
    :class:`~repro.storage.pagedfile.PagedFile` handles for it (the live
    merger's handle cache is mutable and must not be shared with
    lock-free readers).  ``retained`` is the undo-page overlay:
    pre-images of pages destroyed *while this epoch was the latest*,
    keyed ``(file_name, page_no)`` — mutated only under the disk lock.
    ``refcount``/``next`` are managed by the :class:`EpochManager` under
    its lock.
    """

    __slots__ = (
        "epoch_id",
        "trees",
        "directory",
        "directory_version",
        "merge_files",
        "retained",
        "refcount",
        "next",
    )

    def __init__(
        self,
        epoch_id: int,
        trees: dict[int, TreeEpochSnapshot],
        directory: "MergeDirectory",
        directory_version: int,
        merge_files: dict[frozenset[int], PagedFile],
    ) -> None:
        self.epoch_id = epoch_id
        self.trees = trees
        self.directory = directory
        self.directory_version = directory_version
        self.merge_files = merge_files
        self.retained: dict[tuple[str, int], bytes] = {}
        self.refcount = 0
        self.next: EngineEpoch | None = None

    def lookup_page(self, name: str, page_no: int) -> bytes | None:
        """The page's bytes as of this epoch, or ``None`` for "read live".

        Walks the epoch chain forward: the first epoch that retained a
        pre-image of the page destroyed it *after* this epoch was
        published, so that pre-image is exactly the page's value at pin
        time.  No retention anywhere on the chain means the live page is
        still the snapshot's page.  Called under the disk lock (from
        :meth:`Disk.read_run_at`), which also serializes all retention.
        """
        key = (name, page_no)
        epoch: EngineEpoch | None = self
        while epoch is not None:
            data = epoch.retained.get(key)
            if data is not None:
                return data
            epoch = epoch.next
        return None

    def retained_pages(self) -> int:
        """Number of pre-image pages this epoch currently retains."""
        return len(self.retained)


class EpochManager:
    """Publishes, pins and garbage-collects :class:`EngineEpoch` chains.

    Registered as a snapshot sink on the disk at construction, so every
    destructive page write feeds :meth:`retain`.  ``publish`` must only
    be called under the processor's gate (it is the writer phase's last
    step); ``pin``/``unpin`` are safe from any thread.
    """

    def __init__(self, disk: "Disk", dimension: int) -> None:
        self._disk = disk
        self._codec = spatial_object_codec(dimension)
        self._lock = threading.Lock()
        self._next_id = 0
        self._head: EngineEpoch | None = None
        self._current: EngineEpoch | None = None
        disk.add_snapshot_sink(self)

    # -- snapshot sink ------------------------------------------------------ #

    def retain(self, name: str, page_no: int, data: bytes) -> None:
        """Keep a destroyed page's pre-image for pinned readers.

        Called by the disk, under the disk lock, immediately before an
        in-place overwrite or file delete.  The pre-image goes into the
        latest *published* epoch; ``setdefault`` keeps the first
        pre-image per epoch — later overwrites of the same page destroy
        bytes no published epoch ever exposed.
        """
        current = self._current
        if current is not None:
            current.retained.setdefault((name, page_no), data)

    # -- pinning ------------------------------------------------------------ #

    def pin(self) -> EngineEpoch:
        """Pin and return the current epoch (must be balanced by unpin)."""
        with self._lock:
            epoch = self._current
            if epoch is None:
                raise RuntimeError("no epoch has been published yet")
            epoch.refcount += 1
            return epoch

    def unpin(self, epoch: EngineEpoch) -> None:
        """Release one pin; prunes any fully released superseded epochs."""
        with self._lock:
            if epoch.refcount <= 0:
                raise RuntimeError("unpin without a matching pin")
            epoch.refcount -= 1
            self._prune_locked()

    def _prune_locked(self) -> None:
        # Readers only walk the chain forward, so dropping unpinned
        # epochs from the head can never cut a pinned reader's path.
        while (
            self._head is not None
            and self._head is not self._current
            and self._head.refcount == 0
        ):
            self._head = self._head.next

    # -- publishing --------------------------------------------------------- #

    def publish(
        self,
        trees: dict[int, "PartitionTree"],
        directory: "MergeDirectory",
    ) -> EngineEpoch:
        """Capture the live state into a new epoch and make it current.

        Caller must hold the processor gate (publishes are the writer
        phase's last step, so captures are serialized and see quiescent
        state).  Copy-on-write: per-tree captures and the frozen
        directory are reused from the previous epoch when the respective
        version counters are unchanged.
        """
        prev = self._current
        epoch_trees: dict[int, TreeEpochSnapshot] = {}
        for dataset_id, tree in trees.items():
            previous = prev.trees.get(dataset_id) if prev is not None else None
            if previous is not None and previous.version == tree.version:
                epoch_trees[dataset_id] = previous
            else:
                epoch_trees[dataset_id] = tree.epoch_snapshot()
        if prev is not None and prev.directory_version == directory.version:
            frozen = prev.directory
            merge_files = prev.merge_files
        else:
            frozen = directory.freeze()
            merge_files = {
                info.combination: PagedFile(self._disk, info.file_name, self._codec)
                for info in frozen.all_files()
            }
        epoch = EngineEpoch(
            epoch_id=self._next_id,
            trees=epoch_trees,
            directory=frozen,
            directory_version=directory.version,
            merge_files=merge_files,
        )
        self._next_id += 1
        if prev is not None:
            # Link BEFORE switching the retention target: once the new
            # epoch is current, pre-images land in it — and every older
            # pinned epoch must already be able to walk to them.
            prev.next = epoch
        with self._lock:
            self._current = epoch
            if self._head is None:
                self._head = epoch
            self._prune_locked()
        return epoch

    # -- introspection ------------------------------------------------------ #

    @property
    def current(self) -> EngineEpoch | None:
        """The latest published epoch."""
        return self._current

    def chain_length(self) -> int:
        """Number of epochs currently kept alive (head to current)."""
        with self._lock:
            count = 0
            epoch = self._head
            while epoch is not None:
                count += 1
                epoch = epoch.next
            return count

    def pinned_total(self) -> int:
        """Sum of refcounts over all live epochs."""
        with self._lock:
            total = 0
            epoch = self._head
            while epoch is not None:
                total += epoch.refcount
                epoch = epoch.next
            return total

    def retained_total(self) -> int:
        """Total retained pre-image pages over all live epochs."""
        with self._lock:
            total = 0
            epoch = self._head
            while epoch is not None:
                total += len(epoch.retained)
                epoch = epoch.next
            return total

    def retained_bytes_total(self) -> int:
        """Total bytes of retained pre-images over all live epochs."""
        with self._lock:
            total = 0
            epoch = self._head
            while epoch is not None:
                total += sum(len(data) for data in epoch.retained.values())
                epoch = epoch.next
            return total

    def gauges(self) -> dict[str, int]:
        """Retention gauges in one consistent reading (one lock hold).

        Keys: ``live_epochs`` (chain length head→current),
        ``pinned_readers`` (sum of refcounts), ``retained_pages`` and
        ``retained_bytes`` (pre-image overlay size).  This is the
        production-observable form of the leak-freedom the epoch stress
        tests assert: at quiescence everything but ``live_epochs == 1``
        should read zero.
        """
        with self._lock:
            live = pinned = pages = size = 0
            epoch = self._head
            while epoch is not None:
                live += 1
                pinned += epoch.refcount
                pages += len(epoch.retained)
                size += sum(len(data) for data in epoch.retained.values())
                epoch = epoch.next
            return {
                "live_epochs": live,
                "pinned_readers": pinned,
                "retained_pages": pages,
                "retained_bytes": size,
            }


class EpochReadSet(ParallelReadSet):
    """A read set whose group fetches resolve against a pinned epoch.

    Identical dedup and counter semantics to the parallel read set; only
    the load goes through
    :meth:`~repro.storage.pagedfile.PagedFile.read_group_array_at` with
    the epoch's pre-image overlay, so pages overwritten or deleted since
    the pin are served from retained bytes.  When the overlay has
    nothing for a run the read — charging, buffer pool and decoded-array
    cache included — is identical to the live path.
    """

    def __init__(self, dimension: int, epoch: EngineEpoch) -> None:
        super().__init__(dimension)
        self._epoch = epoch

    def _load(self, file: PagedFile[SpatialObject], run: StoredRun) -> DecodedGroup:
        return DecodedGroup.from_records(
            file.read_group_array_at(run, self._epoch.lookup_page), self._dimension
        )


@dataclass
class PreparedBatch:
    """Everything the lock-free read phase of one snapshot batch produced.

    Produced by :meth:`EpochExecutor.prepare`; consumed exactly once by
    :meth:`EpochExecutor.commit` (or
    :meth:`QueryProcessor.commit_batch`).  The epoch itself is already
    unpinned — all reads are materialized into ``results``.
    """

    executor: "EpochExecutor"
    batch: QueryBatch
    epoch_id: int
    first_touch: dict[int, int] = field(default_factory=dict)
    extended: dict[tuple[int, int], Box] = field(default_factory=dict)
    needed0: dict[tuple[int, int], list[PartitionNode]] = field(default_factory=dict)
    versions0: dict[int, int] = field(default_factory=dict)
    results: list[list[SpatialObject]] = field(default_factory=list)
    examined: list[int] = field(default_factory=list)
    cache_deltas: list[BufferCounters] = field(default_factory=list)
    group_reads: int = 0
    dedup_hits: int = 0


class EpochExecutor(ParallelExecutor):
    """Snapshot-read batch execution: lock-free reads, gated writer phase.

    Subclasses the parallel executor and redirects its read-state hooks
    (leaf runs, partition/merge files, routing directory, window
    extension) at a pinned :class:`EngineEpoch`, so planning, read-set
    dedup, vectorized filtering and the ordered replay are all reused
    unchanged.  ``workers=None`` runs the read phase serially (the batch
    still overlaps with other batches' writer phases); ``workers=K > 1``
    additionally fans this batch's reads across ``K`` threads.

    In isolation — no concurrent writers between pin and commit — the
    pinned epoch equals the start-of-batch live state, every overlay
    lookup misses, and execution is bit-identical to
    :class:`~repro.core.batch.BatchExecutor` (reports and
    ``objects_examined`` included).
    """

    _executor_name = "epoch"

    def __init__(self, processor: "QueryProcessor", workers: int | None = None) -> None:
        # None means "serial reads" here (matching query_batch), not
        # default_workers(): snapshot batches overlap each other, so the
        # intra-batch fan-out is opt-in.
        super().__init__(processor, workers=1 if workers is None else workers)
        self._epoch: EngineEpoch | None = None

    # -- read-state hooks: everything resolves against the pinned epoch ---- #

    def _leaf_run(self, dataset_id: int, leaf: PartitionNode) -> StoredRun | None:
        return self._epoch.trees[dataset_id].run_of(leaf)

    def _tree_file(self, dataset_id: int) -> PagedFile[SpatialObject]:
        return self._epoch.trees[dataset_id].file

    def _merge_file(self, info) -> PagedFile[SpatialObject]:
        return self._epoch.merge_files[info.combination]

    def _route_directory(self):
        return self._epoch.directory

    def _extended_windows(self, queries) -> dict[tuple[int, int], Box]:
        trees = self._epoch.trees
        extended: dict[tuple[int, int], Box] = {}
        for query in queries:
            for dataset_id in query.requested:
                snapshot = trees[dataset_id]
                extended[(query.index, dataset_id)] = query.box.expand(
                    snapshot.max_extent
                ).clamp(snapshot.universe)
        return extended

    # -- the two phases ----------------------------------------------------- #

    def run(self, batch: QueryBatch) -> BatchResult:
        """Execute the batch: lock-free read phase, then gated writer phase."""
        with maybe_span(
            self._processor.tracer,
            "batch",
            queries=len(batch),
            executor=self._executor_name,
            workers=self._workers,
        ):
            return self.commit(self.prepare(batch))

    def prepare(self, batch: QueryBatch) -> PreparedBatch:
        """The lock-free read phase: pin, resolve, read, filter, unpin.

        The gate is taken only if a requested dataset has no partition
        tree yet (initialisation writes the partition file); after the
        init is published, the fresh epoch is pinned and the read phase
        proceeds lock-free.
        """
        processor = self._processor
        queries = batch.queries
        if not queries:
            return PreparedBatch(executor=self, batch=batch, epoch_id=-1)
        catalog = processor.catalog
        manager = processor.epochs
        tracer = processor.tracer
        with maybe_span(tracer, "epoch.prepare", queries=len(queries)) as prep:
            epoch = manager.pin()
            first_touch: dict[int, int] = {}
            involved = {d for query in queries for d in query.requested}
            if any(dataset_id not in epoch.trees for dataset_id in involved):
                manager.unpin(epoch)
                with processor.gate:
                    with maybe_span(tracer, "batch.init_trees"):
                        first_touch = self._initialize_trees(queries)
                    processor.publish_epoch()
                epoch = manager.pin()
            if prep is not None:
                prep.attributes["epoch"] = epoch.epoch_id
            self._epoch = epoch
            try:
                with maybe_span(tracer, "batch.overlap"):
                    extended = self._extended_windows(queries)
                    needed0, versions0 = self._resolve_overlaps_epoch(batch, extended)
                decisions = self._route_decisions(batch)
                read_set = EpochReadSet(catalog.dimension, epoch)
                with maybe_span(tracer, "batch.read_filter") as phase:
                    if self._workers == 1 or len(batch) < 2:
                        results, examined, cache_deltas = self._read_and_filter_pinned(
                            batch, needed0, decisions, read_set
                        )
                    else:
                        with ThreadPoolExecutor(
                            max_workers=self._workers, thread_name_prefix="repro-epoch"
                        ) as executor:
                            results, examined, cache_deltas = (
                                self._read_and_filter_parallel(
                                    batch,
                                    needed0,
                                    decisions,
                                    read_set,
                                    executor,
                                    tracer=tracer,
                                    parent=phase,
                                )
                            )
                return PreparedBatch(
                    executor=self,
                    batch=batch,
                    epoch_id=epoch.epoch_id,
                    first_touch=first_touch,
                    extended=extended,
                    needed0=needed0,
                    versions0=versions0,
                    results=results,
                    examined=examined,
                    cache_deltas=cache_deltas,
                    group_reads=read_set.group_reads,
                    dedup_hits=read_set.dedup_hits,
                )
            finally:
                self._epoch = None
                manager.unpin(epoch)

    def commit(self, prepared: PreparedBatch) -> BatchResult:
        """The writer phase: CPU charges and the ordered adaptive replay.

        Runs under the gate, so concurrent batches' writer phases apply
        in gate-acquisition (arrival) order — the adaptive state evolves
        exactly as sequential execution — and publishes the next epoch
        on the way out.
        """
        processor = self._processor
        batch = prepared.batch
        queries = batch.queries
        if not queries:
            return BatchResult(results=[], reports=[])
        disk = processor.catalog.datasets()[0].disk
        with maybe_span(
            processor.tracer,
            "epoch.commit",
            queries=len(queries),
            epoch=prepared.epoch_id,
        ):
            with processor.gate:
                for query in queries:
                    disk.charge_cpu_records(prepared.examined[query.index])
                reports = self._replay_updates(
                    queries,
                    prepared.first_touch,
                    prepared.extended,
                    prepared.needed0,
                    prepared.versions0,
                    prepared.results,
                    prepared.examined,
                    prepared.cache_deltas,
                )
                processor.publish_epoch()
                processor.commit_durable((q.box, q.requested) for q in queries)
        return BatchResult(
            results=prepared.results,
            reports=reports,
            group_reads=prepared.group_reads,
            group_reads_deduped=prepared.dedup_hits,
        )

    # -- epoch-local phase implementations ---------------------------------- #

    def _resolve_overlaps_epoch(
        self, batch: QueryBatch, extended: dict[tuple[int, int], Box]
    ) -> tuple[dict[tuple[int, int], list[PartitionNode]], dict[int, int]]:
        """Overlap resolution against the pinned epoch's frozen MBR arrays.

        Same kernel, same order as the live resolution — but through
        :meth:`TreeEpochSnapshot.overlapping_batch`, which never touches
        the live tree's mutable snapshot cache.
        """
        trees = self._epoch.trees
        needed0: dict[tuple[int, int], list[PartitionNode]] = {}
        versions0: dict[int, int] = {}
        for combination, group in batch.groups().items():
            for dataset_id in sorted(combination):
                snapshot = trees[dataset_id]
                versions0[dataset_id] = snapshot.version
                windows = [extended[(query.index, dataset_id)] for query in group]
                per_query = snapshot.overlapping_batch(windows)
                for query, leaves in zip(group, per_query):
                    needed0[(query.index, dataset_id)] = leaves
        return needed0, versions0

    def _read_and_filter_pinned(
        self,
        batch: QueryBatch,
        needed0: dict[tuple[int, int], list[PartitionNode]],
        decisions,
        read_set: EpochReadSet,
    ) -> tuple[list[list[SpatialObject]], list[int], list[BufferCounters]]:
        """Serial read phase without CPU charging (deferred to commit).

        CPU charges belong to the writer phase so they apply in arrival
        order — the same position (and therefore the identical float
        sum) the parallel executor gives them.
        """
        pool = self._processor.catalog.datasets()[0].disk.buffer_pool
        results: list[list[SpatialObject]] = [[] for _ in batch.queries]
        examined: list[int] = [0 for _ in batch.queries]
        cache_deltas: list[BufferCounters] = [BufferCounters() for _ in batch.queries]
        for query in batch.queries:
            cache_start = pool.counters()
            hits, count = self._filter_one_query(query, needed0, decisions, read_set)
            results[query.index] = hits
            examined[query.index] = count
            cache_deltas[query.index] = pool.counters().delta_since(cache_start)
        return results, examined, cache_deltas
