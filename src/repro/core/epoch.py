"""Epoch-versioned snapshot reads: MVCC for the adaptive engine.

The engine mutates partition trees, the merge directory and statistics on
every query, which is why top-level operations serialize on the
QueryProcessor's gate lock.  This module decouples *readers* from that
lock: every completed adaptation publishes an immutable
:class:`EngineEpoch` — a copy-on-write capture of the partition trees'
leaf state and the merge-file map — once the engine's first snapshot
read has built the :class:`EpochManager`; before it nothing publishes or
retains a page.  A snapshot batch
(:class:`~repro.core.batch.BatchExecutor` with ``snapshot=True``) pins
the current epoch by refcount, runs overlap resolution, page decode and
filtering entirely against the pinned capture, and only takes the gate
for its commit (the in-order replay of statistics, refinement and
merging every batch runs).

Three mechanisms make a pinned epoch readable while adaptation runs:

**Copy-on-write capture.**  :meth:`EpochManager.publish` (always called
under the gate) captures a frozen copy of each tree's leaf table, runs
included (:meth:`~repro.core.partition.PartitionTree.epoch_snapshot`:
a split retires a live row in place), and a frozen copy of the merge
directory, reusing the previous epoch's captures for any tree or
directory whose version counter is unchanged — at convergence,
publishing is a dictionary copy, not a rebuild.  A changed tree costs a
copy of its table's columns, and a changed directory hands out the
copies it took of the infos as they were registered, so a publish
copies only what changed.

**Retained pre-images (undo pages).**  The paper's in-place refinement
overwrites partition pages, which would tear a pinned reader's view
(merge files are append-only and never deleted).  The manager registers
as a *snapshot sink* on the :class:`~repro.storage.disk.Disk`: under the
disk lock, the pre-image bytes of every destructively written page are retained into the
**latest published** epoch (first pre-image wins, so an epoch's overlay
holds each page's value as of its publish).  A reader pinned at epoch
``e`` resolves a page by walking the chain ``e → e.next → ...`` and
taking the first retained pre-image, falling back to the live page —
:meth:`EngineEpoch.lookup_page`, consulted by
:meth:`Disk.read_runs` under the same lock that serializes retention.
Publish links ``prev.next`` *before* switching the retention target, so
a pre-image can never land in an epoch a pinned reader cannot reach.

**Refcounted release.**  Pins and unpins go through the manager's lock;
the chain is pruned from its head whenever the oldest epochs are
unpinned and superseded, so retained pages and captures are freed as
soon as no reader can need them (and a pinned epoch is never freed).
:meth:`EpochManager.gauges` is the one reading of the chain.

Correctness story: query answers are exact functions of the data and the
query window — refinement state only changes *how* data is read — so a
reader pinned to a slightly older epoch returns bit-identical hits.  The
commits of concurrent batches still serialize on the gate in arrival
order, so the adaptive state evolves exactly as sequential execution.
In isolation a snapshot batch is bit-identical to a live one, reports and
``objects_examined`` included; the epoch row of the engine oracle
(``tests/test_engine_fuzz.py``) enforces this.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING

from repro.core.partition import TreeEpochSnapshot
from repro.data.spatial_object import spatial_object_codec
from repro.storage.pagedfile import PagedFile

if TYPE_CHECKING:  # pragma: no cover - import cycle avoidance
    from repro.core.merge import MergeDirectory
    from repro.core.partition import PartitionTree
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
        :meth:`Disk.read_runs`), which also serializes all retention.
        """
        key = (name, page_no)
        epoch: EngineEpoch | None = self
        while epoch is not None:
            data = epoch.retained.get(key)
            if data is not None:
                return data
            epoch = epoch.next
        return None


class EpochManager:
    """Publishes, pins and garbage-collects :class:`EngineEpoch` chains.

    Built by the engine's first snapshot read; registered as a snapshot
    sink on the disk at construction, so every later destructive page
    write feeds :meth:`retain`.  ``publish`` must only be called under the
    processor's gate (it is the writer phase's last step);
    ``pin``/``unpin`` are safe from any thread.
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
        in-place overwrite.  The pre-image goes into the
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
            if previous is not None and previous.snapshot.version == tree.version:
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
