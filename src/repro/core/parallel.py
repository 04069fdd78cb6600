"""The thread-safe read set of batches whose reads run on threads.

:class:`~repro.core.batch.BatchExecutor` with ``workers=K > 1`` runs
each query's reads on a thread pool (see :mod:`repro.core.batch`); its
tasks share one :class:`ParallelReadSet`, so a stored group that several
queries need is still fetched and decoded once per batch.
"""

from __future__ import annotations

import threading
from typing import Callable

from repro.core.batch import BatchReadSet
from repro.data.columnar import DecodedGroup
from repro.data.spatial_object import SpatialObject
from repro.storage.pagedfile import PagedFile, StoredRun


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

    def __init__(
        self, dimension: int, lookup: Callable[[str, int], bytes | None] | None = None
    ) -> None:
        super().__init__(dimension, lookup)
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
