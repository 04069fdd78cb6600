"""The thread-safe read set of batches whose reads run on threads.

:class:`~repro.core.batch.BatchExecutor` with ``workers=K > 1`` runs
each query's reads on a thread pool (see :mod:`repro.core.batch`); its
tasks share one :class:`ParallelReadSet`, so a stored group that several
queries need is still fetched and decoded once per batch.
"""

from __future__ import annotations

import threading
from typing import Callable, Sequence

import numpy as np

from repro.core.batch import BatchReadSet
from repro.data.spatial_object import SpatialObject
from repro.storage.pagedfile import PagedFile, StoredRun, read_groups


class ParallelReadSet(BatchReadSet):
    """A :class:`BatchReadSet` safe for concurrent readers.

    The dedup dictionary is guarded by one lock; each group is read under
    a *per-group* lock, through the same storage reader as one-group
    calls, so two queries racing for the same stored group never decode
    it twice (the loser blocks briefly, then counts a dedup hit), while
    queries needing different groups read in parallel.  Counter semantics
    match the serial read set exactly: ``group_reads`` is the number of
    plan entries read and ``dedup_hits`` is that count minus the number of
    distinct groups, regardless of interleaving.
    """

    def __init__(self, lookup: Callable[[str, int], bytes | None] | None = None) -> None:
        super().__init__(lookup)
        self._registry_lock = threading.Lock()
        self._group_locks: dict[tuple, threading.Lock] = {}

    def read(self, plan: Sequence[tuple[int, PagedFile, StoredRun]]) -> list[np.ndarray]:
        """The records of each entry of one plan, each group decoded exactly once."""
        return [self._read_one(file, run) for _, file, run in plan]

    def _read_one(self, file: PagedFile[SpatialObject], run: StoredRun) -> np.ndarray:
        key = (file.name, run.extents, run.n_records)
        with self._registry_lock:
            self.group_reads += 1
            records = self._groups.get(key)
            if records is not None:
                self.dedup_hits += 1
                return records
            lock = self._group_locks.setdefault(key, threading.Lock())
        with lock:
            records = self._groups.get(key)
            if records is None:
                (records,) = read_groups(((file, run),), self._lookup)
                with self._registry_lock:
                    self._groups[key] = records
            else:
                with self._registry_lock:
                    self.dedup_hits += 1
        return records
