"""The per-group read path, kept as the model of the fused one.

``src/`` reads a query's whole plan in one storage call: one
:meth:`~repro.storage.disk.Disk.read_runs` page loop over every extent of
every group, each run's pages decoded through the buffer pool's
decoded-array layer before the next run is read
(:func:`~repro.storage.pagedfile.read_groups`), entered once per query by
:meth:`~repro.core.batch.BatchReadSet.read`.  This module keeps the path
it replaced (ROADMAP ground rule iv), one call per group and one lock
acquisition per extent:

* :func:`read_pages` — the former ``Disk._read_pages`` loop over one run;
* :func:`get_decoded` and :func:`put_decoded` — the former per-page
  ``BufferPool`` methods of the decoded-array layer, which
  ``BufferPool.decode_run`` and ``BufferPool.get_run`` replaced;
* :func:`read_array` — the former ``PagedFile._read_array``: per extent,
  one :func:`read_pages` and then its pages through the decoded-array
  layer; then the record-count check;
* :class:`ReferenceReadSet` — the former ``BatchReadSet.read(file, run)``,
  entered once per planned group.

They reach into the disk's private state (lock, pool, statistics, head)
exactly as the methods they were did.  ``tests/test_read_differential.py``
holds the fused path to them: equal records, ``IOStats``, buffer
counters, pool LRU order and head.  Nothing here is reachable from
``src/``.
"""

from __future__ import annotations

import numpy as np

from repro.storage.backend import StorageError
from repro.storage.codec import decode_page_array
from repro.storage.disk import Disk
from repro.storage.errors import CorruptPageError
from repro.storage.pagedfile import PagedFile, StoredRun


def read_pages(
    disk: Disk, name: str, start: int, count: int, lookup=None, event: str | None = None
) -> list[bytes]:
    """One run under the disk lock: overlay, pool, then backend per page.

    The uncached pages are charged together after the loop, as one
    positioning operation at the first of them plus sequential transfers,
    and the head moves to the run's last page.  A failed backend read
    leaves no pool entry for that page and charges nothing.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    with disk._lock:
        pages: list[bytes] = []
        uncached = 0
        first_uncached: int | None = None
        for page_no in range(start, start + count):
            if lookup is not None:
                retained = lookup(name, page_no)
                if retained is not None:
                    pages.append(retained)
                    continue
            cached = disk._buffer.get(name, page_no)
            if cached is not None:
                disk._stats.record_cache_hit()
                pages.append(cached)
                continue
            try:
                data = disk._backend.read(name, page_no)
            except StorageError:
                disk._buffer.invalidate_page(name, page_no)
                raise
            if first_uncached is None:
                first_uncached = page_no
            uncached += 1
            pages.append(data)
            disk._buffer.put(name, page_no, data)
        if uncached:
            disk._charge_read(disk._classify(name, first_uncached), uncached)
            disk._advance_head(name, start + count - 1)
        if event is not None and disk._tracer is not None:
            disk._tracer.event(event, file=name, pages=count, uncached=uncached)
        return pages


def get_decoded(pool, name: str, page_no: int, page_bytes: bytes):
    """The former ``BufferPool.get_decoded``: the cached decoding of exactly ``page_bytes``.

    A hit only when the entry was decoded from that same bytes object
    (identity); ``None`` and a counted miss otherwise.
    """
    entry = pool._decoded.get((name, page_no))
    if entry is None or entry[0] is not page_bytes:
        pool._decoded_misses += 1
        return None
    pool._decoded_hits += 1
    return entry[1]


def put_decoded(pool, name: str, page_no: int, page_bytes: bytes, value) -> None:
    """The former ``BufferPool.put_decoded``: attach a decoding to its byte-cached page.

    Ignored unless the resident byte page *is* ``page_bytes``.
    """
    key = (name, page_no)
    if pool._pages.get(key) is page_bytes:
        pool._decoded[key] = (page_bytes, value)


def read_array(file: PagedFile, run: StoredRun, lookup=None) -> np.ndarray:
    """One group: per extent, one :func:`read_pages`, then its pages decoded."""
    disk, name, dtype = file.disk, file.name, file.dtype
    pool = disk.buffer_pool
    parts: list[np.ndarray] = []
    for extent in run.extents:
        event = "disk.read_run" if lookup is None else "disk.read_run_at"
        pages = read_pages(disk, name, extent.start, extent.count, lookup, event)
        for page_no, page_bytes in enumerate(pages, extent.start):
            decoded = get_decoded(pool, name, page_no, page_bytes)
            if decoded is None:
                decoded = decode_page_array(dtype, page_bytes)
                put_decoded(pool, name, page_no, page_bytes, decoded)
            if len(decoded):
                parts.append(decoded)
    if not parts:
        records = np.empty(0, dtype=dtype)
    elif len(parts) == 1:
        records = parts[0]
    else:
        records = np.concatenate(parts)
    records.setflags(write=False)
    if len(records) < run.n_records:
        raise CorruptPageError(
            f"group in {name!r} is corrupt: expected {run.n_records} "
            f"records, decoded {len(records)}"
        )
    return records[: run.n_records]


class ReferenceReadSet:
    """A batch's shared read set, entered once per planned group."""

    def __init__(self, lookup=None) -> None:
        self._lookup = lookup
        self._groups: dict[tuple, np.ndarray] = {}
        self.group_reads = 0
        self.dedup_hits = 0

    def read(self, file: PagedFile, run: StoredRun) -> np.ndarray:
        """The records of one stored group (read once per batch)."""
        self.group_reads += 1
        key = (file.name, run.extents, run.n_records)
        records = self._groups.get(key)
        if records is not None:
            self.dedup_hits += 1
            return records
        records = read_array(file, run, self._lookup)
        self._groups[key] = records
        return records

    def read_plan(self, plan) -> list[np.ndarray]:
        """One query's ``(dataset, file, run)`` plan, group by group."""
        return [self.read(file, run) for _, file, run in plan]
