"""The simulated disk facade.

Every index structure in the library performs its page I/O through a
:class:`Disk`.  The disk combines three responsibilities:

* delegate the actual bytes to a :class:`~repro.storage.backend.StorageBackend`;
* classify every access as sequential or random by tracking the head
  position (last file and page touched) and charge the
  :class:`~repro.storage.cost_model.DiskModel` accordingly, accumulating the
  result in :class:`~repro.storage.cost_model.IOStats`;
* serve reads from an LRU :class:`~repro.storage.buffer.BufferPool` with a
  bounded page budget — cached reads are free, mirroring OS page caching,
  and :meth:`Disk.clear_cache` mirrors the paper's explicit cache dropping
  before every query.

Reads served by the cache do **not** move the simulated head, exactly as a
cached read would not move a real disk arm.

Thread safety
-------------
Every page access and every cost charge runs under one internal lock, so
concurrent readers (the threaded read phases of
:mod:`repro.core.batch`) can never corrupt the head position, the
:class:`~repro.storage.cost_model.IOStats` accumulators or the buffer
pool's byte layer.  A group read holds the lock for its whole plan: for
the group reader (:func:`~repro.storage.pagedfile.read_groups`) the page
loop decodes each run's pages before it reads the next run, so both pool
layers see exactly the order of one read per group.  Filtering happens
outside the lock.  Page-addressed reads consult the pool's decoded-array
layer after the lock is released; its lookups verify byte identity (see
:mod:`repro.storage.buffer`), so a race can cost a re-decode but never a
stale answer.

Snapshot sinks (MVCC pre-images)
--------------------------------
The epoch layer (:mod:`repro.core.epoch`) registers a *snapshot sink* via
:meth:`Disk.add_snapshot_sink` when the engine's first snapshot read
starts it; until then a disk has no sink and a destructive write reads
nothing extra.  Once one is registered, before a page is overwritten in
place (:meth:`write_page` on an existing page) the disk hands each sink
the page's *pre-image* bytes — still under the disk lock, so retention
is atomic with the overwrite.  Appends never destroy data and are not
retained.  :meth:`delete_file` hands nothing over: no engine deletes a
file while a sink is registered (merge files are never deleted, the
baselines' files are never read through an epoch, and recovery wipes
derived files before its engine exists).
Pre-image capture is pure bookkeeping: it reads the backend directly and
charges nothing, so it cannot perturb the simulated I/O trace.

Mutation hook (journal intents)
-------------------------------
An engine with a journal arms a one-shot *mutation hook*
(:meth:`Disk.arm_mutation_hook`) after every commit: the next call that
changes a file — :meth:`create_file`, :meth:`write_page`,
:meth:`append_page`, :meth:`append_run` or :meth:`delete_file` — first
calls it, under the disk lock, and disarms it once it returns.  The
journal's hook appends an *intent* record, so a crash after that
mutation is known to have left files the last commit does not describe
(:mod:`repro.core.recovery`).  A hook that raises stays armed and the
mutation does not happen.  Without one a mutation checks one attribute.

Every read goes through one page loop, :meth:`Disk.read_runs`, which
reads a sequence of runs under one lock acquisition and charges each run
on its own; :meth:`read_page`, :meth:`read_run` and the pinned
:meth:`read_run_at` are one-run calls into it, and a query's whole plan
is one call (:func:`~repro.storage.pagedfile.read_groups`).  A run the
buffer pool holds whole costs one pool call, its decodings included.  A pinned
read only adds the snapshot's overlay ``lookup`` in front of the buffer
pool, so the pages that still come from the live file are charged
exactly as live reads.
"""

from __future__ import annotations

import threading
from typing import Iterable, Iterator, Sequence

from repro.storage.backend import InMemoryBackend, StorageBackend, StorageError
from repro.storage.buffer import BufferPool
from repro.storage.cost_model import AccessKind, DiskModel, IOStats


class Disk:
    """Paged storage with cost accounting and a bounded buffer pool.

    Parameters
    ----------
    backend:
        Where page bytes live.  Defaults to a fresh in-memory backend.
    model:
        The analytical timing model.  Defaults to paper-like SAS-disk
        parameters.
    buffer_pages:
        Capacity of the LRU buffer pool in pages.  ``0`` disables caching.
    """

    def __init__(
        self,
        backend: StorageBackend | None = None,
        model: DiskModel | None = None,
        buffer_pages: int = 0,
    ) -> None:
        self._model = model or DiskModel()
        self._backend = backend or InMemoryBackend(page_size=self._model.page_size)
        if self._backend.page_size != self._model.page_size:
            raise ValueError(
                "backend and model disagree on page size: "
                f"{self._backend.page_size} vs {self._model.page_size}"
            )
        self._buffer = BufferPool(buffer_pages)
        self._stats = IOStats()
        self._head: tuple[str, int] | None = None
        self._lock = threading.RLock()
        self._snapshot_sinks: list = []
        self._mutation_hook = None
        self._tracer = None
        # A retry-capable backend (repro.storage.retry.RetryingBackend)
        # exposes add_retry_listener; fold its activity into IOStats so
        # retries are visible wherever I/O accounting already flows.
        register = getattr(self._backend, "add_retry_listener", None)
        if register is not None:
            register(self._on_retry_event)

    def _on_retry_event(self, event: str) -> None:
        with self._lock:  # RLock: safe when the op already holds it
            self._stats.record_retry_event(event)
        if self._tracer is not None:
            self._tracer.event("disk.retry", event=event)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def model(self) -> DiskModel:
        """The timing model in use."""
        return self._model

    @property
    def backend(self) -> StorageBackend:
        """The page store holding this disk's bytes."""
        return self._backend

    @property
    def page_size(self) -> int:
        """Page size in bytes."""
        return self._model.page_size

    @property
    def stats(self) -> IOStats:
        """The cumulative I/O statistics — a **live view**.

        This is the disk's own mutable accumulator, shared with every
        concurrent operation; two attribute reads may observe different
        in-flight states.  Use :meth:`stats_snapshot` for an atomic,
        immutable copy.
        """
        return self._stats

    def stats_snapshot(self) -> IOStats:
        """An atomic immutable copy of the I/O statistics.

        Taken under the disk lock, so no concurrent page access can be
        half-accounted in the copy.
        """
        with self._lock:
            return self._stats.snapshot()

    def attach_tracer(self, tracer) -> None:
        """Attach (or with ``None``, detach) a :class:`~repro.obs.trace.
        Tracer` recording page-I/O and retry events.  Observation only:
        tracing changes no charging, no caching and no head movement.
        """
        self._tracer = tracer

    @property
    def buffer_pool(self) -> BufferPool:
        """The LRU buffer pool."""
        return self._buffer

    def clear_cache(self) -> None:
        """Drop all cached pages (paper methodology: before every query)."""
        with self._lock:
            self._buffer.clear()

    def reset_head(self) -> None:
        """Forget the head position so the next access is charged a seek."""
        with self._lock:
            self._head = None

    # ------------------------------------------------------------------ #
    # Snapshot sinks (MVCC pre-image retention)
    # ------------------------------------------------------------------ #

    def add_snapshot_sink(self, sink) -> None:
        """Register an object whose ``retain(name, page_no, data)`` is
        called — under the disk lock — with the pre-image of every page
        about to be destroyed by an in-place overwrite.
        The engine registers one on its first snapshot read.
        """
        with self._lock:
            self._snapshot_sinks.append(sink)

    # ------------------------------------------------------------------ #
    # Mutation hook
    # ------------------------------------------------------------------ #

    def arm_mutation_hook(self, hook) -> None:
        """Call ``hook()`` before the next change to any file, once.

        Replaces an armed hook; ``None`` disarms.  The hook runs under the
        disk lock and is disarmed when it returns: a hook that raises
        stops the mutation and stays armed for the next one.
        """
        with self._lock:
            self._mutation_hook = hook

    def _before_mutation(self) -> None:
        """Run the armed hook (disk lock held)."""
        self._mutation_hook()
        self._mutation_hook = None

    # ------------------------------------------------------------------ #
    # File lifecycle
    # ------------------------------------------------------------------ #

    def create_file(self, name: str) -> None:
        """Create an empty file."""
        with self._lock:
            if self._mutation_hook is not None:
                self._before_mutation()
            self._backend.create(name)

    def delete_file(self, name: str) -> None:
        """Delete a file, dropping any cached pages it had."""
        with self._lock:
            if self._mutation_hook is not None:
                self._before_mutation()
            self._backend.delete(name)
            self._buffer.invalidate_file(name)
            if self._head is not None and self._head[0] == name:
                self._head = None

    def file_exists(self, name: str) -> bool:
        """Whether the file exists."""
        return self._backend.exists(name)

    def list_files(self) -> list[str]:
        """Names of all files."""
        return self._backend.list_files()

    def num_pages(self, name: str) -> int:
        """Number of pages in a file."""
        return self._backend.num_pages(name)

    def file_size_bytes(self, name: str) -> int:
        """Size of a file in bytes."""
        return self.num_pages(name) * self.page_size

    # ------------------------------------------------------------------ #
    # Page I/O
    # ------------------------------------------------------------------ #

    def read_page(self, name: str, page_no: int) -> bytes:
        """Read one page, charging a seek if the head is elsewhere."""
        ((data,),) = self.read_runs(((name, page_no, 1),))
        return data

    def read_run(self, name: str, start: int, count: int) -> list[bytes]:
        """Read ``count`` consecutive pages starting at ``start``.

        The run is charged as one positioning operation plus sequential
        transfers for the uncached pages; cached pages inside the run are
        free and do not break the sequential charging of the rest (the real
        disk would stream through them anyway).
        """
        (pages,) = self.read_runs(((name, start, count),), event="disk.read_run")
        return pages

    def read_run_at(self, name: str, start: int, count: int, lookup) -> list[bytes]:
        """Read a run as of a pinned snapshot.

        ``lookup(name, page_no)`` consults the snapshot's retained
        pre-image overlay: when it returns bytes, the page was overwritten
        after the snapshot was taken and the pre-image is used
        verbatim; when it returns ``None`` the live page is read with
        exactly :meth:`read_run`'s charging.  Overlay-served pages are
        snapshot bookkeeping — free, uncharged and not counted as cache
        hits — because the live I/O trace must not be perturbed by a
        reader pinned to the past.  The whole run, overlay consultation
        included, happens under the disk lock so a concurrent overwrite can
        never interleave with it (no torn runs).
        """
        (pages,) = self.read_runs(((name, start, count),), lookup, "disk.read_run_at")
        return pages

    def read_runs(
        self,
        runs: Iterable[tuple],
        lookup=None,
        event: str | None = None,
        decode=None,
    ) -> Iterator[list]:
        """The one page loop: yields the pages of each ``(name, start, count)`` run in turn.

        The disk lock is held from the first run to the last, so a caller
        that works between runs must exhaust or close the iterator.  With
        ``decode``, each run is ``(name, start, count, dtype)`` and yields
        its pages' ``decode(dtype, page)`` instead of their bytes, through
        the buffer pool's decoded-array layer: a group reader's decoding
        happens before the next run is read.  Per page: the overlay
        ``lookup`` (pinned reads only), then the buffer pool (a hit is
        free and recorded), then the backend.  Without an overlay the pool
        serves a run's cached prefix in one call
        (:meth:`~repro.storage.buffer.BufferPool.get_run`), decodings
        included when that prefix is the whole run.  Each run is charged
        on its own, after its pages: its uncached pages as one positioning
        operation at the first of them plus sequential transfers, and the
        head moves to the run's last page — so a sequence of runs costs
        exactly what one :meth:`read_run` per run costs.  A failed backend
        read leaves no pool entry for that page, charges nothing for its
        run and leaves the runs before it charged.  ``event`` names the
        tracer event each run records.
        """
        pool, stats, backend = self._buffer, self._stats, self._backend
        with self._lock:
            for run in runs:
                if decode is None:
                    name, start, count = run
                    dtype = None
                else:
                    name, start, count, dtype = run
                if count < 0:
                    raise ValueError("count must be non-negative")
                if lookup is None:
                    pages, decoded = pool.get_run(name, start, count, decode, dtype)
                    if pages:
                        stats.record_cache_hit(len(pages))
                else:
                    pages, decoded = [], None
                uncached = 0
                if len(pages) < count:
                    first_uncached = start + len(pages)
                    # Without an overlay, get_run has counted this page's miss.
                    asked = lookup is None
                    for page_no in range(first_uncached, start + count):
                        if lookup is not None:
                            retained = lookup(name, page_no)
                            if retained is not None:
                                pages.append(retained)
                                continue
                        if asked:
                            asked = False
                        else:
                            cached = pool.get(name, page_no)
                            if cached is not None:
                                stats.record_cache_hit()
                                pages.append(cached)
                                continue
                        try:
                            data = backend.read(name, page_no)
                        except StorageError:
                            # Nothing was read: make sure no layer of the pool
                            # keeps an entry for a page we just failed to
                            # materialise.
                            pool.invalidate_page(name, page_no)
                            raise
                        if not uncached:
                            first_uncached = page_no
                        uncached += 1
                        pages.append(data)
                        pool.put(name, page_no, data)
                    if uncached:
                        self._charge_read(self._classify(name, first_uncached), uncached)
                        self._advance_head(name, start + count - 1)
                if event is not None and self._tracer is not None:
                    self._tracer.event(event, file=name, pages=count, uncached=uncached)
                if decode is None:
                    yield pages
                elif decoded is not None:
                    yield decoded
                else:
                    yield pool.decode_run(name, start, pages, decode, dtype)

    def write_page(self, name: str, page_no: int, data: bytes) -> None:
        """Overwrite one page in place (write-through to the backend)."""
        with self._lock:
            if self._mutation_hook is not None:
                self._before_mutation()
            if self._snapshot_sinks and page_no < self._backend.num_pages(name):
                # The pre-image read is uncharged: retention is snapshot
                # bookkeeping, not simulated I/O.
                pre_image = self._backend.read(name, page_no)
                for sink in self._snapshot_sinks:
                    sink.retain(name, page_no, pre_image)
            kind = self._classify(name, page_no)
            # Drop the cached pre-write bytes first: if the write (or the
            # re-read below) fails, the pool must fall back to the
            # backend instead of serving the page's old contents.
            self._buffer.invalidate_page(name, page_no)
            self._backend.write(name, page_no, data)
            self._charge_write(kind, 1)
            self._advance_head(name, page_no)
            self._recache(name, page_no)
            if self._tracer is not None:
                self._tracer.event("disk.write_page", file=name, page=page_no)

    def append_page(self, name: str, data: bytes) -> int:
        """Append one page to the end of the file and return its number."""
        with self._lock:
            if self._mutation_hook is not None:
                self._before_mutation()
            next_page = self._backend.num_pages(name)
            kind = self._classify(name, next_page)
            page_no = self._backend.append(name, data)
            self._charge_write(kind, 1)
            self._advance_head(name, page_no)
            self._recache(name, page_no)
            return page_no

    def append_run(self, name: str, pages: Sequence[bytes]) -> int:
        """Append several pages; returns the page number of the first one."""
        with self._lock:
            if not pages:
                return self._backend.num_pages(name)
            if self._mutation_hook is not None:
                self._before_mutation()
            first = self._backend.num_pages(name)
            kind = self._classify(name, first)
            for data in pages:
                page_no = self._backend.append(name, data)
                self._recache(name, page_no)
            self._charge_write(kind, len(pages))
            self._advance_head(name, first + len(pages) - 1)
            if self._tracer is not None:
                self._tracer.event(
                    "disk.append_run", file=name, pages=len(pages), first_page=first
                )
            return first

    def _recache(self, name: str, page_no: int) -> None:
        """Refresh the pool with a page's post-write backend bytes.

        Caching is an optimisation on top of a write that already
        succeeded: if the uncharged re-read fails (a transient fault that
        survived the backend's own retries), the page is simply left
        uncached — with no stale entry on either pool layer — and the
        next read will fetch and charge it normally.
        """
        try:
            self._buffer.put(name, page_no, self._backend.read(name, page_no))
        except StorageError:
            self._buffer.invalidate_page(name, page_no)

    # ------------------------------------------------------------------ #
    # CPU accounting
    # ------------------------------------------------------------------ #

    def charge_cpu_records(self, records: int) -> None:
        """Charge simulated CPU time for processing ``records`` records."""
        with self._lock:
            self._stats.record_cpu(self._model.cpu_time_s(records))

    def charge_cpu_seconds(self, seconds: float) -> None:
        """Charge an explicit amount of simulated CPU time."""
        with self._lock:
            self._stats.record_cpu(seconds)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _classify(self, name: str, page_no: int) -> AccessKind:
        if self._head is None:
            return AccessKind.RANDOM
        head_file, head_page = self._head
        if head_file == name and page_no == head_page + 1:
            return AccessKind.SEQUENTIAL
        return AccessKind.RANDOM

    def _advance_head(self, name: str, page_no: int) -> None:
        self._head = (name, page_no)

    def _charge_read(self, kind: AccessKind, pages: int) -> None:
        seconds = self._model.access_time_s(kind, pages)
        self._stats.record_read(kind, pages, seconds)

    def _charge_write(self, kind: AccessKind, pages: int) -> None:
        seconds = self._model.access_time_s(kind, pages)
        self._stats.record_write(kind, pages, seconds)
