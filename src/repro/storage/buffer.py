"""LRU buffer pool.

The paper restricts every approach to the same main-memory footprint and
explicitly drops OS caches before each query, so the buffer pool here serves
two purposes: it models the bounded memory budget during index construction
(e.g. the Grid baseline buffers cells in memory and flushes when full) and it
gives the benchmark harness an explicit :meth:`BufferPool.clear` hook that
mirrors the paper's cache-dropping methodology.

The pool is write-through: pages written through the
:class:`~repro.storage.disk.Disk` are immediately persisted to the backend,
so eviction never loses data.

Decoded-array layer
-------------------
On top of the byte cache the pool keeps a *decoded-array* layer: the
structured-array decoding of a cached page, keyed exactly like the bytes.
It is strictly a CPU-work cache — a decoded entry exists only while its
byte page is resident, so it never changes which disk accesses happen or
how they are charged; it only lets hot partitions skip re-running
``np.frombuffer`` page decoding.  Entries are dropped together with their
byte page (eviction, overwrite, file invalidation, :meth:`clear`).

Each decoded entry additionally remembers the *exact bytes object* it was
decoded from, and a lookup only hits when the caller presents that same
object (``is`` identity, not equality).  This closes a concurrency window:
a reader that fetched page bytes, lost the CPU while the page was
overwritten and re-decoded by another thread, and then asked the decoded
layer, must not be served the decoding of the *newer* bytes.  Identity
also keeps epoch-snapshot readers honest — pre-images retained by the
MVCC layer (:mod:`repro.core.epoch`) are distinct bytes objects, so they
can never alias a decoding of the live page.

Run-level calls
---------------
A group read asks the pool once per run of consecutive pages
(:meth:`BufferPool.get_run`), not once per page and layer.  The call
walks the byte layer page by page and stops at the first page it does
not hold: each page before it counts a hit (and moves to the LRU tail)
and that page counts the miss one :meth:`BufferPool.get` would have
counted, so a run whose first page misses costs the one call a per-page
read would have made.  A fully cached run's decodings come from the same
call.  A run read partly from the backend gets its decodings from one
:meth:`BufferPool.decode_run` after its last page, which is where the
per-page reader consulted the decoded layer too.

Counter order under failure is the per-page reader's: the byte counters
of a run all move before its first decoded-layer lookup, and each
decoded miss is counted *before* its page is decoded, so a page whose
decode raises (a failed checksum) has counted its miss, the pages before
it in the run have their decoded hits, misses and entries, and the pages
after it are untouched.  :attr:`BufferPool.tally` reads every counter as
one plain tuple; a query's ``cache`` report is built from the tallies
taken at its boundaries (:meth:`BufferCounters.between`).

Lock ordering
-------------
The pool has no lock of its own and sits strictly *below* the
:class:`~repro.storage.disk.Disk`: the disk calls into the byte layer
under the disk lock, and no pool method ever calls back into the disk.
Group reads consult the decoded-array layer under the disk lock;
page-addressed reads consult it after releasing the lock.  Each of its
operations is a single dictionary access guarded by the identity check
above, so a concurrent reader can miss a decoding but never receive a
wrong one.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from collections import OrderedDict
from operator import attrgetter, sub
from typing import Any


@dataclass(frozen=True, slots=True)
class BufferCounters:
    """A point-in-time snapshot of the pool's hit/miss/eviction counters.

    ``decoded_*`` describe the decoded-array layer; the plain fields
    describe the byte cache.  Snapshots are cumulative since pool
    construction; use :meth:`delta_since` for per-query attribution.

    Decoded entries leave the cache by exactly two counted paths:
    ``decoded_evictions`` (dropped with an LRU-evicted byte page) and
    ``decoded_invalidations`` (dropped because their file was deleted,
    e.g. a merge file being replaced).  :meth:`BufferPool.clear` — the
    paper's explicit cache-dropping protocol — is deliberately uncounted
    on both layers, exactly like byte-page drops on ``clear``.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    decoded_hits: int = 0
    decoded_misses: int = 0
    decoded_evictions: int = 0
    decoded_invalidations: int = 0

    def delta_since(self, earlier: "BufferCounters") -> "BufferCounters":
        """Counter increments between ``earlier`` and this snapshot."""
        return BufferCounters(*map(sub, _counters(self), _counters(earlier)))

    @classmethod
    def between(cls, start, end) -> "BufferCounters":
        """The increments from the :attr:`BufferPool.tally` ``start`` to ``end``."""
        return cls(*map(sub, end, start))


#: Every field of a :class:`BufferCounters`, in field order, in one call.
_counters = attrgetter(*(f.name for f in fields(BufferCounters)))

#: The same counters read off a live pool, as one plain tuple.
_tally = attrgetter(*(f"_{f.name}" for f in fields(BufferCounters)))


class BufferPool:
    """A bounded, least-recently-used cache of page bytes.

    Keys are ``(file_name, page_no)`` pairs.  A ``capacity_pages`` of zero
    disables caching entirely (every read goes to the simulated disk).
    """

    def __init__(self, capacity_pages: int) -> None:
        if capacity_pages < 0:
            raise ValueError("capacity_pages must be non-negative")
        self._capacity = capacity_pages
        self._pages: OrderedDict[tuple[str, int], bytes] = OrderedDict()
        # Decoded layer: key -> (source bytes object, decoded value).  The
        # bytes object is kept so lookups can verify identity (see module
        # docstring) — it is the same object as self._pages[key] at insert
        # time, so this holds no extra page memory.
        self._decoded: dict[tuple[str, int], tuple[bytes, Any]] = {}
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._decoded_hits = 0
        self._decoded_misses = 0
        self._decoded_evictions = 0
        self._decoded_invalidations = 0

    # -- core operations -------------------------------------------------- #

    def get(self, file_name: str, page_no: int) -> bytes | None:
        """Return the cached page or ``None``; refreshes LRU position on hit."""
        key = (file_name, page_no)
        data = self._pages.get(key)
        if data is None:
            self._misses += 1
            return None
        self._pages.move_to_end(key)
        self._hits += 1
        return data

    def put(self, file_name: str, page_no: int, data: bytes) -> None:
        """Insert or refresh a page, evicting the least recently used if full."""
        if self._capacity == 0:
            return
        key = (file_name, page_no)
        if key in self._pages:
            self._pages.move_to_end(key)
        # Any overwrite OR insert invalidates a decoding of older bytes.
        # For fresh inserts the pop is normally a no-op ("decoded only
        # while resident"), but under concurrency a decode_run can race
        # with eviction or file invalidation and orphan an entry; popping
        # here guarantees such an orphan can never serve a stale decode
        # after the page is re-cached (possibly with new bytes).
        self._decoded.pop(key, None)
        self._pages[key] = data
        while len(self._pages) > self._capacity:
            victim, _ = self._pages.popitem(last=False)
            self._evictions += 1
            if self._decoded.pop(victim, None) is not None:
                self._decoded_evictions += 1

    def get_run(
        self, file_name: str, start: int, count: int, decode=None, dtype=None
    ) -> tuple[list[bytes], list | None]:
        """The cached prefix of pages ``[start, start + count)``, and its decodings.

        Returns the bytes of the pages held before the first one that is
        not, each counted as a hit and moved to the LRU tail; the page
        that ends the prefix counts a miss, as :meth:`get` would, so the
        caller reads it from the backend next without asking again.  When
        the whole run is held and ``decode`` is given, the second item is
        :meth:`decode_run` of the run, else ``None``.
        """
        pages = self._pages
        found: list[bytes] = []
        for page_no in range(start, start + count):
            key = (file_name, page_no)
            data = pages.get(key)
            if data is None:
                self._hits += len(found)
                self._misses += 1
                return found, None
            pages.move_to_end(key)
            found.append(data)
        self._hits += count
        if decode is None:
            return found, None
        return found, self.decode_run(file_name, start, found, decode, dtype)

    def decode_run(self, file_name: str, start: int, pages: list[bytes], decode, dtype) -> list:
        """``decode(dtype, page)`` of consecutive pages, through the decoded layer.

        Page by page: a cached decoding is served (a decoded hit) only if
        it was decoded from exactly the bytes object passed in (identity,
        so a decoding of different bytes — a concurrent overwrite, or an
        MVCC pre-image — is never served); otherwise the miss is counted,
        the page decoded, and the decoding attached to the byte-cached page
        only if the resident page *is* those bytes (covering the
        not-resident and capacity-zero cases, so the decoded layer never
        outlives or mismatches its bytes).  The miss is counted before the
        decode, so a decode that raises leaves the counts and entries of
        the pages before it and its own miss.
        """
        decoded, resident = self._decoded, self._pages
        values = []
        for page_no, page_bytes in enumerate(pages, start):
            key = (file_name, page_no)
            entry = decoded.get(key)
            if entry is not None and entry[0] is page_bytes:
                self._decoded_hits += 1
                values.append(entry[1])
                continue
            self._decoded_misses += 1
            value = decode(dtype, page_bytes)
            if resident.get(key) is page_bytes:
                decoded[key] = (page_bytes, value)
            values.append(value)
        return values

    def invalidate_file(self, file_name: str) -> None:
        """Drop every cached page belonging to one file (used on delete).

        Decoded-array entries dropped here count as
        ``decoded_invalidations`` (the eviction path counts its drops as
        ``decoded_evictions``), so every decoded drop outside
        :meth:`clear` is accounted for by exactly one counter.
        """
        stale = [key for key in self._pages if key[0] == file_name]
        for key in stale:
            del self._pages[key]
            if self._decoded.pop(key, None) is not None:
                self._decoded_invalidations += 1

    def invalidate_page(self, file_name: str, page_no: int) -> None:
        """Drop one page from both layers (used when its bytes become
        unreliable: an in-place overwrite is about to change them, or a
        re-read after a write failed).  Decoded drops count as
        ``decoded_invalidations``, same as :meth:`invalidate_file`.
        """
        key = (file_name, page_no)
        self._pages.pop(key, None)
        if self._decoded.pop(key, None) is not None:
            self._decoded_invalidations += 1

    def clear(self) -> None:
        """Drop every cached page (the paper's per-query cache clearing)."""
        self._pages.clear()
        self._decoded.clear()

    # -- introspection ---------------------------------------------------- #

    @property
    def capacity_pages(self) -> int:
        """Maximum number of pages the pool may hold."""
        return self._capacity

    def __len__(self) -> int:
        return len(self._pages)

    def __contains__(self, key: tuple[str, int]) -> bool:
        return key in self._pages

    @property
    def hits(self) -> int:
        """Number of successful lookups since construction."""
        return self._hits

    @property
    def misses(self) -> int:
        """Number of failed lookups since construction."""
        return self._misses

    @property
    def evictions(self) -> int:
        """Number of pages evicted due to capacity pressure."""
        return self._evictions

    @property
    def decoded_hits(self) -> int:
        """Decoded-array lookups served from the cache."""
        return self._decoded_hits

    @property
    def decoded_misses(self) -> int:
        """Decoded-array lookups that had to decode page bytes."""
        return self._decoded_misses

    @property
    def decoded_evictions(self) -> int:
        """Decoded arrays dropped because their byte page was evicted."""
        return self._decoded_evictions

    @property
    def decoded_invalidations(self) -> int:
        """Decoded arrays dropped because their file was invalidated."""
        return self._decoded_invalidations

    #: Every counter as one tuple in :class:`BufferCounters` field order:
    #: what a query boundary records (no object, no Python frame).
    tally = property(_tally)

    def counters(self) -> BufferCounters:
        """A snapshot of all counters (byte layer and decoded layer)."""
        return BufferCounters(*_tally(self))
