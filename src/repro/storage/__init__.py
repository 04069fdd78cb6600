"""Simulated disk substrate.

The original Space Odyssey evaluation is disk-bound: its run-times are
dominated by how many pages each approach reads and writes and by whether
those accesses are sequential or random.  This package provides the
substrate that the rest of the library is built on:

* :class:`~repro.storage.backend.StorageBackend` — where page bytes actually
  live (in memory, or in real files on the host filesystem);
* :class:`~repro.storage.cost_model.DiskModel` — an analytical model of a
  spinning disk (seek latency + transfer bandwidth + a small CPU term) that
  converts the access trace into *simulated seconds*;
* :class:`~repro.storage.disk.Disk` — the facade all indexes talk to.  It
  tracks head position to classify accesses as sequential or random, charges
  the cost model, and runs an LRU :class:`~repro.storage.buffer.BufferPool`
  with a configurable page budget (the paper caps every approach at the same
  memory footprint and drops OS caches before each query);
* :class:`~repro.storage.pagedfile.PagedFile` — a record-oriented file
  abstraction (fixed-size records packed into 4 KB pages) used for raw
  dataset files, index partitions and merge files.
"""

from repro.storage.backend import FileSystemBackend, InMemoryBackend, StorageBackend
from repro.storage.buffer import BufferCounters, BufferPool
from repro.storage.codec import FixedRecordCodec, RecordCodec, page_intact, verify_page
from repro.storage.cost_model import AccessKind, DiskModel, IOStats
from repro.storage.disk import Disk
from repro.storage.errors import (
    CorruptPageError,
    MissingFileError,
    MissingPageError,
    SimulatedCrash,
    StorageError,
    TransientIOError,
    is_transient,
)
from repro.storage.faults import FaultCounters, FaultInjectingBackend, FaultPlan
from repro.storage.journal import ManifestJournal
from repro.storage.page import PAGE_SIZE
from repro.storage.pagedfile import PagedFile, PageExtent, StoredRun
from repro.storage.retry import RetryCounters, RetryingBackend, RetryPolicy

__all__ = [
    "PAGE_SIZE",
    "AccessKind",
    "BufferCounters",
    "BufferPool",
    "CorruptPageError",
    "Disk",
    "DiskModel",
    "FaultCounters",
    "FaultInjectingBackend",
    "FaultPlan",
    "FileSystemBackend",
    "FixedRecordCodec",
    "IOStats",
    "InMemoryBackend",
    "ManifestJournal",
    "MissingFileError",
    "MissingPageError",
    "PageExtent",
    "PagedFile",
    "RecordCodec",
    "RetryCounters",
    "RetryPolicy",
    "RetryingBackend",
    "SimulatedCrash",
    "StorageBackend",
    "StorageError",
    "StoredRun",
    "TransientIOError",
    "is_transient",
    "page_intact",
    "verify_page",
]
