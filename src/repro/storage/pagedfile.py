"""Record-oriented files on top of the simulated disk.

A :class:`PagedFile` stores *groups* of fixed-size records.  Each group
occupies whole pages (groups never share a page) described by a
:class:`StoredRun` — a list of page extents plus the record count.  Groups
are the unit the indexes work with: a Space Odyssey partition, a Grid cell,
an R-tree leaf or a merge-file segment is one group.

The write path supports the paper's *in-place refinement*: when a partition
is split, the pages it used to occupy are handed back to
:meth:`PagedFile.write_groups_array` for reuse, and only the overflow is
appended at the end of the file (Section 3.1.2 of the paper).  Most
children of a split are empty: a group without records is checked like any
other but is never encoded and never gets a run of its own (all share one
empty :class:`StoredRun`), so the write costs what the occupied groups cost.

Array surface
-------------
Records are read as NumPy structured arrays of the codec's ``dtype``:
the group reader :func:`read_groups`, the page-addressed
:meth:`PagedFile.read_page_array` and :meth:`PagedFile.scan_arrays` decode
pages with ``np.frombuffer`` (no per-record Python objects), and
:meth:`PagedFile.append_group_array` / :meth:`PagedFile.write_groups_array`
encode straight from arrays.  Reads are backed by the buffer pool's
decoded-array layer (one :meth:`~repro.storage.buffer.BufferPool.decode_run`
or :meth:`~repro.storage.buffer.BufferPool.get_run` call per run): a page
whose bytes are cached is decoded at most once.
Every group read — a query's whole plan, across files, live or as of a
pinned snapshot — is one call of :func:`read_groups`: one
:meth:`Disk.read_runs` page loop over every extent of every group, and one
record-count check per group; :meth:`PagedFile.read_group_array` and
:meth:`PagedFile.read_group_array_at` are one-group calls.  The one
per-record entry point left is :meth:`PagedFile.append_group`, which packs
record objects through the codec into the same page bytes the array
surface writes.

Compression
-----------
``PagedFile(..., compression="zlib")`` writes each page's records as one
zlib payload when it fits the page, else as a plain page
(:func:`~repro.storage.codec.paginate_bytes_compressed`).  Either way a page
holds at most :attr:`PagedFile.records_per_page` records, so a compressed
group occupies exactly the pages a plain one does.  Reads follow each
page's own header, so files written by the former packing encoder (zlib
pages carrying several pages' worth of records) still decode.
"""

from __future__ import annotations

from collections import namedtuple
from contextlib import closing
from dataclasses import dataclass, field
from typing import Generic, Iterator, Sequence, TypeVar

import numpy as np

from repro.storage.codec import (
    RecordCodec,
    decode_page_array,
    encode_page,
    paginate_array,
    paginate_bytes_compressed,
    records_per_page,
)
from repro.storage.disk import Disk
from repro.storage.errors import CorruptPageError

RecordT = TypeVar("RecordT")


class PageExtent(namedtuple("PageExtent", ("start", "count"))):
    """A run of ``count`` consecutive pages starting at ``start``.

    A named tuple, so that hashing a stored group's extents — the batch
    read set's key — costs no Python call per extent.
    """

    __slots__ = ()

    def __new__(cls, start: int, count: int) -> "PageExtent":
        if start < 0:
            raise ValueError("start must be non-negative")
        if count < 1:
            raise ValueError("count must be positive")
        return tuple.__new__(cls, (start, count))

    @property
    def end(self) -> int:
        """Page number one past the last page of the extent."""
        return self.start + self.count

    def pages(self) -> Iterator[int]:
        """Yield the page numbers covered by the extent."""
        return iter(range(self.start, self.end))


def coalesce_pages(page_numbers: Sequence[int]) -> list[PageExtent]:
    """Compress a sorted-or-not list of page numbers into maximal extents."""
    if not page_numbers:
        return []
    ordered = sorted(page_numbers)
    extents: list[PageExtent] = []
    run_start = ordered[0]
    run_len = 1
    for page_no in ordered[1:]:
        if page_no == run_start + run_len:
            run_len += 1
        else:
            extents.append(PageExtent(run_start, run_len))
            run_start = page_no
            run_len = 1
    extents.append(PageExtent(run_start, run_len))
    return extents


@dataclass(frozen=True, slots=True)
class StoredRun:
    """Where one group of records lives: its page extents and record count."""

    extents: tuple[PageExtent, ...]
    n_records: int

    def __post_init__(self) -> None:
        if self.n_records < 0:
            raise ValueError("n_records must be non-negative")

    @property
    def n_pages(self) -> int:
        """Total number of pages occupied by the group."""
        return sum(extent.count for extent in self.extents)

    def page_numbers(self) -> list[int]:
        """All page numbers of the group, in storage order."""
        pages: list[int] = []
        for extent in self.extents:
            pages.extend(extent.pages())
        return pages


#: The run of every group that holds no records (runs are immutable values).
_EMPTY_RUN = StoredRun(extents=(), n_records=0)


@dataclass(slots=True)
class _PageAllocator:
    """Hands out page slots, reusing a free list before appending new pages.

    ``None`` slots signal "append a fresh page at the end of the file".
    """

    free_pages: list[int] = field(default_factory=list)
    cursor: int = 0

    def take(self) -> int | None:
        if self.cursor < len(self.free_pages):
            page_no = self.free_pages[self.cursor]
            self.cursor += 1
            return page_no
        return None


def frozen_concat(parts: Sequence[np.ndarray], dtype: np.dtype) -> np.ndarray:
    """Concatenate contiguous record arrays into one *read-only* array.

    The parts' bytes are joined and viewed as ``dtype``: a structured
    ``np.concatenate`` promotes the fields of every part, which costs more
    than the copy.  A single part (a read-only page view from the
    decoded-array cache) comes back as is.  The whole array surface stays
    immutable: cached views are shared across queries, engines and
    epochs, and an in-place mutation anywhere must raise instead of
    silently corrupting everyone's view of the page.
    """
    if len(parts) == 1:
        return parts[0]
    return np.frombuffer(b"".join(parts), dtype=dtype)


def read_groups(
    groups: Sequence[tuple["PagedFile", "StoredRun"]], lookup=None
) -> list[np.ndarray]:
    """The one group reader: the records of each ``(file, run)``, in order.

    The files share one disk, and every extent of every group is one run
    of one :meth:`Disk.read_runs` call (with a snapshot ``lookup``, pages
    destroyed since the pin come from their pre-images).  The page loop
    decodes each run's pages through the buffer pool's decoded-array
    layer before it reads the next run, as one read per group decoded one
    extent at a time, so hits, decodings and evictions on both pool
    layers happen exactly as with one read per group; a run the pool
    holds whole is one pool call.  A group is its first
    ``run.n_records`` records, and fewer decoded is corruption
    (:class:`~repro.storage.errors.CorruptPageError`, a storage error like
    a failed checksum).
    """
    if not groups:
        return []
    disk = groups[0][0].disk
    runs = [
        (file._name, start, count, file._dtype)
        for file, run in groups
        for start, count in run.extents
    ]
    event = "disk.read_run" if lookup is None else "disk.read_run_at"
    arrays: list[np.ndarray] = []
    with closing(disk.read_runs(runs, lookup, event, decode_page_array)) as reads:
        for file, run in groups:
            dtype = file._dtype
            if dtype is None:
                file._require_dtype()  # raises before the group is read
            parts = []
            for _ in run.extents:
                for page in next(reads):
                    if len(page):
                        parts.append(page)
            records = parts[0] if len(parts) == 1 else frozen_concat(parts, dtype)
            n = run.n_records
            if len(records) < n:
                raise CorruptPageError(
                    f"group in {file._name!r} is corrupt: expected {n} records, "
                    f"decoded {len(records)}"
                )
            arrays.append(records if len(records) == n else records[:n])
    return arrays


class PagedFile(Generic[RecordT]):
    """A named file of record groups on a :class:`~repro.storage.disk.Disk`.

    The file is created lazily on the first write if it does not exist.
    """

    def __init__(
        self,
        disk: Disk,
        name: str,
        codec: RecordCodec[RecordT],
        compression: str | None = None,
    ) -> None:
        if compression not in (None, "zlib"):
            raise ValueError(f"unsupported compression {compression!r} (expected 'zlib')")
        self._disk = disk
        self._name = name
        self._codec = codec
        self._compression = compression
        self._dtype: np.dtype | None = getattr(codec, "dtype", None)
        self._records_per_page = records_per_page(codec.record_size, disk.page_size)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def name(self) -> str:
        """The underlying file name."""
        return self._name

    @property
    def disk(self) -> Disk:
        """The disk this file lives on."""
        return self._disk

    @property
    def codec(self) -> RecordCodec[RecordT]:
        """The record codec."""
        return self._codec

    @property
    def dtype(self) -> np.dtype | None:
        """The structured dtype of the array surface (``None`` if unavailable)."""
        return self._dtype

    @property
    def records_per_page(self) -> int:
        """Maximum number of records per page, compressed or not.

        A zlib page holds at most what a plain page holds, so this capacity
        is exact for compressed files too; the reuse arithmetic of
        :meth:`write_groups_array` and :meth:`pages_needed` is based on it.
        """
        return self._records_per_page

    @property
    def compression(self) -> str | None:
        """The compression codec newly encoded pages use (``None`` = off).

        Compression applies to the encode path only; reads are always
        driven by each page's own header flags, so files mixing compressed
        and uncompressed pages (or written by an older encoder) decode
        transparently.
        """
        return self._compression

    def exists(self) -> bool:
        """Whether the file has been created."""
        return self._disk.file_exists(self._name)

    def num_pages(self) -> int:
        """Number of pages currently in the file (0 if not created)."""
        if not self.exists():
            return 0
        return self._disk.num_pages(self._name)

    def delete(self) -> None:
        """Delete the file if it exists."""
        if self.exists():
            self._disk.delete_file(self._name)

    def pages_needed(self, n_records: int) -> int:
        """How many pages a group of ``n_records`` records occupies.

        Exact for every page this class writes, compressed or not (a zlib
        page holds at most :attr:`records_per_page` records).
        """
        if n_records <= 0:
            return 0
        return -(-n_records // self._records_per_page)

    # ------------------------------------------------------------------ #
    # Writing
    # ------------------------------------------------------------------ #

    def append_group(self, records: Sequence[RecordT]) -> StoredRun:
        """Append one group of records at the end of the file."""
        return self._append_pages(self._encode_group(records), len(records))

    def append_group_array(self, records: np.ndarray) -> StoredRun:
        """Append one group encoded straight from a structured array."""
        return self._append_pages(self._encode_group_array(records), len(records))

    def write_groups_array(
        self,
        groups: Sequence[np.ndarray],
        reuse: Sequence[PageExtent] = (),
    ) -> list[StoredRun]:
        """Write several groups of structured records, reusing the given extents first.

        This implements the paper's in-place refinement: the pages of the
        partition being split are reused for its children, and any overflow
        is appended at the end of the file.  Groups never share pages, so
        each resulting :class:`StoredRun` can be read independently.

        Groups that hold no records get no pages and share
        :data:`_EMPTY_RUN`, so a split into ``ppl`` children costs what its
        occupied children cost: the dtype is fetched once and compared per
        group, and only occupied groups are encoded.  A group whose pages
        do not all fit in the reused extents remembers how many are
        missing; after one bulk append at the end of the file the missing
        pages are dealt back out in group order, and only then is each
        group's run built — once.
        """
        dtype = self._require_dtype()
        for records in groups:
            self._check_dtype(records, dtype)
        encoded = [(i, self._paginate(group)) for i, group in enumerate(groups) if len(group)]
        self._ensure_created()
        allocator = _PageAllocator(free_pages=[p for ext in reuse for p in ext.pages()])
        runs: list[StoredRun] = [_EMPTY_RUN] * len(groups)
        pending_appends: list[bytes] = []
        placed: list[tuple[int, int, list[int], int]] = []  # (group, records, slots, missing)
        for index, pages in encoded:
            assigned: list[int] = []
            missing = 0
            for page_bytes in pages:
                slot = allocator.take()
                if slot is None:
                    pending_appends.append(page_bytes)
                    missing += 1
                else:
                    self._disk.write_page(self._name, slot, page_bytes)
                    assigned.append(slot)
            placed.append((index, len(groups[index]), assigned, missing))
        cursor = self._disk.append_run(self._name, pending_appends) if pending_appends else 0
        for index, n_records, assigned, missing in placed:
            assigned.extend(range(cursor, cursor + missing))
            cursor += missing
            runs[index] = StoredRun(extents=tuple(coalesce_pages(assigned)), n_records=n_records)
        return runs

    def _append_pages(self, pages: list[bytes], n_records: int) -> StoredRun:
        self._ensure_created()
        if not n_records:
            return _EMPTY_RUN
        first = self._disk.append_run(self._name, pages)
        return StoredRun(extents=(PageExtent(first, len(pages)),), n_records=n_records)

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #

    def read_group_array(self, run: StoredRun) -> np.ndarray:
        """Read one group as a structured array (zero-copy page decoding).

        A one-group :func:`read_groups`: the run's extents are one
        :meth:`Disk.read_runs`, and decoded pages are cached in the buffer
        pool's decoded-array layer, so a group whose pages are byte-cached
        is served without re-decoding.
        """
        return read_groups(((self, run),))[0]

    def read_page_array(self, page_no: int) -> np.ndarray:
        """Decode all records stored in one page as a structured array.

        Index structures that address whole-page groups by page number
        (R-tree nodes, FLAT leaves and seeds) use this instead of carrying
        a :class:`StoredRun` around; the per-page record-count header makes
        the page self-describing.
        """
        dtype = self._require_dtype()
        page_bytes = self._disk.read_page(self._name, page_no)
        pool = self._disk.buffer_pool
        return pool.decode_run(self._name, page_no, [page_bytes], decode_page_array, dtype)[0]

    def scan_arrays(self, chunk_pages: int = 256) -> Iterator[np.ndarray]:
        """Yield the file's records in columnar chunks (one sequential pass).

        Each yielded array concatenates up to ``chunk_pages`` pages, read
        with one :meth:`Disk.read_run`, so a file is charged as one
        positioning operation per chunk plus sequential transfers.
        """
        dtype = self._require_dtype()
        if not self.exists():
            return
        if chunk_pages < 1:
            raise ValueError("chunk_pages must be >= 1")
        total = self.num_pages()
        pool = self._disk.buffer_pool
        for start in range(0, total, chunk_pages):
            count = min(chunk_pages, total - start)
            pages = self._disk.read_run(self._name, start, count)
            parts = pool.decode_run(self._name, start, pages, decode_page_array, dtype)
            parts = [part for part in parts if len(part)]
            if not parts:
                continue
            yield frozen_concat(parts, dtype)

    def _require_dtype(self) -> np.dtype:
        if self._dtype is None:
            raise TypeError(
                f"codec {type(self._codec).__name__} declares no structured dtype; "
                "the array surface is unavailable for this file"
            )
        return self._dtype

    def read_group_array_at(self, run: StoredRun, lookup) -> np.ndarray:
        """Snapshot variant of :meth:`read_group_array`.

        Pages are fetched through the overlay ``lookup``, so any page
        overwritten since the snapshot was pinned is served
        from the snapshot's retained pre-image instead of the live file
        (see :meth:`Disk.read_run_at`).  Pre-image bytes are distinct
        objects from anything in the buffer pool, so the identity-checked
        decoded layer decodes them fresh and never caches them — a later
        live reader cannot be served a stale decoding.  When the overlay
        has nothing for the run, reads, charging and decoding are
        identical to :meth:`read_group_array`.
        """
        return read_groups(((self, run),), lookup)[0]

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _ensure_created(self) -> None:
        if not self._disk.file_exists(self._name):
            self._disk.create_file(self._name)

    def _encode_group(self, records: Sequence[RecordT]) -> list[bytes]:
        if not len(records):
            return []
        if self._compression is not None:
            packed = b"".join(self._codec.pack(record) for record in records)
            return paginate_bytes_compressed(
                packed, self._codec.record_size, self._disk.page_size, self._compression
            )
        pages: list[bytes] = []
        for start in range(0, len(records), self._records_per_page):
            chunk = records[start : start + self._records_per_page]
            pages.append(encode_page(self._codec, chunk, self._disk.page_size))
        return pages

    def _encode_group_array(self, records: np.ndarray) -> list[bytes]:
        self._check_dtype(records, self._require_dtype())
        if not len(records):
            return []  # checked like any group, but there is nothing to encode
        return self._paginate(records)

    @staticmethod
    def _check_dtype(records: np.ndarray, dtype: np.dtype) -> None:
        if records.dtype != dtype:
            raise TypeError(
                f"array dtype {records.dtype} does not match the file's "
                f"record dtype {dtype}"
            )

    def _paginate(self, records: np.ndarray) -> list[bytes]:
        """Encode a non-empty group's records into pages."""
        if self._compression is not None:
            return paginate_bytes_compressed(
                records.tobytes(),
                self._codec.record_size,
                self._disk.page_size,
                self._compression,
            )
        return paginate_array(records, self._disk.page_size)
