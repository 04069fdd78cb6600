"""Record-oriented files on top of the simulated disk.

A :class:`PagedFile` stores *groups* of fixed-size records.  Each group
occupies whole pages (groups never share a page) described by a
:class:`StoredRun` — a list of page extents plus the record count.  Groups
are the unit the indexes work with: a Space Odyssey partition, a Grid cell,
an R-tree leaf or a merge-file segment is one group.

The write path supports the paper's *in-place refinement*: when a partition
is split, the pages it used to occupy are handed back to
:meth:`PagedFile.write_groups` for reuse, and only the overflow is appended
at the end of the file (Section 3.1.2 of the paper).  Most children of a
split are empty: a group without records is checked like any other but is
never encoded and never gets a run of its own (all share one empty
:class:`StoredRun`), so the write costs what the occupied groups cost.

Columnar surface
----------------
When the codec declares a structured ``dtype`` mirroring its byte layout
(spatial-object codecs do), the file additionally exposes an *array-native*
surface: :meth:`PagedFile.read_group_array` and :meth:`PagedFile.scan_arrays`
decode pages straight into NumPy structured arrays (``np.frombuffer``, no
per-record Python objects), and :meth:`PagedFile.append_group_array` /
:meth:`PagedFile.write_groups_array` encode straight from arrays.  Both
surfaces produce and consume byte-identical pages, so scalar and columnar
callers can be mixed freely on the same file.  Array reads are backed by the
buffer pool's decoded-array layer: a page whose bytes are cached is decoded
at most once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generic, Iterable, Iterator, Sequence, TypeVar

import numpy as np

from repro.storage.codec import (
    COMPRESSION_CODECS,
    RecordCodec,
    decode_page,
    decode_page_array,
    encode_page,
    paginate_array,
    paginate_bytes_compressed,
    records_per_page,
)
from repro.storage.disk import Disk

RecordT = TypeVar("RecordT")


@dataclass(frozen=True, slots=True)
class PageExtent:
    """A run of ``count`` consecutive pages starting at ``start``."""

    start: int
    count: int

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError("start must be non-negative")
        if self.count < 1:
            raise ValueError("count must be positive")

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


def _frozen_concat(parts: Sequence[np.ndarray], dtype: np.dtype) -> np.ndarray:
    """Concatenate decoded page arrays into one *read-only* array.

    Single-page groups come back as read-only ``np.frombuffer`` views
    straight from the decoded-array cache; multi-page groups concatenate
    into a fresh buffer, which NumPy makes writable by default.  Freezing
    that buffer too keeps the whole array surface immutable: the decoded
    layer's cached views are shared across queries, engines and epochs,
    and an in-place mutation anywhere must raise instead of silently
    corrupting everyone's view of the page.
    """
    if not parts:
        records = np.empty(0, dtype=dtype)
    elif len(parts) == 1:
        return parts[0]
    else:
        records = np.concatenate(parts)
    records.setflags(write=False)
    return records


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
        if compression is not None and compression not in COMPRESSION_CODECS:
            raise ValueError(
                f"unsupported compression {compression!r}; available codecs: "
                f"{', '.join(COMPRESSION_CODECS)}"
            )
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
        """Maximum number of records per *uncompressed* page.

        Compressed pages may pack more; this nominal capacity is what the
        reuse arithmetic of :meth:`write_groups` and :meth:`pages_needed`
        is based on.
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
        """How many pages a group of ``n_records`` records occupies."""
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

    def write_groups(
        self,
        groups: Sequence[Sequence[RecordT]],
        reuse: Sequence[PageExtent] = (),
    ) -> list[StoredRun]:
        """Write several groups, reusing the given page extents first.

        This implements the paper's in-place refinement: the pages of the
        partition being split are reused for its children, and any overflow
        is appended at the end of the file.  Groups never share pages, so
        each resulting :class:`StoredRun` can be read independently.
        """
        return self._write_encoded_groups(
            [(self._encode_group(records), len(records)) for records in groups], reuse
        )

    def write_groups_array(
        self,
        groups: Sequence[np.ndarray],
        reuse: Sequence[PageExtent] = (),
    ) -> list[StoredRun]:
        """Array-native :meth:`write_groups`: groups are structured arrays.

        Page bytes, allocation order and the resulting runs are identical
        to encoding the equivalent record objects through
        :meth:`write_groups`.
        """
        return self._write_encoded_groups(
            [(self._encode_group_array(records), len(records)) for records in groups],
            reuse,
        )

    def _append_pages(self, pages: list[bytes], n_records: int) -> StoredRun:
        self._ensure_created()
        if not n_records:
            return _EMPTY_RUN
        first = self._disk.append_run(self._name, pages)
        return StoredRun(extents=(PageExtent(first, len(pages)),), n_records=n_records)

    def _write_encoded_groups(
        self,
        encoded: Sequence[tuple[list[bytes], int]],
        reuse: Sequence[PageExtent],
    ) -> list[StoredRun]:
        """The shared write core: place encoded pages, reused extents first.

        Groups that hold no records arrive with no pages and share
        :data:`_EMPTY_RUN`, so a split into ``ppl`` children costs what its
        occupied children cost.  A group whose pages do not all fit in the
        reused extents remembers how many are missing; after one bulk
        append at the end of the file the missing pages are dealt back out
        in group order, and only then is each group's run built — once.
        """
        self._ensure_created()
        allocator = _PageAllocator(free_pages=[p for ext in reuse for p in ext.pages()])
        runs: list[StoredRun] = [_EMPTY_RUN] * len(encoded)
        pending_appends: list[bytes] = []
        placed: list[tuple[int, int, list[int], int]] = []  # (group, records, slots, missing)
        for index, (pages, n_records) in enumerate(encoded):
            if not n_records:
                continue
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
            placed.append((index, n_records, assigned, missing))
        cursor = self._disk.append_run(self._name, pending_appends) if pending_appends else 0
        for index, n_records, assigned, missing in placed:
            assigned.extend(range(cursor, cursor + missing))
            cursor += missing
            runs[index] = StoredRun(extents=tuple(coalesce_pages(assigned)), n_records=n_records)
        return runs

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #

    def read_group(self, run: StoredRun) -> list[RecordT]:
        """Read back one group of records."""
        records: list[RecordT] = []
        for extent in run.extents:
            for page_bytes in self._disk.read_run(self._name, extent.start, extent.count):
                records.extend(decode_page(self._codec, page_bytes))
        if len(records) < run.n_records:
            raise ValueError(
                f"group in {self._name!r} is corrupt: expected {run.n_records} "
                f"records, decoded {len(records)}"
            )
        return records[: run.n_records]

    def read_groups(self, runs: Iterable[StoredRun]) -> list[RecordT]:
        """Read several groups and concatenate their records."""
        records: list[RecordT] = []
        for run in runs:
            records.extend(self.read_group(run))
        return records

    def read_page_records(self, page_no: int) -> list[RecordT]:
        """Decode all records stored in one page.

        Index structures that address whole-page groups by page number
        (R-tree nodes, FLAT leaves) use this instead of carrying a
        :class:`StoredRun` around; the per-page record-count header makes
        the page self-describing.
        """
        page_bytes = self._disk.read_page(self._name, page_no)
        return decode_page(self._codec, page_bytes)

    def scan(self) -> Iterator[RecordT]:
        """Yield every record in the file in page order (one sequential pass)."""
        if not self.exists():
            return
        for page_bytes in self._disk.scan_pages(self._name):
            yield from decode_page(self._codec, page_bytes)

    # ------------------------------------------------------------------ #
    # Array-native reading
    # ------------------------------------------------------------------ #

    def read_group_array(self, run: StoredRun) -> np.ndarray:
        """Read one group as a structured array (zero-copy page decoding).

        Disk accesses and cost accounting are identical to
        :meth:`read_group`; only the bytes→records step changes.  Decoded
        pages are cached in the buffer pool's decoded-array layer, so a
        group whose pages are byte-cached is served without re-decoding.
        """
        dtype = self._require_dtype()
        parts: list[np.ndarray] = []
        for extent in run.extents:
            pages = self._disk.read_run(self._name, extent.start, extent.count)
            for offset, page_bytes in enumerate(pages):
                decoded = self._decode_page_cached(extent.start + offset, page_bytes)
                if len(decoded):
                    parts.append(decoded)
        records = _frozen_concat(parts, dtype)
        if len(records) < run.n_records:
            raise ValueError(
                f"group in {self._name!r} is corrupt: expected {run.n_records} "
                f"records, decoded {len(records)}"
            )
        return records[: run.n_records]

    def scan_arrays(self, chunk_pages: int = 256) -> Iterator[np.ndarray]:
        """Yield the file's records in columnar chunks (one sequential pass).

        Each yielded array concatenates up to ``chunk_pages`` pages; disk
        charging matches :meth:`scan` (sequential runs of the same size).
        """
        dtype = self._require_dtype()
        if not self.exists():
            return
        if chunk_pages < 1:
            raise ValueError("chunk_pages must be >= 1")
        total = self.num_pages()
        for start in range(0, total, chunk_pages):
            count = min(chunk_pages, total - start)
            parts = [
                self._decode_page_cached(start + offset, page_bytes)
                for offset, page_bytes in enumerate(
                    self._disk.read_run(self._name, start, count)
                )
            ]
            parts = [part for part in parts if len(part)]
            if not parts:
                continue
            yield _frozen_concat(parts, dtype)

    def _require_dtype(self) -> np.dtype:
        if self._dtype is None:
            raise TypeError(
                f"codec {type(self._codec).__name__} declares no structured dtype; "
                "the array surface is unavailable for this file"
            )
        return self._dtype

    def read_group_array_at(self, run: StoredRun, lookup) -> np.ndarray:
        """Snapshot variant of :meth:`read_group_array`.

        Pages are fetched through :meth:`Disk.read_run_at`, so any page
        overwritten or deleted since the snapshot was pinned is served
        from the snapshot's retained pre-image (``lookup``) instead of the
        live file.  Pre-image bytes are distinct objects from anything in
        the buffer pool, so the identity-checked decoded layer decodes
        them fresh and never caches them — a later live reader cannot be
        served a stale decoding.  When the overlay has nothing for the
        run, reads, charging and decoding are identical to
        :meth:`read_group_array`.
        """
        dtype = self._require_dtype()
        parts: list[np.ndarray] = []
        for extent in run.extents:
            pages = self._disk.read_run_at(self._name, extent.start, extent.count, lookup)
            for offset, page_bytes in enumerate(pages):
                decoded = self._decode_page_cached(extent.start + offset, page_bytes)
                if len(decoded):
                    parts.append(decoded)
        records = _frozen_concat(parts, dtype)
        if len(records) < run.n_records:
            raise ValueError(
                f"group in {self._name!r} is corrupt: expected {run.n_records} "
                f"records, decoded {len(records)}"
            )
        return records[: run.n_records]

    def _decode_page_cached(self, page_no: int, page_bytes: bytes) -> np.ndarray:
        pool = self._disk.buffer_pool
        decoded = pool.get_decoded(self._name, page_no, page_bytes)
        if decoded is None:
            decoded = decode_page_array(self._dtype, page_bytes)
            pool.put_decoded(self._name, page_no, page_bytes, decoded)
        return decoded

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
        dtype = self._require_dtype()
        if records.dtype != dtype:
            raise TypeError(
                f"array dtype {records.dtype} does not match the file's "
                f"record dtype {dtype}"
            )
        if not len(records):
            return []  # checked like any group, but there is nothing to encode
        if self._compression is not None:
            return paginate_bytes_compressed(
                records.tobytes(),
                self._codec.record_size,
                self._disk.page_size,
                self._compression,
            )
        return paginate_array(records, self._disk.page_size)
