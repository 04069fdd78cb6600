"""Record codecs: fixed-size records packed into pages.

All files in the reproduction (raw dataset files, index partitions, R-tree
nodes, merge files) store fixed-size binary records.  A codec knows how to
turn a record into bytes and back; :class:`~repro.storage.pagedfile.PagedFile`
uses it to pack as many records as fit into each 4 KB page.

Each page starts with a 4-byte little-endian record count so that partially
filled pages decode unambiguously, and ends with a 4-byte checksum trailer
over everything before it, so torn writes and bit-flips are detected at
decode time (:class:`~repro.storage.errors.CorruptPageError`) instead of
silently yielding garbage records.  Encoded pages are always exactly
``page_size`` bytes — header, records, zero padding, trailer — so the
checksum covers the padding too and a partial overwrite of any region of
the page is caught.  The checksum is CRC-32C when the optional ``crc32c``
module is available, falling back to ``zlib.crc32`` (both C-speed; the
fallback keeps the reproduction dependency-free).

Every file in the library is read through the *array* surface
(:func:`decode_page_array`, :func:`encode_page_array`,
:func:`paginate_array`): whole pages move between bytes and NumPy
structured arrays in one ``np.frombuffer`` / ``tobytes`` call, without
materialising per-record Python objects.  A codec exposes the record
``dtype`` (:attr:`RecordCodec.dtype`); :class:`ArrayCodec` is a codec that
is nothing more.

The per-record functions over the same page format stay for writers that
hold record objects and for the per-record reference models of the test
suite: :func:`encode_page` packs one page through a
:class:`FixedRecordCodec` (``PagedFile.append_group`` uses it), and
:func:`decode_page` unpacks one.  A codec whose ``dtype`` mirrors its
``struct`` format byte for byte guarantees both read and write identical
bytes.

Optional page compression
-------------------------
A page may store its record payload compressed.  The negotiation lives in
the page header itself: the uint32 that historically held just the record
count keeps the count in its low 24 bits, and the high bits carry a
*compressed* flag plus a compression-codec id.  Pages written before this
scheme carry zeroed flag bits (counts never came close to 2**24), so old
pages decode unchanged and compressed and uncompressed pages mix freely in
one file.  A compressed page is laid out as ``header | compressed-length |
compressed record bytes | zero padding | checksum trailer`` — still exactly
``page_size`` bytes, and the trailer checksum covers the compressed payload
and padding, so :func:`verify_page` and fault detection are unchanged.

The one codec is the stdlib ``zlib`` (codec id 1), and a zlib page holds
at most the records a plain page holds.  Packing several pages' worth of
records into one compressed page is gone: a page costs one positioning
operation whatever it holds, so compression could only save pages by
packing, and on the neuroscience data a page compresses by ≈1.3x, short
of the 2x the smallest packing needs.  Decoding still honours whatever
the header says — a zlib page carrying more than one page's records
(written by the former packing encoder) reads like any other, and an
unknown codec id raises :class:`~repro.storage.errors.CorruptPageError`.
"""

from __future__ import annotations

import struct
import zlib
from typing import Generic, Protocol, Sequence, TypeVar

import numpy as np

from repro.storage.errors import CorruptPageError

RecordT = TypeVar("RecordT")

#: Per-page header: record count (low 24 bits) + compression flags (high bits).
PAGE_HEADER = struct.Struct("<I")

#: Per-page trailer: checksum of everything before it (uint32, little endian).
PAGE_TRAILER = struct.Struct("<I")

#: Low bits of the header word that hold the record count.
PAGE_COUNT_MASK = 0x00FF_FFFF

#: Header flag: the page's record payload is compressed.
PAGE_FLAG_COMPRESSED = 0x8000_0000

#: Header bits (shifted) identifying the compression codec of the page.
_CODEC_ID_SHIFT = 24
_CODEC_ID_MASK = 0x7F00_0000

#: Length prefix of a compressed payload (uint32, little endian).
_COMPRESSED_LEN = struct.Struct("<I")

#: Codec id of a zlib page, the one codec pages are written with.
_CODEC_ZLIB = 1


def _decompress(codec_id: int, data: bytes) -> bytes:
    if codec_id != _CODEC_ZLIB:
        raise CorruptPageError(
            f"page header carries unknown compression codec id {codec_id}"
        )
    return zlib.decompress(data)


try:  # pragma: no cover - exercised only where the wheel is installed
    from crc32c import crc32c as _checksum
except ImportError:  # pragma: no cover - the default path on this image
    _checksum = zlib.crc32


def page_checksum(data: bytes | memoryview) -> int:
    """The 32-bit checksum stored in a page's trailer (CRC-32C or CRC-32)."""
    return _checksum(data) & 0xFFFFFFFF


def verify_page(data: bytes) -> None:
    """Validate one encoded page's checksum trailer.

    Raises :class:`~repro.storage.errors.CorruptPageError` when the page
    is too short to carry header + trailer or the trailer does not match
    the checksum of the preceding bytes — the signature of a torn write
    or a bit-flip.
    """
    if len(data) < PAGE_HEADER.size + PAGE_TRAILER.size:
        raise CorruptPageError(
            f"page of {len(data)} bytes is too short for header and checksum trailer"
        )
    view = memoryview(data)
    (stored,) = PAGE_TRAILER.unpack_from(data, len(data) - PAGE_TRAILER.size)
    actual = page_checksum(view[: len(data) - PAGE_TRAILER.size])
    if stored != actual:
        raise CorruptPageError(
            f"page checksum mismatch: trailer {stored:#010x}, computed {actual:#010x}"
        )


def page_intact(data: bytes) -> bool:
    """Whether one encoded page passes checksum validation."""
    try:
        verify_page(data)
    except CorruptPageError:
        return False
    return True


def _seal_page(payload: bytearray, page_size: int) -> bytes:
    """Pad a header+records payload to the page size and append the trailer."""
    payload.extend(bytes(page_size - PAGE_TRAILER.size - len(payload)))
    payload.extend(PAGE_TRAILER.pack(page_checksum(payload)))
    return bytes(payload)


class RecordCodec(Protocol[RecordT]):
    """Binary (de)serialisation of one record type with a fixed size."""

    @property
    def record_size(self) -> int:
        """Size of one encoded record in bytes."""
        ...

    @property
    def dtype(self) -> "np.dtype | None":
        """A structured dtype mirroring the byte layout, or ``None``.

        When present, pages of this record type can be decoded and encoded
        through the array surface (:func:`decode_page_array`), skipping
        per-record Python objects entirely.
        """
        ...

    def pack(self, record: RecordT) -> bytes:
        """Encode one record into exactly ``record_size`` bytes."""
        ...

    def unpack(self, data: bytes) -> RecordT:
        """Decode one record from exactly ``record_size`` bytes."""
        ...


class FixedRecordCodec(Generic[RecordT]):
    """A codec built from a :mod:`struct` format and field (un)binding functions.

    Parameters
    ----------
    fmt:
        ``struct`` format string (little-endian recommended).
    to_fields:
        Maps a record to the tuple of values packed by ``fmt``.
    from_fields:
        Maps an unpacked tuple back to a record.
    dtype:
        Optional NumPy structured dtype whose byte layout matches ``fmt``
        exactly; it unlocks the zero-copy array surface of
        :class:`~repro.storage.pagedfile.PagedFile`.
    """

    def __init__(self, fmt: str, to_fields, from_fields, dtype: np.dtype | None = None) -> None:
        self._struct = struct.Struct(fmt)
        self._to_fields = to_fields
        self._from_fields = from_fields
        if dtype is not None and dtype.itemsize != self._struct.size:
            raise ValueError(
                f"dtype itemsize {dtype.itemsize} does not match the "
                f"{self._struct.size}-byte struct format {fmt!r}"
            )
        self._dtype = dtype

    @property
    def record_size(self) -> int:
        """Size of one encoded record in bytes."""
        return self._struct.size

    @property
    def dtype(self) -> np.dtype | None:
        """The structured dtype mirroring the byte layout (if declared)."""
        return self._dtype

    def pack(self, record: RecordT) -> bytes:
        """Encode one record."""
        return self._struct.pack(*self._to_fields(record))

    def unpack(self, data: bytes) -> RecordT:
        """Decode one record."""
        return self._from_fields(self._struct.unpack(data))


class ArrayCodec:
    """The codec of a file written and read only through the array surface.

    It declares the record ``dtype`` (and so the record size) and nothing
    else: the file's pages go through :func:`paginate_array` and
    :func:`decode_page_array`, never through a per-record ``pack`` or
    ``unpack``.  The baselines' node and adjacency files use it.
    """

    def __init__(self, dtype: np.dtype) -> None:
        self.dtype = dtype
        self.record_size = dtype.itemsize


def records_per_page(record_size: int, page_size: int) -> int:
    """How many records of ``record_size`` bytes fit in one page.

    The header and the checksum trailer both come out of the page budget.
    """
    capacity = (page_size - PAGE_HEADER.size - PAGE_TRAILER.size) // record_size
    if capacity < 1:
        raise ValueError(
            f"a record of {record_size} bytes does not fit in a {page_size}-byte page"
        )
    return capacity


def encode_page(
    codec: RecordCodec[RecordT], records: Sequence[RecordT], page_size: int
) -> bytes:
    """Pack up to one page worth of records into exactly ``page_size`` bytes."""
    capacity = records_per_page(codec.record_size, page_size)
    if len(records) > capacity:
        raise ValueError(f"{len(records)} records exceed page capacity {capacity}")
    payload = bytearray(PAGE_HEADER.pack(len(records)))
    for record in records:
        payload.extend(codec.pack(record))
    return _seal_page(payload, page_size)


def page_header_fields(data) -> tuple[int, int]:
    """Split one page's header word into ``(record count, codec id)``.

    ``codec id`` is 0 for uncompressed pages (including every page written
    before compression existed — their flag bits are zero).
    """
    (word,) = PAGE_HEADER.unpack_from(data, 0)
    count = word & PAGE_COUNT_MASK
    if not word & PAGE_FLAG_COMPRESSED:
        return count, 0
    return count, (word & _CODEC_ID_MASK) >> _CODEC_ID_SHIFT


def _compressed_payload(data, count: int, codec_id: int, record_size: int) -> bytes:
    """Decompress the record payload of one compressed page (verified)."""
    (length,) = _COMPRESSED_LEN.unpack_from(data, PAGE_HEADER.size)
    start = PAGE_HEADER.size + _COMPRESSED_LEN.size
    if start + length > len(data) - PAGE_TRAILER.size:
        raise CorruptPageError(
            f"compressed payload of {length} bytes overruns the page"
        )
    raw = _decompress(codec_id, bytes(data[start : start + length]))
    if len(raw) != count * record_size:
        raise CorruptPageError(
            f"compressed page decodes to {len(raw)} bytes, header claims "
            f"{count} records of {record_size} bytes"
        )
    return raw


def decode_page(codec: RecordCodec[RecordT], data: bytes) -> list[RecordT]:
    """Unpack all records stored in one page (checksum verified first)."""
    verify_page(data)
    count, codec_id = page_header_fields(data)
    size = codec.record_size
    if codec_id:
        data = _compressed_payload(data, count, codec_id, size)
        offset = 0
    else:
        offset = PAGE_HEADER.size
    records: list[RecordT] = []
    for _ in range(count):
        records.append(codec.unpack(data[offset : offset + size]))
        offset += size
    return records


def decode_page_array(dtype: np.dtype, data) -> np.ndarray:
    """Decode one page into a structured array without copying the payload.

    The returned array is a read-only ``np.frombuffer`` view over the page
    bytes: decoding is one checksum pass plus pointer arithmetic, no
    matter how many records the page holds (compressed pages additionally
    pay one decompression pass into fresh immutable bytes).  Values are
    bit-identical to what :func:`decode_page` produces through the scalar
    codec.  ``data`` may be any buffer (bytes, a ``bytearray`` or a
    ``memoryview``); the result is always read-only.
    """
    verify_page(data)
    count, codec_id = page_header_fields(data)
    if codec_id:
        raw = _compressed_payload(data, count, codec_id, dtype.itemsize)
        return np.frombuffer(raw, dtype=dtype, count=count)
    available = (len(data) - PAGE_HEADER.size - PAGE_TRAILER.size) // dtype.itemsize
    if count > available:
        raise CorruptPageError(
            f"page header claims {count} records but only {available} fit in the page"
        )
    decoded = np.frombuffer(data, dtype=dtype, count=count, offset=PAGE_HEADER.size)
    if decoded.flags.writeable:
        # bytes-backed views are born read-only; views over writable
        # buffers (a bytearray, a writable memoryview) must be frozen too so
        # no caller can corrupt the shared page image in place.
        decoded.setflags(write=False)
    return decoded


def encode_page_array(records: np.ndarray, page_size: int) -> bytes:
    """Pack up to one page worth of structured records into page bytes.

    Byte-identical to :func:`encode_page` over the equivalent record
    objects, provided the array's dtype mirrors the codec layout.
    """
    capacity = records_per_page(records.dtype.itemsize, page_size)
    if len(records) > capacity:
        raise ValueError(f"{len(records)} records exceed page capacity {capacity}")
    payload = bytearray(PAGE_HEADER.pack(len(records)))
    payload.extend(records.tobytes())
    return _seal_page(payload, page_size)


def paginate_array(records: np.ndarray, page_size: int) -> list[bytes]:
    """Split a structured array into encoded pages (all full except the last)."""
    capacity = records_per_page(records.dtype.itemsize, page_size)
    return [
        encode_page_array(records[start : start + capacity], page_size)
        for start in range(0, len(records), capacity)
    ]


def paginate_bytes_compressed(
    data: bytes, record_size: int, page_size: int, compression: str
) -> list[bytes]:
    """Split a packed record payload into zlib pages, one page's records each.

    ``data`` is the concatenation of fixed-size record encodings (what the
    scalar codec packs, or ``records.tobytes()`` from the array surface —
    both produce identical bytes).  It is cut into chunks of the plain page
    capacity and each chunk is compressed once: it becomes a zlib page when
    the compressed payload fits the page budget, otherwise the plain page
    :func:`encode_page` would write — the per-page flag bits let readers
    mix both.  A zlib page thus holds exactly the records a plain page
    would, so compression never changes how many pages a group occupies.
    The pages are a pure function of the input bytes, so every clone of a
    dataset produces byte-identical files.
    """
    if compression != "zlib":
        raise ValueError(f"unknown compression codec {compression!r} (expected 'zlib')")
    if len(data) % record_size:
        raise ValueError(
            f"payload of {len(data)} bytes is not a whole number of "
            f"{record_size}-byte records"
        )
    chunk = records_per_page(record_size, page_size) * record_size
    budget = page_size - PAGE_HEADER.size - _COMPRESSED_LEN.size - PAGE_TRAILER.size
    flags = PAGE_FLAG_COMPRESSED | (_CODEC_ZLIB << _CODEC_ID_SHIFT)
    pages: list[bytes] = []
    for start in range(0, len(data), chunk):
        raw = data[start : start + chunk]
        count = len(raw) // record_size
        compressed = zlib.compress(raw, 6)
        if len(compressed) > budget:
            payload = bytearray(PAGE_HEADER.pack(count))
            payload.extend(raw)
        else:
            payload = bytearray(PAGE_HEADER.pack(count | flags))
            payload.extend(_COMPRESSED_LEN.pack(len(compressed)))
            payload.extend(compressed)
        pages.append(_seal_page(payload, page_size))
    return pages

