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

Two decoding surfaces share this page format:

* the *scalar* surface (:func:`encode_page` / :func:`decode_page`) packs and
  unpacks one Python record object at a time through a
  :class:`RecordCodec`;
* the *array* surface (:func:`encode_page_array` / :func:`decode_page_array`)
  moves whole pages between bytes and NumPy structured arrays in one
  ``np.frombuffer`` / ``tobytes`` call, without materialising per-record
  Python objects.  A codec that exposes a :attr:`RecordCodec.dtype` whose
  layout mirrors its ``struct`` format byte-for-byte guarantees both
  surfaces read and write identical bytes.

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

The preferred codec is ``zstd`` when an implementation is importable;
otherwise the stdlib ``zlib`` is used (always available, keeps the
reproduction dependency-free).  Decoding always honours the codec id
recorded in the page, independent of what the writer preferred.
"""

from __future__ import annotations

import struct
import zlib
from typing import Generic, Iterable, Protocol, Sequence, TypeVar

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

_CODEC_ZLIB = 1
_CODEC_ZSTD = 2

try:  # pragma: no cover - zstd wheel not present on this image
    import zstandard as _zstd_mod
except ImportError:  # pragma: no cover - the default path
    try:
        from compression import zstd as _zstd_mod  # Python 3.14+ stdlib
    except ImportError:
        _zstd_mod = None

#: Compression codec names accepted by the encode surfaces.
COMPRESSION_CODECS = ("zlib",) + (("zstd",) if _zstd_mod is not None else ())


def preferred_compression() -> str:
    """The best compression codec available on this interpreter."""
    return "zstd" if _zstd_mod is not None else "zlib"


def _codec_id(name: str) -> int:
    if name == "zlib":
        return _CODEC_ZLIB
    if name == "zstd":
        if _zstd_mod is None:
            raise ValueError("zstd compression requested but no zstd module is available")
        return _CODEC_ZSTD
    raise ValueError(f"unknown compression codec {name!r} (expected 'zlib' or 'zstd')")


def _compress(codec_id: int, data: bytes) -> bytes:
    if codec_id == _CODEC_ZLIB:
        return zlib.compress(data, 6)
    if hasattr(_zstd_mod, "ZstdCompressor"):  # pragma: no cover - zstandard wheel
        return _zstd_mod.ZstdCompressor().compress(data)
    return _zstd_mod.compress(data)  # pragma: no cover - stdlib compression.zstd


def _decompress(codec_id: int, data: bytes) -> bytes:
    if codec_id == _CODEC_ZLIB:
        return zlib.decompress(data)
    if codec_id == _CODEC_ZSTD:  # pragma: no cover - zstd wheel not present here
        if _zstd_mod is None:
            raise CorruptPageError(
                "page is zstd-compressed but no zstd module is available"
            )
        if hasattr(_zstd_mod, "ZstdDecompressor"):
            return _zstd_mod.ZstdDecompressor().decompress(data)
        return _zstd_mod.decompress(data)
    raise CorruptPageError(f"page header carries unknown compression codec id {codec_id}")

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


def _seal_compressed_page(
    raw: bytes, count: int, codec_id: int, page_size: int
) -> bytes | None:
    """Try to pack ``count`` records (``raw`` bytes) into one compressed page.

    Returns the sealed page, or ``None`` when the compressed payload does
    not fit in the page budget (incompressible data).
    """
    budget = page_size - PAGE_HEADER.size - _COMPRESSED_LEN.size - PAGE_TRAILER.size
    compressed = _compress(codec_id, raw)
    if len(compressed) > budget:
        return None
    word = count | PAGE_FLAG_COMPRESSED | (codec_id << _CODEC_ID_SHIFT)
    payload = bytearray(PAGE_HEADER.pack(word))
    payload.extend(_COMPRESSED_LEN.pack(len(compressed)))
    payload.extend(compressed)
    return _seal_page(payload, page_size)


def paginate_bytes_compressed(
    data: bytes, record_size: int, page_size: int, compression: str
) -> list[bytes]:
    """Split a packed record payload into compressed pages.

    ``data`` is the concatenation of fixed-size record encodings (what the
    scalar codec packs, or ``records.tobytes()`` from the array surface —
    both produce identical bytes).  Each page greedily packs the largest
    record count, from a deterministic ladder of multiples of the
    uncompressed page capacity, whose compressed payload fits the page;
    when even one capacity's worth of records does not compress into the
    budget (incompressible data), that chunk is stored as a plain
    uncompressed page — the per-page flag bits let readers mix freely.
    The packing is a pure function of the input bytes, so every clone of a
    dataset produces byte-identical files.
    """
    codec_id = _codec_id(compression)
    capacity = records_per_page(record_size, page_size)
    total = len(data) // record_size
    if len(data) != total * record_size:
        raise ValueError(
            f"payload of {len(data)} bytes is not a whole number of "
            f"{record_size}-byte records"
        )
    pages: list[bytes] = []
    position = 0
    while position < total:
        remaining = total - position
        taken = None
        for factor in (8, 4, 2, 1):
            count = min(remaining, capacity * factor)
            if count > PAGE_COUNT_MASK:
                continue
            start = position * record_size
            raw = data[start : start + count * record_size]
            page = _seal_compressed_page(raw, count, codec_id, page_size)
            if page is not None:
                taken = (count, page)
                break
            if count <= capacity:
                break  # smaller factors repeat the same count
        if taken is None:
            count = min(remaining, capacity)
            start = position * record_size
            payload = bytearray(PAGE_HEADER.pack(count))
            payload.extend(data[start : start + count * record_size])
            pages.append(_seal_page(payload, page_size))
        else:
            count, page = taken
            pages.append(page)
        position += count
    return pages


def paginate(
    codec: RecordCodec[RecordT], records: Iterable[RecordT], page_size: int
) -> list[bytes]:
    """Split a record stream into encoded pages (all full except possibly the last)."""
    capacity = records_per_page(codec.record_size, page_size)
    pages: list[bytes] = []
    batch: list[RecordT] = []
    for record in records:
        batch.append(record)
        if len(batch) == capacity:
            pages.append(encode_page(codec, batch, page_size))
            batch = []
    if batch:
        pages.append(encode_page(codec, batch, page_size))
    return pages
