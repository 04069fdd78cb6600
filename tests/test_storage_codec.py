"""Unit tests for record codecs and page packing."""

from __future__ import annotations

import struct
import zlib

import numpy as np
import pytest

from repro.data.dataset import Dataset
from repro.data.spatial_object import SpatialObject, spatial_object_codec
from repro.data.suite import build_benchmark_suite
from repro.geometry.box import Box
from repro.storage.codec import (
    FixedRecordCodec,
    decode_page,
    decode_page_array,
    encode_page,
    page_checksum,
    page_header_fields,
    paginate_bytes_compressed,
    records_per_page,
)
from repro.storage.cost_model import DiskModel
from repro.storage.disk import Disk
from repro.storage.errors import CorruptPageError
from repro.storage.pagedfile import PageExtent, PagedFile, StoredRun


@pytest.fixture
def int_codec() -> FixedRecordCodec[int]:
    return FixedRecordCodec("<q", lambda value: (value,), lambda fields: fields[0])


def encode_chunks(codec, records: list, page_size: int) -> list[bytes]:
    """``records`` as plain pages: one ``encode_page`` per page-sized chunk."""
    capacity = records_per_page(codec.record_size, page_size)
    return [
        encode_page(codec, records[start : start + capacity], page_size)
        for start in range(0, len(records), capacity)
    ]


class TestFixedRecordCodec:
    def test_roundtrip(self, int_codec):
        assert int_codec.unpack(int_codec.pack(42)) == 42
        assert int_codec.record_size == 8

    def test_spatial_object_roundtrip(self):
        codec = spatial_object_codec(3)
        obj = SpatialObject(oid=7, dataset_id=3, box=Box((0.0, 1.0, 2.0), (3.0, 4.0, 5.0)))
        assert codec.unpack(codec.pack(obj)) == obj

    def test_spatial_object_record_size_3d(self):
        # 2 int64 + 6 float64 = 64 bytes -> 63 objects per 4 KB page.
        codec = spatial_object_codec(3)
        assert codec.record_size == 64
        assert records_per_page(codec.record_size, 4096) == 63

    def test_spatial_object_dimension_mismatch(self):
        codec = spatial_object_codec(2)
        obj = SpatialObject(oid=0, dataset_id=0, box=Box((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)))
        with pytest.raises(ValueError):
            codec.pack(obj)

    def test_codec_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            spatial_object_codec(0)


class TestPagePacking:
    def test_records_per_page_accounts_for_header_and_trailer(self, int_codec):
        # 4-byte count header + 4-byte checksum trailer: (84 - 4 - 4) / 8.
        assert records_per_page(int_codec.record_size, 84) == 9

    def test_record_too_large_for_page(self):
        with pytest.raises(ValueError):
            records_per_page(1000, 256)

    def test_encode_decode_roundtrip(self, int_codec):
        records = list(range(10))
        page = encode_page(int_codec, records, 256)
        assert len(page) <= 256
        assert decode_page(int_codec, page) == records

    def test_encode_partial_page(self, int_codec):
        page = encode_page(int_codec, [1, 2], 256)
        assert decode_page(int_codec, page) == [1, 2]

    def test_encode_overfull_page_rejected(self, int_codec):
        too_many = list(range(records_per_page(8, 256) + 1))
        with pytest.raises(ValueError):
            encode_page(int_codec, too_many, 256)

    def test_page_chunks_roundtrip(self, int_codec):
        capacity = records_per_page(8, 256)
        records = list(range(capacity * 2 + 3))
        pages = encode_chunks(int_codec, records, 256)
        assert len(pages) == 3
        assert [page_header_fields(page)[0] for page in pages] == [capacity, capacity, 3]
        decoded = [record for page in pages for record in decode_page(int_codec, page)]
        assert decoded == records

    def test_empty_page_roundtrip(self, int_codec):
        page = encode_page(int_codec, [], 256)
        assert page_header_fields(page) == (0, 0)
        assert decode_page(int_codec, page) == []


class TestPageCompression:
    """Optional per-page compression behind the header's codec bits."""

    @pytest.fixture
    def objects(self):
        from tests.conftest import make_random_objects

        universe = Box((0.0, 0.0, 0.0), (100.0, 100.0, 100.0))
        return make_random_objects(universe, 400, dataset_id=0, seed=11)

    def test_compressed_pages_roundtrip(self, int_codec):
        dtype = np.dtype([("value", "<i8")])
        records = list(range(500))
        data = b"".join(int_codec.pack(r) for r in records)
        pages = paginate_bytes_compressed(data, int_codec.record_size, 256, "zlib")
        decoded = [r for page in pages for r in decode_page(int_codec, page)]
        assert decoded == records
        array_decoded = []
        for page in pages:
            array_decoded.extend(int(v) for v in decode_page_array(dtype, page)["value"])
        assert array_decoded == records

    def test_a_zlib_page_holds_one_page_of_records(self, int_codec):
        records = list(range(2000))  # small ints: highly compressible
        data = b"".join(int_codec.pack(r) for r in records)
        plain = encode_chunks(int_codec, records, 256)
        compressed = paginate_bytes_compressed(data, int_codec.record_size, 256, "zlib")
        fields = [page_header_fields(page) for page in compressed]
        assert {codec_id for _, codec_id in fields} == {1}
        assert [count for count, _ in fields] == [page_header_fields(page)[0] for page in plain]

    def test_uncompressed_pages_have_zero_codec_bits(self, int_codec):
        page = encode_page(int_codec, [1, 2, 3], 256)
        count, codec_id = page_header_fields(page)
        assert (count, codec_id) == (3, 0)

    def test_incompressible_chunk_falls_back_to_plain_page(self, int_codec):
        import os as _os

        rng_bytes = _os.urandom(int_codec.record_size * 64)
        # Interpret random bytes as records: incompressible payloads must
        # land in plain uncompressed pages rather than oversized ones.
        pages = paginate_bytes_compressed(rng_bytes, int_codec.record_size, 256, "zlib")
        assert all(len(page) == 256 for page in pages)
        recovered = b"".join(
            int_codec.pack(r) for page in pages for r in decode_page(int_codec, page)
        )
        assert recovered == rng_bytes
        assert any(page_header_fields(page)[1] == 0 for page in pages)

    def test_paged_file_compression_end_to_end(self, objects):
        codec = spatial_object_codec(3)
        disk = Disk(model=DiskModel(), buffer_pages=32)
        plain = PagedFile(disk, "plain.dat", codec)
        packed = PagedFile(disk, "packed.dat", codec, compression="zlib")
        run_plain = plain.append_group(objects)
        run_packed = packed.append_group(objects)
        assert packed.read_group_array(run_packed).tobytes() == plain.read_group_array(run_plain).tobytes()
        assert packed.num_pages() == plain.num_pages()
        frozen = packed.read_group_array(run_packed)
        assert not frozen.flags.writeable

    def test_scalar_and_array_writes_produce_identical_bytes(self, objects):
        codec = spatial_object_codec(3)
        disk = Disk(model=DiskModel(), buffer_pages=32)
        scalar_file = PagedFile(disk, "scalar.dat", codec, compression="zlib")
        array_file = PagedFile(disk, "array.dat", codec, compression="zlib")
        run = scalar_file.append_group(objects)
        array_file.append_group_array(scalar_file.read_group_array(run))
        scalar_pages = [
            disk.backend.read("scalar.dat", p)
            for p in range(disk.backend.num_pages("scalar.dat"))
        ]
        array_pages = [
            disk.backend.read("array.dat", p)
            for p in range(disk.backend.num_pages("array.dat"))
        ]
        assert scalar_pages == array_pages

    def test_unknown_compression_rejected(self):
        disk = Disk(model=DiskModel(), buffer_pages=4)
        with pytest.raises(ValueError, match="compression"):
            PagedFile(disk, "x.dat", spatial_object_codec(3), compression="lz99")

    def test_zlib_is_the_only_codec(self, int_codec):
        import repro.storage.codec as codec_module

        disk = Disk(model=DiskModel(), buffer_pages=4)
        with pytest.raises(ValueError, match="compression"):
            PagedFile(disk, "x.dat", spatial_object_codec(3), compression="zstd")
        with pytest.raises(ValueError, match="compression"):
            build_benchmark_suite(n_datasets=1, objects_per_dataset=10, compression="zstd")
        with pytest.raises(ValueError, match="codec"):
            paginate_bytes_compressed(int_codec.pack(1), int_codec.record_size, 256, "zstd")
        assert not hasattr(codec_module, "preferred_compression")
        assert not hasattr(codec_module, "COMPRESSION_CODECS")

    def test_compressed_writes_call_zlib_once_per_page_over_one_page(self, monkeypatch):
        """Guard by counting: one ``zlib.compress`` per page written, each over
        at most one page's records, on generator data through both the
        scalar (ingest) and the array write surface."""
        sizes: list[int] = []
        compress = zlib.compress

        def counting(data, *args, **kwargs):
            sizes.append(len(data))
            return compress(data, *args, **kwargs)

        monkeypatch.setattr(zlib, "compress", counting)
        suite = build_benchmark_suite(
            n_datasets=2, objects_per_dataset=1500, seed=7, compression="zlib"
        )
        pages = sum(dataset.size_pages() for dataset in suite.datasets)
        assert 0 < len(sizes) <= pages
        array_file = PagedFile(
            suite.disk, "copy.dat", spatial_object_codec(3), compression="zlib"
        )
        for dataset in suite.datasets:
            array_file.append_group_array(np.concatenate(list(dataset.scan_arrays())))
        pages += array_file.num_pages()
        assert len(sizes) <= pages
        record_size = spatial_object_codec(3).record_size
        assert max(sizes) <= records_per_page(record_size, suite.disk.page_size) * record_size


def _framed_zlib_page(records: np.ndarray, codec_id: int = 1, page_size: int = 4096) -> bytes:
    """One compressed page framed by hand, the way the former packing
    encoder framed it: header word (count | compressed flag | codec id),
    length prefix, zlib payload, zero padding, CRC trailer."""
    payload = zlib.compress(records.tobytes(), 6)
    word = len(records) | 0x8000_0000 | (codec_id << 24)
    body = struct.pack("<II", word, len(payload)) + payload
    body += bytes(page_size - 4 - len(body))
    return body + struct.pack("<I", page_checksum(body))


class TestPackedPagesStayReadable:
    """Files the former packing encoder wrote — zlib pages carrying 2x and
    8x the plain capacity — read back through every read path."""

    @pytest.fixture
    def records(self):
        codec = spatial_object_codec(3)
        capacity = records_per_page(codec.record_size, 4096)
        records = np.zeros(10 * capacity, dtype=codec.dtype)
        records["oid"] = np.arange(len(records))
        records["lo"] = (np.arange(len(records)) % 5)[:, None]
        records["hi"] = records["lo"] + 1.0
        return records, capacity

    @pytest.fixture
    def pages(self, records):
        records, capacity = records
        split = 2 * capacity
        return [_framed_zlib_page(records[:split]), _framed_zlib_page(records[split:])]

    def test_page_decoders_read_packed_pages(self, records, pages):
        records, capacity = records
        codec = spatial_object_codec(3)
        assert [page_header_fields(page) for page in pages] == [
            (2 * capacity, 1),
            (8 * capacity, 1),
        ]
        decoded = [obj for page in pages for obj in decode_page(codec, page)]
        assert decoded == [codec.unpack(row.tobytes()) for row in records]
        arrays = [decode_page_array(codec.dtype, page) for page in pages]
        assert b"".join(array.tobytes() for array in arrays) == records.tobytes()

    def test_paged_file_and_dataset_open_read_packed_pages(self, records, pages):
        records, _ = records
        disk = Disk(model=DiskModel(), buffer_pages=8)
        name = "raw/legacy.dat"
        disk.create_file(name)
        disk.append_run(name, pages)
        file = PagedFile(disk, name, spatial_object_codec(3))
        run = StoredRun(extents=(PageExtent(0, 2),), n_records=len(records))
        assert file.read_group_array(run).tobytes() == records.tobytes()
        scanned = b"".join(chunk.tobytes() for chunk in file.scan_arrays())
        assert scanned == records.tobytes()
        universe = Box((0.0, 0.0, 0.0), (10.0, 10.0, 10.0))
        assert Dataset.open(disk, 0, "legacy", universe).n_objects == len(records)

    def test_an_unknown_codec_id_is_a_corrupt_page(self, records):
        records, capacity = records
        page = _framed_zlib_page(records[:capacity], codec_id=2)
        codec = spatial_object_codec(3)
        with pytest.raises(CorruptPageError, match="codec id 2"):
            decode_page(codec, page)
        with pytest.raises(CorruptPageError, match="codec id 2"):
            decode_page_array(codec.dtype, page)


class TestArraySurfaceChecksEveryGroup:
    """Skipping the encode of an empty group must not skip its checks."""

    @pytest.mark.parametrize("compression", [None, "zlib"])
    def test_wrong_dtype_raises_even_for_an_empty_group(self, compression):
        codec = spatial_object_codec(3)
        disk = Disk(model=DiskModel(), buffer_pages=4)
        file = PagedFile(disk, "typed.dat", codec, compression=compression)
        good = np.zeros(5, dtype=codec.dtype)
        good["hi"] = 1.0
        wrong_and_empty = np.empty(0, dtype=spatial_object_codec(2).dtype)
        with pytest.raises(TypeError, match="dtype"):
            file.write_groups_array([good, wrong_and_empty])
        with pytest.raises(TypeError, match="dtype"):
            file.append_group_array(wrong_and_empty)
        # Rejected before anything was written: no page reached the file.
        assert file.num_pages() == 0
        runs = file.write_groups_array([good[:0], good, good[:0]])
        assert [run.n_records for run in runs] == [0, 5, 0]
        assert runs[0] is runs[2] and runs[0].extents == ()
        assert file.read_group_array(runs[1]).tobytes() == good.tobytes()
