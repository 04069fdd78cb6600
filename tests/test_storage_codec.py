"""Unit tests for record codecs and page packing."""

from __future__ import annotations

import pytest

from repro.data.spatial_object import SpatialObject, spatial_object_codec
from repro.geometry.box import Box
from repro.storage.codec import (
    FixedRecordCodec,
    decode_page,
    encode_page,
    paginate,
    records_per_page,
)


@pytest.fixture
def int_codec() -> FixedRecordCodec[int]:
    return FixedRecordCodec("<q", lambda value: (value,), lambda fields: fields[0])


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

    def test_paginate_fills_pages(self, int_codec):
        capacity = records_per_page(8, 256)
        records = list(range(capacity * 2 + 3))
        pages = paginate(int_codec, records, 256)
        assert len(pages) == 3
        decoded = [record for page in pages for record in decode_page(int_codec, page)]
        assert decoded == records

    def test_paginate_empty(self, int_codec):
        assert paginate(int_codec, [], 256) == []


class TestPageCompression:
    """Optional per-page compression behind the header's codec bits."""

    @pytest.fixture
    def objects(self):
        from tests.conftest import make_random_objects

        universe = Box((0.0, 0.0, 0.0), (100.0, 100.0, 100.0))
        return make_random_objects(universe, 400, dataset_id=0, seed=11)

    def test_compressed_pages_roundtrip(self, int_codec):
        from repro.storage.codec import (
            COMPRESSION_CODECS,
            decode_page,
            decode_page_array,
            paginate_bytes_compressed,
        )

        import numpy as np

        dtype = np.dtype([("value", "<i8")])
        records = list(range(500))
        data = b"".join(int_codec.pack(r) for r in records)
        for compression in COMPRESSION_CODECS:
            pages = paginate_bytes_compressed(
                data, int_codec.record_size, 256, compression
            )
            decoded = [r for page in pages for r in decode_page(int_codec, page)]
            assert decoded == records
            array_decoded = []
            for page in pages:
                array_decoded.extend(
                    int(v) for v in decode_page_array(dtype, page)["value"]
                )
            assert array_decoded == records

    def test_compression_packs_more_records_per_page(self, int_codec):
        from repro.storage.codec import paginate, paginate_bytes_compressed

        records = list(range(2000))  # small ints: highly compressible
        data = b"".join(int_codec.pack(r) for r in records)
        plain = paginate(int_codec, records, 256)
        compressed = paginate_bytes_compressed(data, int_codec.record_size, 256, "zlib")
        assert len(compressed) < len(plain)

    def test_uncompressed_pages_have_zero_codec_bits(self, int_codec):
        from repro.storage.codec import encode_page, page_header_fields

        page = encode_page(int_codec, [1, 2, 3], 256)
        count, codec_id = page_header_fields(page)
        assert (count, codec_id) == (3, 0)

    def test_incompressible_chunk_falls_back_to_plain_page(self, int_codec):
        import os as _os

        from repro.storage.codec import (
            decode_page,
            page_header_fields,
            paginate_bytes_compressed,
        )

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
        from repro.storage.cost_model import DiskModel
        from repro.storage.disk import Disk
        from repro.storage.pagedfile import PagedFile

        codec = spatial_object_codec(3)
        disk = Disk(model=DiskModel(), buffer_pages=32)
        plain = PagedFile(disk, "plain.dat", codec)
        packed = PagedFile(disk, "packed.dat", codec, compression="zlib")
        run_plain = plain.append_group(objects)
        run_packed = packed.append_group(objects)
        assert packed.read_group(run_packed) == plain.read_group(run_plain)
        assert packed.num_pages() < plain.num_pages()
        frozen = packed.read_group_array(run_packed)
        assert not frozen.flags.writeable

    def test_scalar_and_array_writes_produce_identical_bytes(self, objects):
        from repro.storage.cost_model import DiskModel
        from repro.storage.disk import Disk
        from repro.storage.pagedfile import PagedFile

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
        from repro.storage.cost_model import DiskModel
        from repro.storage.disk import Disk
        from repro.storage.pagedfile import PagedFile

        disk = Disk(model=DiskModel(), buffer_pages=4)
        with pytest.raises(ValueError, match="compression"):
            PagedFile(disk, "x.dat", spatial_object_codec(3), compression="lz99")

    def test_preferred_compression_is_available(self):
        from repro.storage.codec import COMPRESSION_CODECS, preferred_compression

        assert preferred_compression() in COMPRESSION_CODECS


class TestArraySurfaceChecksEveryGroup:
    """Skipping the encode of an empty group must not skip its checks."""

    @pytest.mark.parametrize("compression", [None, "zlib"])
    def test_wrong_dtype_raises_even_for_an_empty_group(self, compression):
        import numpy as np

        from repro.storage.cost_model import DiskModel
        from repro.storage.disk import Disk
        from repro.storage.pagedfile import PagedFile

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
