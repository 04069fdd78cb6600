"""The columnar storage surface: array round-trips, the decoded-array
cache, and the buffer-pool counters exposed through ``QueryReport.cache``.

The columnar engine's answers, reports, adaptive state, on-disk bytes and
simulated I/O are held to the per-record reference
(:class:`tests.scalar_reference.ScalarOdyssey`) by the engine oracle,
``tests/test_engine_fuzz.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.odyssey import SpaceOdyssey
from repro.data.columnar import DecodedGroup
from repro.data.spatial_object import spatial_object_codec
from repro.data.suite import build_benchmark_suite
from repro.geometry.box import Box
from repro.storage.cost_model import DiskModel
from repro.storage.disk import Disk
from repro.storage.pagedfile import PagedFile

from tests.conftest import make_random_objects
from tests.scalar_reference import read_group


# --------------------------------------------------------------------------- #
# The columnar storage surface
# --------------------------------------------------------------------------- #


@pytest.fixture
def object_file():
    disk = Disk(model=DiskModel(), buffer_pages=64)
    return PagedFile(disk, "objs.dat", spatial_object_codec(3))


def _objects(count, seed=1, dataset_id=4):
    universe = Box((0.0, 0.0, 0.0), (100.0, 100.0, 100.0))
    return make_random_objects(universe, count, dataset_id=dataset_id, seed=seed)


class TestArraySurface:
    def test_read_group_array_matches_scalar_read(self, object_file):
        objects = _objects(200)
        run = object_file.append_group(objects)
        records = object_file.read_group_array(run)
        codec = object_file.codec
        assert [codec.pack(o) for o in objects] == [
            records[i : i + 1].tobytes() for i in range(len(records))
        ]

    def test_write_groups_array_bytes_match_scalar_write(self, object_file):
        objects = _objects(150)
        codec = spatial_object_codec(3)
        disk_a = Disk(model=DiskModel(), buffer_pages=0)
        disk_b = Disk(model=DiskModel(), buffer_pages=0)
        scalar_file = PagedFile(disk_a, "f.dat", codec)
        array_file = PagedFile(disk_b, "f.dat", codec)
        groups = [objects[:70], [], objects[70:]]
        scalar_runs = [scalar_file.append_group(group) for group in groups]
        source = object_file
        run = source.append_group(objects)
        records = source.read_group_array(run)
        array_runs = array_file.write_groups_array(
            [records[:70], records[:0], records[70:]]
        )
        assert scalar_runs == array_runs
        pages_a = [disk_a.backend.read("f.dat", p) for p in range(disk_a.num_pages("f.dat"))]
        pages_b = [disk_b.backend.read("f.dat", p) for p in range(disk_b.num_pages("f.dat"))]
        assert pages_a == pages_b

    def test_scan_arrays_round_trip(self, object_file):
        objects = _objects(300)
        object_file.append_group(objects[:120])
        object_file.append_group(objects[120:])
        total = sum(len(chunk) for chunk in object_file.scan_arrays(chunk_pages=2))
        assert total == 300

    def test_array_surface_requires_dtype(self):
        from repro.storage.codec import FixedRecordCodec

        disk = Disk(model=DiskModel(), buffer_pages=0)
        plain = PagedFile(
            disk, "ints.dat", FixedRecordCodec("<q", lambda v: (v,), lambda f: f[0])
        )
        run = plain.append_group([1, 2, 3])
        with pytest.raises(TypeError):
            plain.read_group_array(run)

    def test_append_group_array_round_trip(self, object_file):
        objects = _objects(80)
        run = object_file.append_group(objects)
        records = object_file.read_group_array(run)
        run2 = object_file.append_group_array(records)
        assert read_group(object_file, run2) == objects


class TestDecodedCache:
    def test_second_read_hits_decoded_layer(self, object_file):
        run = object_file.append_group(_objects(100))
        pool = object_file.disk.buffer_pool
        object_file.read_group_array(run)
        before = pool.counters()
        object_file.read_group_array(run)
        delta = pool.counters().delta_since(before)
        assert delta.decoded_hits > 0
        assert delta.decoded_misses == 0

    def test_page_write_invalidates_decoded_entry(self, object_file):
        objects = _objects(100)
        run = object_file.append_group(objects)
        first = object_file.read_group_array(run)
        # Rewrite the group in place: same pages, different record order.
        reversed_run = object_file.write_groups_array([first[::-1]], reuse=run.extents)[0]
        again = object_file.read_group_array(reversed_run)
        assert again["oid"].tolist() == list(reversed(first["oid"].tolist()))

    def test_capacity_zero_disables_decoded_layer(self):
        disk = Disk(model=DiskModel(), buffer_pages=0)
        file = PagedFile(disk, "objs.dat", spatial_object_codec(3))
        run = file.append_group(_objects(50))
        file.read_group_array(run)
        file.read_group_array(run)
        assert disk.buffer_pool.decoded_hits == 0

    def test_clear_drops_decoded_entries(self, object_file):
        run = object_file.append_group(_objects(60))
        pool = object_file.disk.buffer_pool
        object_file.read_group_array(run)
        object_file.disk.clear_cache()
        before = pool.counters()
        object_file.read_group_array(run)
        delta = pool.counters().delta_since(before)
        assert delta.decoded_hits == 0 and delta.decoded_misses > 0


class TestQueryReportCacheCounters:
    @pytest.fixture
    def engine(self):
        suite = build_benchmark_suite(
            n_datasets=2, objects_per_dataset=800, seed=3, buffer_pages=512, model=DiskModel()
        )
        window = Box.cube(suite.universe.center, suite.universe.side(0) * 0.2)
        return SpaceOdyssey(suite.catalog), window.clamp(suite.universe)

    def test_sequential_report_exposes_cache_counters(self, engine):
        odyssey, window = engine
        odyssey.query(window, [0, 1])
        cold = odyssey.last_report.cache
        assert cold is not None
        assert cold.hits + cold.misses > 0, "the query read pages"
        assert cold.decoded_misses > 0, "first decoding of each page is a miss"
        odyssey.query(window, [0, 1])
        warm = odyssey.last_report.cache
        assert warm.hits > 0, "second query should hit the byte cache"
        assert warm.decoded_hits > 0, "second query should hit the decoded layer"

    def test_batch_reports_carry_cache_counters(self, engine):
        odyssey, window = engine
        result = odyssey.query_batch([(window, (0, 1))] * 3)
        assert all(report.cache is not None for report in result.reports)
        assert sum(report.cache.hits + report.cache.misses for report in result.reports) > 0


class TestDecodedGroup:
    def test_from_records_and_materialize(self, object_file):
        objects = _objects(40)
        run = object_file.append_group(objects)
        group = DecodedGroup.from_records(object_file.read_group_array(run), 3)
        assert group.n_records == 40
        everything = group.materialize(np.ones(40, dtype=bool))
        assert everything == objects
        nothing = group.materialize(np.zeros(40, dtype=bool))
        assert nothing == []
