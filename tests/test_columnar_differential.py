"""Differential oracle: the columnar sequential engine must be
indistinguishable from the seed scalar path.

The original per-record implementation lives on as the test-side reference
engine (:class:`tests.scalar_reference.ScalarOdyssey`).  For randomized
mixed workloads, two engines over byte-identical forks of the same suite
execute the same query sequence — the reference and the engine — and every
observable must agree:

* byte-identical hits per query *in the same order* (the columnar filter
  materialises hits in record order, exactly like the scalar loop);
* identical ``QueryReport``\\ s field by field (including
  ``objects_examined`` — unlike batching, the sequential columnar path
  reads exactly the partitions the scalar path reads);
* identical post-run adaptive state and byte-identical on-disk files
  (vectorized first-touch initialisation, in-place refinement and merge
  copies must place every record on the same page);
* identical simulated I/O accounting (the decoded-array cache is a pure
  CPU cache and must never change which pages are read or charged).

The second half of the file unit-tests the columnar storage surface
itself: array round-trips, the decoded-array cache, and the buffer-pool
counters exposed through ``QueryReport.cache``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.runner import generate_workload
from repro.core.config import OdysseyConfig
from repro.core.odyssey import SpaceOdyssey
from repro.data.columnar import DecodedGroup
from repro.data.spatial_object import spatial_object_codec
from repro.data.suite import BenchmarkSuite, build_benchmark_suite
from repro.storage.cost_model import DiskModel
from repro.storage.disk import Disk
from repro.storage.pagedfile import PagedFile

from tests.conftest import make_random_objects
from tests.scalar_reference import ScalarOdyssey, read_group
from tests.test_batch_differential import (
    REPORT_FIELDS,
    adaptive_state,
    disk_files,
    packed_hits,
)


def run_differential(
    suite: BenchmarkSuite,
    workload,
    config: OdysseyConfig,
) -> SpaceOdyssey:
    """Execute the workload on the reference and the engine; assert total
    agreement; return the engine."""
    scalar = ScalarOdyssey(suite.fork().catalog, config)
    columnar = SpaceOdyssey(suite.fork().catalog, config)
    for index, query in enumerate(workload):
        expected = scalar.query(query.box, query.dataset_ids)
        actual = columnar.query(query.box, query.dataset_ids)
        assert actual == expected, f"hits differ for query {index} (order included)"
        assert packed_hits(columnar, actual) == packed_hits(scalar, expected)
        for field in REPORT_FIELDS + ("objects_examined",):
            assert getattr(columnar.last_report, field) == getattr(
                scalar.last_report, field
            ), f"report field {field!r} differs for query {index}"
    assert adaptive_state(columnar) == adaptive_state(scalar)
    assert disk_files(columnar) == disk_files(scalar)
    for attribute in ("pages_read", "pages_written", "seeks", "cache_hits"):
        assert getattr(columnar.disk.stats, attribute) == getattr(
            scalar.disk.stats, attribute
        ), f"simulated I/O differs: {attribute}"
    return columnar


@pytest.mark.parametrize("seed", [101, 202, 303])
def test_uniform_workload_matches_scalar(suite, seed):
    workload = generate_workload(
        suite.universe,
        suite.catalog.dataset_ids(),
        30,
        seed=seed,
        datasets_per_query=3,
        # Windows large enough to revisit populated leaves, so keys turn hot.
        volume_fraction=5e-3,
        ids_distribution="zipf",
    )
    config = OdysseyConfig(merge_threshold=1)
    engine = run_differential(suite, workload, config)
    assert engine.summary().merges_performed > 0, "the workload never merged"


def test_clustered_workload_with_heavy_merging_matches_scalar(suite):
    workload = generate_workload(
        suite.universe,
        suite.catalog.dataset_ids(),
        40,
        seed=77,
        datasets_per_query=3,
        volume_fraction=5e-3,
        ranges="clustered",
        ids_distribution="heavy_hitter",
    )
    config = OdysseyConfig(
        merge_threshold=1,
        min_merge_combination=2,
    )
    run_differential(suite, workload, config)


def test_merge_evictions_match_scalar(suite):
    workload = generate_workload(
        suite.universe,
        suite.catalog.dataset_ids(),
        36,
        seed=55,
        datasets_per_query=3,
        volume_fraction=5e-3,
        ranges="clustered",
        ids_distribution="uniform",
    )
    config = OdysseyConfig(
        merge_threshold=1,
        min_merge_combination=2,
        merge_space_budget_pages=6,
    )
    run_differential(suite, workload, config)


def test_cached_disk_matches_scalar(suite):
    """With a warm buffer pool the decoded-array cache must stay invisible."""
    cached = suite.fork(buffer_pages=256)
    workload = generate_workload(
        cached.universe,
        cached.catalog.dataset_ids(),
        24,
        seed=13,
        datasets_per_query=2,
        volume_fraction=5e-3,
    )
    config = OdysseyConfig(merge_threshold=1)
    run_differential(cached, workload, config)


def test_degenerate_and_duplicate_queries_match_scalar(suite):
    from repro.geometry.box import Box

    universe = suite.universe
    center = universe.center
    big = Box.cube(center, universe.side(0) * 0.2).clamp(universe)
    point = Box(center, center)  # degenerate zero-extent window
    off = Box.cube(universe.lo, universe.side(0) * 0.1).clamp(universe)
    queries = [
        (big, (0, 1, 2)),
        (big, (0, 1, 2)),
        (point, (3,)),
        (off, (0, 3)),
        (big, (0, 1, 2)),
        (point, (3,)),
    ]
    config = OdysseyConfig(merge_threshold=1)
    scalar = ScalarOdyssey(suite.fork().catalog, config)
    columnar = SpaceOdyssey(suite.fork().catalog, config)
    for box, ids in queries:
        assert columnar.query(box, ids) == scalar.query(box, ids)
    assert adaptive_state(columnar) == adaptive_state(scalar)
    assert disk_files(columnar) == disk_files(scalar)


# --------------------------------------------------------------------------- #
# The columnar storage surface
# --------------------------------------------------------------------------- #


@pytest.fixture
def object_file():
    disk = Disk(model=DiskModel(), buffer_pages=64)
    return PagedFile(disk, "objs.dat", spatial_object_codec(3))


def _objects(count, seed=1, dataset_id=4):
    from repro.geometry.box import Box

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
    def test_sequential_report_exposes_cache_counters(self):
        suite = build_benchmark_suite(
            n_datasets=2,
            objects_per_dataset=800,
            seed=3,
            buffer_pages=512,
            model=DiskModel(),
        )
        odyssey = SpaceOdyssey(suite.catalog)
        from repro.geometry.box import Box

        region = Box.cube(suite.universe.center, suite.universe.side(0) * 0.2)
        odyssey.query(region.clamp(suite.universe), [0, 1])
        cold = odyssey.last_report.cache
        assert cold is not None
        assert cold.hits + cold.misses > 0, "the query read pages"
        assert cold.decoded_misses > 0, "first decoding of each page is a miss"
        odyssey.query(region.clamp(suite.universe), [0, 1])
        warm = odyssey.last_report.cache
        assert warm.hits > 0, "second query should hit the byte cache"
        assert warm.decoded_hits > 0, "second query should hit the decoded layer"

    def test_batch_reports_carry_cache_counters(self):
        suite = build_benchmark_suite(
            n_datasets=2,
            objects_per_dataset=800,
            seed=3,
            buffer_pages=512,
            model=DiskModel(),
        )
        odyssey = SpaceOdyssey(suite.catalog)
        from repro.geometry.box import Box

        region = Box.cube(suite.universe.center, suite.universe.side(0) * 0.2)
        result = odyssey.query_batch([(region.clamp(suite.universe), (0, 1))] * 3)
        assert all(report.cache is not None for report in result.reports)
        total_reads = sum(
            report.cache.hits + report.cache.misses for report in result.reports
        )
        assert total_reads > 0


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
