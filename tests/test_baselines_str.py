"""Unit tests for STR packing and external-sort cost accounting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.str_packing import (
    charge_external_sort,
    external_sort_passes,
    record_centers,
    str_sort_tile,
)
from repro.data.spatial_object import spatial_object_codec
from repro.geometry.box import Box
from repro.storage.cost_model import DiskModel
from repro.storage.disk import Disk

from tests.baseline_reference import str_sort_tile as reference_str_sort_tile
from tests.conftest import make_random_objects


@pytest.fixture
def universe() -> Box:
    return Box((0.0, 0.0, 0.0), (100.0, 100.0, 100.0))


def packed(objects) -> np.ndarray:
    codec = spatial_object_codec(3)
    return np.frombuffer(b"".join(map(codec.pack, objects)), dtype=codec.dtype)


def centers(objects) -> np.ndarray:
    return record_centers(packed(objects)).reshape(len(objects), 3)


class TestStrSortTile:
    def test_all_rows_packed_exactly_once(self, universe):
        leaves = str_sort_tile(centers(make_random_objects(universe, 400, seed=1)), leaf_capacity=20)
        assert sorted(row for leaf in leaves for row in leaf.tolist()) == list(range(400))

    def test_leaf_capacity_respected(self, universe):
        leaves = str_sort_tile(centers(make_random_objects(universe, 333, seed=2)), leaf_capacity=25)
        assert all(1 <= len(leaf) <= 25 for leaf in leaves)

    def test_small_input_single_leaf(self, universe):
        leaves = str_sort_tile(centers(make_random_objects(universe, 5, seed=3)), leaf_capacity=10)
        assert len(leaves) == 1

    def test_empty_input(self):
        assert str_sort_tile(np.empty((0, 3)), leaf_capacity=10) == []

    def test_invalid_capacity(self, universe):
        with pytest.raises(ValueError):
            str_sort_tile(centers(make_random_objects(universe, 5)), leaf_capacity=0)

    def test_leaves_are_spatially_coherent(self, universe):
        # STR leaves should have much smaller MBRs than the universe.
        records = packed(make_random_objects(universe, 1000, seed=4))
        leaves = str_sort_tile(record_centers(records), leaf_capacity=50)
        volumes = [
            np.prod(records["hi"][leaf].max(axis=0) - records["lo"][leaf].min(axis=0))
            for leaf in leaves
        ]
        assert sum(volumes) / len(leaves) < universe.volume() / len(leaves) * 8

    @pytest.mark.parametrize("leaf_capacity", [1, 7, 63])
    def test_leaves_match_the_per_object_sort_including_ties(self, universe, leaf_capacity):
        # Half the objects repeat a centre: only a stable sort keeps the
        # per-object order of equal keys.
        objects = make_random_objects(universe, 300, seed=5)
        objects += [
            type(obj)(oid=1000 + obj.oid, dataset_id=0, box=obj.box) for obj in objects[:150]
        ]
        leaves = str_sort_tile(centers(objects), leaf_capacity)
        expected = reference_str_sort_tile(objects, leaf_capacity)
        assert [[objects[row].oid for row in leaf.tolist()] for leaf in leaves] == [
            [obj.oid for obj in leaf] for leaf in expected
        ]


class TestExternalSortPasses:
    def test_fits_in_memory_is_one_pass(self):
        assert external_sort_passes(data_pages=100, memory_pages=200) == 1

    def test_larger_data_needs_more_passes(self):
        assert external_sort_passes(data_pages=1000, memory_pages=10) >= 3
        assert external_sort_passes(data_pages=1000, memory_pages=100) == 2

    def test_zero_data(self):
        assert external_sort_passes(0, 10) == 0

    def test_monotone_in_data_size(self):
        passes = [external_sort_passes(n, 16) for n in (10, 100, 1000, 10_000)]
        assert passes == sorted(passes)


class TestChargeExternalSort:
    def test_charges_read_and_write_per_pass(self):
        disk = Disk(model=DiskModel(seek_time_s=0.0), buffer_pages=0)
        charge_external_sort(disk, data_pages=100, memory_pages=1000, n_phases=1)
        assert disk.stats.pages_read == 100
        assert disk.stats.pages_written == 100

    def test_phases_multiply_cost(self):
        disk_one = Disk(model=DiskModel(), buffer_pages=0)
        disk_three = Disk(model=DiskModel(), buffer_pages=0)
        charge_external_sort(disk_one, 100, 1000, n_phases=1)
        charge_external_sort(disk_three, 100, 1000, n_phases=3)
        assert disk_three.stats.pages_read == 3 * disk_one.stats.pages_read

    def test_records_add_cpu(self):
        disk = Disk(model=DiskModel(), buffer_pages=0)
        charge_external_sort(disk, 10, 1000, n_phases=1, records=10_000)
        assert disk.stats.cpu_seconds > 0

    def test_zero_pages_is_noop(self):
        disk = Disk(model=DiskModel(), buffer_pages=0)
        charge_external_sort(disk, 0, 16)
        assert disk.stats.simulated_seconds == 0
