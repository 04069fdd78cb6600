"""Unit tests for the FLAT baseline (regions, adjacency, seed-and-crawl)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.flat import (
    FLATIndex,
    compute_region_adjacency,
    tile_with_regions,
)
from repro.baselines.interface import result_keys
from repro.geometry.box import Box

from tests.conftest import make_dataset, make_random_objects
from tests.scalar_reference import scan_objects


def centers_of(objects) -> np.ndarray:
    return np.array([obj.center for obj in objects], dtype=np.float64).reshape(len(objects), 3)


@pytest.fixture
def dataset(disk, universe):
    return make_dataset(disk, universe, dataset_id=0, count=700, seed=21)


class TestTileWithRegions:
    def test_regions_partition_universe(self, universe):
        objects = make_random_objects(universe, 500, seed=1)
        tiles = tile_with_regions(centers_of(objects), leaf_capacity=40, universe=universe)
        regions = [region for _, region in tiles]
        total = sum(region.volume() for region in regions)
        assert total == pytest.approx(universe.volume(), rel=1e-9)

    def test_every_object_center_in_its_region(self, universe):
        objects = make_random_objects(universe, 500, seed=2)
        tiles = tile_with_regions(centers_of(objects), leaf_capacity=40, universe=universe)
        for rows, region in tiles:
            for row in rows:
                assert region.contains_point(objects[row].center)

    def test_all_objects_assigned_once(self, universe):
        objects = make_random_objects(universe, 300, seed=3)
        tiles = tile_with_regions(centers_of(objects), leaf_capacity=25, universe=universe)
        assigned = [row for rows, _ in tiles for row in rows.tolist()]
        assert sorted(assigned) == list(range(len(objects)))

    def test_empty_input_covers_universe(self, universe):
        tiles = tile_with_regions(centers_of([]), leaf_capacity=10, universe=universe)
        assert len(tiles) == 1
        assert tiles[0][1] == universe

    def test_leaf_capacity_respected(self, universe):
        objects = make_random_objects(universe, 400, seed=4)
        tiles = tile_with_regions(centers_of(objects), leaf_capacity=30, universe=universe)
        # The last axis tiles exactly by capacity, so no leaf exceeds it.
        assert all(len(leaf) <= 30 for leaf, _ in tiles)


class TestRegionAdjacency:
    def test_adjacent_grid_cells_are_neighbours(self):
        universe = Box((0.0, 0.0), (4.0, 4.0))
        regions = universe.split_grid(2)
        adjacency = compute_region_adjacency(regions)
        # All four quadrants touch each other (corner/edge sharing).
        for index in range(4):
            assert adjacency[index] == set(range(4)) - {index}

    def test_disjoint_regions_not_neighbours(self):
        regions = [Box((0.0,), (1.0,)), Box((5.0,), (6.0,))]
        adjacency = compute_region_adjacency(regions)
        assert adjacency[0] == set()
        assert adjacency[1] == set()

    def test_empty_input(self):
        assert compute_region_adjacency([]) == {}


class TestFLATIndex:
    def test_build_structure(self, disk, universe, dataset):
        flat = FLATIndex(disk, "f", universe)
        flat.build([dataset])
        assert flat.is_built
        assert flat.n_objects == dataset.n_objects
        assert flat.n_leaves == len(flat.regions)
        # Regions tile the universe.
        total = sum(region.volume() for region in flat.regions)
        assert total == pytest.approx(universe.volume(), rel=1e-9)

    def test_query_matches_bruteforce(self, disk, universe, dataset):
        flat = FLATIndex(disk, "f", universe)
        flat.build([dataset])
        raw = list(scan_objects(dataset))
        for center, side in [
            ((50.0, 50.0, 50.0), 20.0),
            ((10.0, 10.0, 90.0), 12.0),
            ((99.0, 1.0, 50.0), 6.0),
        ]:
            query = Box.cube(center, side)
            expected = {o.key() for o in raw if o.intersects(query)}
            assert result_keys(flat.query(query)) == expected

    def test_query_covering_universe(self, disk, universe, dataset):
        flat = FLATIndex(disk, "f", universe)
        flat.build([dataset])
        assert len(flat.query(universe)) == dataset.n_objects

    def test_build_twice_fails(self, disk, universe, dataset):
        flat = FLATIndex(disk, "f", universe)
        flat.build([dataset])
        with pytest.raises(RuntimeError):
            flat.build([dataset])

    def test_query_before_build_fails(self, disk, universe):
        flat = FLATIndex(disk, "f", universe)
        with pytest.raises(RuntimeError):
            flat.query(Box.cube((1.0, 1.0, 1.0), 1.0))

    def test_empty_build(self, disk, universe):
        from repro.data.dataset import Dataset

        empty = Dataset.create(disk, 0, "empty_f", [], universe)
        flat = FLATIndex(disk, "f", universe)
        flat.build([empty])
        assert flat.query(universe) == []

    def test_build_costs_more_than_rtree(self, universe):
        """FLAT's extra neighbourhood pass makes it the slowest build (paper C2)."""
        from repro.baselines.rtree import STRRTree
        from repro.storage.cost_model import DiskModel
        from repro.storage.disk import Disk

        costs = {}
        for kind in ("flat", "rtree"):
            disk = Disk(model=DiskModel(), buffer_pages=0)
            dataset = make_dataset(disk, universe, count=1500, seed=5)
            before = disk.stats_snapshot()
            index = (
                FLATIndex(disk, "f", universe, build_memory_pages=8)
                if kind == "flat"
                else STRRTree(disk, "r", universe, build_memory_pages=8)
            )
            index.build([dataset])
            costs[kind] = disk.stats.delta_since(before).simulated_seconds
        assert costs["flat"] > costs["rtree"]

    def test_drop(self, disk, universe, dataset):
        flat = FLATIndex(disk, "f", universe)
        flat.build([dataset])
        flat.drop()
        assert not flat.is_built
        assert flat.n_leaves == 0
