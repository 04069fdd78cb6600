"""Unit tests for the static uniform Grid index."""

from __future__ import annotations

import pytest

from repro.baselines.grid import GridIndex
from repro.baselines.interface import result_keys
from repro.geometry.box import Box

from tests.conftest import make_dataset
from tests.scalar_reference import scan_objects


@pytest.fixture
def dataset(disk, universe):
    return make_dataset(disk, universe, dataset_id=0, count=500, seed=7)


class TestBuild:
    def test_build_indexes_all_objects(self, disk, universe, dataset):
        grid = GridIndex(disk, "g", universe, cells_per_dim=4)
        grid.build([dataset])
        assert grid.is_built
        assert grid.n_objects == dataset.n_objects
        assert grid.occupied_cells() <= grid.n_cells
        assert grid.n_cells == 64

    def test_build_twice_fails(self, disk, universe, dataset):
        grid = GridIndex(disk, "g", universe, cells_per_dim=4)
        grid.build([dataset])
        with pytest.raises(RuntimeError):
            grid.build([dataset])

    def test_query_before_build_fails(self, disk, universe):
        grid = GridIndex(disk, "g", universe, cells_per_dim=4)
        with pytest.raises(RuntimeError):
            grid.query(Box.cube((50.0, 50.0, 50.0), 10.0))

    def test_max_extent_tracked(self, disk, universe, dataset):
        grid = GridIndex(disk, "g", universe, cells_per_dim=4)
        grid.build([dataset])
        expected = tuple(
            max(o.box.extents[axis] for o in scan_objects(dataset)) for axis in range(3)
        )
        assert grid.max_extent == pytest.approx(expected)

    def test_small_build_buffer_creates_multiple_runs(self, disk, universe, dataset):
        grid = GridIndex(disk, "g", universe, cells_per_dim=2, build_buffer_objects=50)
        grid.build([dataset])
        # with a 50-object buffer and 500 objects there must be several flushes,
        # so at least one cell is split over multiple runs
        assert any(len(runs) > 1 for runs in grid._cells.values())

    def test_invalid_configuration(self, disk, universe):
        with pytest.raises(ValueError):
            GridIndex(disk, "g", universe, cells_per_dim=0)
        with pytest.raises(ValueError):
            GridIndex(disk, "g", universe, cells_per_dim=(4, 4))
        with pytest.raises(ValueError):
            GridIndex(disk, "g", universe, build_buffer_objects=0)


class TestQuery:
    @pytest.mark.parametrize("cells", [2, 4, (2, 4, 8)])
    def test_query_matches_bruteforce(self, disk, universe, dataset, cells):
        grid = GridIndex(disk, "g", universe, cells_per_dim=cells)
        grid.build([dataset])
        for center, side in [((50.0, 50.0, 50.0), 20.0), ((10.0, 90.0, 30.0), 15.0)]:
            query = Box.cube(center, side)
            expected = {o.key() for o in scan_objects(dataset) if o.intersects(query)}
            assert result_keys(grid.query(query)) == expected

    def test_query_covering_universe_returns_all(self, disk, universe, dataset):
        grid = GridIndex(disk, "g", universe, cells_per_dim=4)
        grid.build([dataset])
        assert len(grid.query(universe)) == dataset.n_objects

    def test_query_in_empty_region_is_cheap(self, disk, universe):
        # All objects in one corner; a query in the opposite corner reads nothing.
        from tests.conftest import make_object

        objects = [make_object(i, 0, (5.0, 5.0, 5.0)) for i in range(10)]
        from repro.data.dataset import Dataset

        dataset = Dataset.create(disk, 0, "corner", objects, universe)
        grid = GridIndex(disk, "g", universe, cells_per_dim=4)
        grid.build([dataset])
        before = disk.stats_snapshot()
        result = grid.query(Box.cube((90.0, 90.0, 90.0), 5.0))
        assert result == []
        assert disk.stats.delta_since(before).pages_read == 0

    def test_drop(self, disk, universe, dataset):
        grid = GridIndex(disk, "g", universe, cells_per_dim=4)
        grid.build([dataset])
        grid.drop()
        assert not grid.is_built
        assert grid.n_objects == 0

    def test_multi_dataset_build(self, disk, universe):
        ds_a = make_dataset(disk, universe, dataset_id=0, count=100, seed=1, name="ga")
        ds_b = make_dataset(disk, universe, dataset_id=1, count=100, seed=2, name="gb")
        grid = GridIndex(disk, "g", universe, cells_per_dim=4)
        grid.build([ds_a, ds_b])
        assert grid.n_objects == 200
        query = Box.cube((50.0, 50.0, 50.0), 40.0)
        expected = {
            o.key()
            for o in [*scan_objects(ds_a), *scan_objects(ds_b)]
            if o.intersects(query)
        }
        assert result_keys(grid.query(query)) == expected
