"""Unit tests for the bulk-loaded STR R-tree."""

from __future__ import annotations

import pytest

import numpy as np

from repro.baselines.interface import result_keys
from repro.baselines.rtree import STRRTree, node_entry_dtype
from repro.geometry.box import Box

from tests.baseline_reference import NodeEntry, node_entry_codec
from tests.conftest import make_dataset
from tests.scalar_reference import scan_objects


@pytest.fixture
def dataset(disk, universe):
    return make_dataset(disk, universe, dataset_id=0, count=800, seed=13)


class TestNodeEntryDtype:
    """The node-entry dtype mirrors the ``<qq`` + ``d``×2d struct layout byte for byte."""

    def test_leaf_entry_layout(self):
        entry = NodeEntry(child_page=42, child_is_leaf=True, box=Box((0.0, 1.0, 2.0), (3.0, 4.0, 5.0)))
        row = np.frombuffer(node_entry_codec(3).pack(entry), dtype=node_entry_dtype(3))[0]
        assert (row["child_page"], row["is_leaf"]) == (42, 1)
        assert row["lo"].tolist() == [0.0, 1.0, 2.0] and row["hi"].tolist() == [3.0, 4.0, 5.0]

    def test_internal_entry_layout(self):
        entry = NodeEntry(child_page=7, child_is_leaf=False, box=Box((0.0, 0.0), (1.0, 1.0)))
        row = np.zeros(1, dtype=node_entry_dtype(2))
        row["child_page"] = 7
        row["hi"] = (1.0, 1.0)
        assert row.tobytes() == node_entry_codec(2).pack(entry)


class TestBuild:
    def test_build_structure(self, disk, universe, dataset):
        tree = STRRTree(disk, "r", universe)
        tree.build([dataset])
        assert tree.is_built
        assert tree.n_objects == dataset.n_objects
        assert tree.height >= 2  # 800 objects / 63 per leaf -> needs internal level
        assert tree.leaf_capacity == 63
        assert tree.fanout == 63

    def test_build_twice_fails(self, disk, universe, dataset):
        tree = STRRTree(disk, "r", universe)
        tree.build([dataset])
        with pytest.raises(RuntimeError):
            tree.build([dataset])

    def test_query_before_build_fails(self, disk, universe):
        tree = STRRTree(disk, "r", universe)
        with pytest.raises(RuntimeError):
            tree.query(Box.cube((1.0, 1.0, 1.0), 1.0))

    def test_empty_build(self, disk, universe):
        from repro.data.dataset import Dataset

        empty = Dataset.create(disk, 0, "empty_r", [], universe)
        tree = STRRTree(disk, "r", universe)
        tree.build([empty])
        assert tree.query(universe) == []

    def test_small_memory_budget_charges_more_io(self, universe):
        from repro.storage.cost_model import DiskModel
        from repro.storage.disk import Disk

        results = {}
        for memory_pages in (4, 4096):
            disk = Disk(model=DiskModel(seek_time_s=0), buffer_pages=0)
            dataset = make_dataset(disk, universe, count=2000, seed=3)
            before = disk.stats_snapshot()
            tree = STRRTree(disk, "r", universe, build_memory_pages=memory_pages)
            tree.build([dataset])
            results[memory_pages] = disk.stats.delta_since(before).io_seconds
        assert results[4] > results[4096]


class TestQuery:
    def test_query_matches_bruteforce(self, disk, universe, dataset):
        tree = STRRTree(disk, "r", universe)
        tree.build([dataset])
        raw = list(scan_objects(dataset))
        for center, side in [((50.0, 50.0, 50.0), 25.0), ((20.0, 80.0, 40.0), 10.0), ((5.0, 5.0, 5.0), 3.0)]:
            query = Box.cube(center, side)
            expected = {o.key() for o in raw if o.intersects(query)}
            assert result_keys(tree.query(query)) == expected

    def test_query_covering_universe(self, disk, universe, dataset):
        tree = STRRTree(disk, "r", universe)
        tree.build([dataset])
        assert len(tree.query(universe)) == dataset.n_objects

    def test_query_empty_region(self, disk, universe, dataset):
        tree = STRRTree(disk, "r", universe)
        tree.build([dataset])
        # The universe is [0, 100]^3, so a far-away degenerate query is legal
        # only inside the coordinate space; use a thin slab between objects.
        result = tree.query(Box((0.0, 0.0, 0.0), (0.0001, 0.0001, 0.0001)))
        raw = list(scan_objects(dataset))
        expected = {o.key() for o in raw if o.intersects(Box((0.0, 0.0, 0.0), (0.0001, 0.0001, 0.0001)))}
        assert result_keys(result) == expected

    def test_query_reads_node_pages(self, disk, universe, dataset):
        tree = STRRTree(disk, "r", universe)
        tree.build([dataset])
        disk.clear_cache()
        disk.reset_head()
        before = disk.stats_snapshot()
        tree.query(Box.cube((50.0, 50.0, 50.0), 10.0))
        delta = disk.stats.delta_since(before)
        assert delta.pages_read >= 1  # at least the root

    def test_drop(self, disk, universe, dataset):
        tree = STRRTree(disk, "r", universe)
        tree.build([dataset])
        tree.drop()
        assert not tree.is_built
