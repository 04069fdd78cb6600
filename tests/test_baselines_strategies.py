"""Unit tests for the 1fE / Ain1 strategies and the brute-force oracle."""

from __future__ import annotations

import sys
import types
from collections import Counter

import pytest

from repro.baselines.grid import GridIndex
from repro.baselines.interface import BruteForceScan, result_keys
from repro.baselines.strategies import AllInOne, OneForEach
from repro.bench.approaches import APPROACHES, make_approach
from repro.bench.scales import get_scale
from repro.data import spatial_object as spatial_object_module
from repro.data.spatial_object import SpatialObject
from repro.geometry import vectorized
from repro.geometry.box import Box
from repro.storage import codec as codec_module
from repro.storage.codec import FixedRecordCodec

from tests.conftest import make_catalog


@pytest.fixture
def catalog(disk, universe):
    return make_catalog(disk, universe, n_datasets=3, count=200, seed=31)


@pytest.fixture
def grid_factory(disk, universe):
    def factory(name: str) -> GridIndex:
        return GridIndex(disk, name, universe, cells_per_dim=4)

    return factory


@pytest.fixture
def oracle(catalog):
    return BruteForceScan(catalog)


QUERY = Box.cube((50.0, 50.0, 50.0), 30.0)


class TestBruteForceScan:
    def test_filters_by_dataset(self, catalog, oracle):
        result = oracle.query(QUERY, [0, 2])
        assert {o.dataset_id for o in result} <= {0, 2}

    def test_is_always_built(self, oracle):
        assert oracle.is_built
        oracle.build()  # no-op


class TestOneForEach:
    def test_builds_one_index_per_dataset(self, catalog, grid_factory):
        strategy = OneForEach(catalog, grid_factory, "Grid-1fE")
        strategy.build()
        assert strategy.is_built
        assert set(strategy.indexes) == {0, 1, 2}

    def test_query_matches_oracle(self, catalog, grid_factory, oracle):
        strategy = OneForEach(catalog, grid_factory, "Grid-1fE")
        strategy.build()
        for ids in ([0], [1, 2], [0, 1, 2]):
            assert result_keys(strategy.query(QUERY, ids)) == result_keys(
                oracle.query(QUERY, ids)
            )

    def test_query_before_build_fails(self, catalog, grid_factory):
        strategy = OneForEach(catalog, grid_factory)
        with pytest.raises(RuntimeError):
            strategy.query(QUERY, [0])

    def test_build_twice_fails(self, catalog, grid_factory):
        strategy = OneForEach(catalog, grid_factory)
        strategy.build()
        with pytest.raises(RuntimeError):
            strategy.build()

    def test_unknown_dataset_rejected(self, catalog, grid_factory):
        strategy = OneForEach(catalog, grid_factory)
        strategy.build()
        with pytest.raises(KeyError):
            strategy.query(QUERY, [99])

    def test_probes_only_requested_indexes(self, catalog, grid_factory, disk):
        strategy = OneForEach(catalog, grid_factory, "Grid-1fE")
        strategy.build()
        disk.clear_cache()
        before = disk.stats_snapshot()
        strategy.query(QUERY, [0])
        one_dataset_io = disk.stats.delta_since(before).pages_read
        disk.clear_cache()
        before = disk.stats_snapshot()
        strategy.query(QUERY, [0, 1, 2])
        all_datasets_io = disk.stats.delta_since(before).pages_read
        assert all_datasets_io >= one_dataset_io

    def test_drop(self, catalog, grid_factory):
        strategy = OneForEach(catalog, grid_factory)
        strategy.build()
        strategy.drop()
        assert not strategy.is_built


class TestAllInOne:
    def test_builds_single_index(self, catalog, grid_factory):
        strategy = AllInOne(catalog, grid_factory, "Grid-Ain1")
        strategy.build()
        assert strategy.is_built
        assert strategy.index is not None
        assert strategy.index.n_objects == catalog.total_objects()

    def test_query_matches_oracle(self, catalog, grid_factory, oracle):
        strategy = AllInOne(catalog, grid_factory, "Grid-Ain1")
        strategy.build()
        for ids in ([1], [0, 2], [0, 1, 2]):
            assert result_keys(strategy.query(QUERY, ids)) == result_keys(
                oracle.query(QUERY, ids)
            )

    def test_filters_non_requested_datasets(self, catalog, grid_factory):
        strategy = AllInOne(catalog, grid_factory)
        strategy.build()
        result = strategy.query(universe_box(catalog), [1])
        assert {o.dataset_id for o in result} == {1}

    def test_query_before_build_fails(self, catalog, grid_factory):
        strategy = AllInOne(catalog, grid_factory)
        with pytest.raises(RuntimeError):
            strategy.query(QUERY, [0])

    def test_unknown_dataset_rejected(self, catalog, grid_factory):
        strategy = AllInOne(catalog, grid_factory)
        strategy.build()
        with pytest.raises(KeyError):
            strategy.query(QUERY, [42])

    def test_drop(self, catalog, grid_factory):
        strategy = AllInOne(catalog, grid_factory)
        strategy.build()
        strategy.drop()
        assert not strategy.is_built
        assert strategy.index is None


def universe_box(catalog) -> Box:
    return catalog.universe


# --------------------------------------------------------------------------- #
# Every approach on one record surface
# --------------------------------------------------------------------------- #


def figure_approach(name: str, suite):
    if name == "BruteForce":
        return BruteForceScan(suite.catalog)
    return make_approach(name, suite, get_scale("tiny"))


@pytest.mark.parametrize("name", [*APPROACHES, "BruteForce"])
def test_repeated_dataset_ids_are_answered_once(master_suite, name):
    approach = figure_approach(name, master_suite.fork())
    approach.build()
    universe = master_suite.universe
    once = [obj.key() for obj in approach.query(universe, [0, 2])]
    assert len(once) == master_suite.catalog.get(0).n_objects + master_suite.catalog.get(2).n_objects
    assert [obj.key() for obj in approach.query(universe, [0, 2, 0, 2, 2])] == once


class CallCounter:
    """Counts calls of named callables wherever ``repro`` modules bound them."""

    def __init__(self, monkeypatch) -> None:
        self.counts: Counter = Counter()
        self._monkeypatch = monkeypatch

    def count(self, label: str, owner, attribute: str, weight=None) -> None:
        """Count each call, or add ``weight(result)`` per call when given."""
        original = getattr(owner, attribute)

        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            self.counts[label] += 1 if weight is None else weight(result)
            return result

        owners = [owner]
        if isinstance(owner, types.ModuleType):
            owners += [
                module
                for module_name, module in sys.modules.items()
                if module_name.startswith("repro.") and getattr(module, attribute, None) is original
            ]
        for target in owners:
            self._monkeypatch.setattr(target, attribute, wrapper)


GUARDED = [
    "FLAT-1fE",
    "FLAT-Ain1",
    "RTree-1fE",
    "RTree-Ain1",
    "Grid-1fE",
    "Grid-Ain1",
    "BruteForce",
]


@pytest.mark.parametrize("name", GUARDED)
def test_baselines_decode_no_record_and_build_only_returned_objects(master_suite, monkeypatch, name):
    """Builds and queries read pages as arrays, test them with ``intersect_mask``
    and build a ``SpatialObject`` only for a returned row."""
    suite = master_suite.fork()
    approach = figure_approach(name, suite)
    calls = CallCounter(monkeypatch)
    calls.count("decode_page", codec_module, "decode_page")
    calls.count("unpack", FixedRecordCodec, "unpack")
    calls.count("intersect_mask", vectorized, "intersect_mask")
    calls.count("objects", SpatialObject, "__init__")
    # Hits are built column by column, without a constructor call each.
    calls.count("objects", spatial_object_module, "trusted_objects", weight=len)
    approach.build()
    assert calls.counts["objects"] == 0
    universe = suite.universe
    for fraction, ids in [(0.01, [0]), (0.2, [1, 3]), (2.0, [0, 1, 2, 3])]:
        masks = calls.counts["intersect_mask"]
        built = calls.counts["objects"]
        window = Box.cube(universe.center, universe.side(0) * fraction).clamp(universe)
        answer = approach.query(window, ids)
        assert calls.counts["intersect_mask"] > masks
        assert calls.counts["objects"] - built == len(answer)
    assert len(answer) == suite.catalog.total_objects()
    assert calls.counts["decode_page"] == 0
    assert calls.counts["unpack"] == 0
