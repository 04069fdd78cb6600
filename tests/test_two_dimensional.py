"""End-to-end tests with 2-D data.

The paper's datasets are 3-D, but the whole stack is dimension-generic
(space-oriented splitting uses ``ppl = splits ** d``); these tests pin that
property so the library stays usable for e.g. GIS-style 2-D exploration.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.flat import FLATIndex
from repro.baselines.grid import GridIndex
from repro.baselines.interface import BruteForceScan, result_keys
from repro.baselines.rtree import STRRTree
from repro.core.config import OdysseyConfig
from repro.core.odyssey import SpaceOdyssey
from repro.data.dataset import Dataset, DatasetCatalog
from repro.data.spatial_object import SpatialObject, spatial_object_codec
from repro.geometry.box import Box
from repro.storage.cost_model import DiskModel
from repro.storage.disk import Disk

from tests.scalar_reference import scan_objects

UNIVERSE_2D = Box((0.0, 0.0), (100.0, 100.0))


def make_2d_objects(count: int, dataset_id: int, seed: int) -> list[SpatialObject]:
    rng = np.random.default_rng(seed)
    objects = []
    for oid in range(count):
        center = rng.uniform((0.0, 0.0), (100.0, 100.0))
        box = Box.from_center(tuple(center), (1.0, 1.5)).clamp(UNIVERSE_2D)
        objects.append(SpatialObject(oid=oid, dataset_id=dataset_id, box=box))
    return objects


@pytest.fixture
def disk() -> Disk:
    return Disk(model=DiskModel(), buffer_pages=0)


@pytest.fixture
def catalog(disk) -> DatasetCatalog:
    datasets = [
        Dataset.create(disk, i, f"flat2d_{i}", make_2d_objects(250, i, seed=i), UNIVERSE_2D)
        for i in range(3)
    ]
    return DatasetCatalog(datasets)


QUERIES_2D = [
    Box.cube((30.0, 40.0), 12.0),
    Box.cube((80.0, 20.0), 6.0),
    Box((0.0, 0.0), (100.0, 5.0)),
]


def test_codec_2d_roundtrip():
    codec = spatial_object_codec(2)
    obj = SpatialObject(oid=1, dataset_id=2, box=Box((0.0, 1.0), (2.0, 3.0)))
    assert codec.unpack(codec.pack(obj)) == obj
    assert codec.record_size == 48


def test_static_indexes_2d_match_bruteforce(disk, catalog):
    dataset = catalog.get(0)
    raw = list(scan_objects(dataset))
    indexes = [
        GridIndex(disk, "g2", UNIVERSE_2D, cells_per_dim=8),
        STRRTree(disk, "r2", UNIVERSE_2D),
        FLATIndex(disk, "f2", UNIVERSE_2D),
    ]
    for index in indexes:
        index.build([dataset])
        for query in QUERIES_2D:
            expected = {o.key() for o in raw if o.intersects(query)}
            assert result_keys(index.query(query)) == expected


def test_odyssey_2d_uses_quadtree_splitting(catalog):
    config = OdysseyConfig(partitions_per_level=16, min_merge_combination=2, merge_threshold=1)
    odyssey = SpaceOdyssey(catalog, config)
    oracle = BruteForceScan(catalog)
    for query in QUERIES_2D * 2:
        assert result_keys(odyssey.query(query, [0, 1, 2])) == result_keys(
            oracle.query(query, [0, 1, 2])
        )
    tree = odyssey.trees[0]
    assert tree.splits_per_dim == 4  # 16 partitions per level in 2-D
    assert tree.partitions_per_level == 16


def test_odyssey_2d_rejects_3d_ppl(catalog):
    # 8 partitions per level is a perfect cube but not a perfect square.
    with pytest.raises(ValueError):
        SpaceOdyssey(catalog, OdysseyConfig(partitions_per_level=8))
