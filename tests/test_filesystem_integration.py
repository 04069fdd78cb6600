"""Integration tests against the real-filesystem backend.

Most tests use the in-memory backend for speed; these verify that the whole
stack (raw datasets, static indexes, Space Odyssey with in-place refinement
and merge files) behaves identically when pages live in real files.
"""

from __future__ import annotations

import pytest

from repro.baselines.grid import GridIndex
from repro.baselines.interface import BruteForceScan, result_keys
from repro.core.config import OdysseyConfig
from repro.core.odyssey import SpaceOdyssey
from repro.data.dataset import Dataset, DatasetCatalog
from repro.geometry.box import Box
from repro.storage.backend import FileSystemBackend
from repro.storage.cost_model import DiskModel
from repro.storage.disk import Disk

from tests.conftest import make_random_objects

UNIVERSE = Box((0.0, 0.0, 0.0), (100.0, 100.0, 100.0))


@pytest.fixture
def fs_disk(tmp_path) -> Disk:
    backend = FileSystemBackend(tmp_path / "pages")
    return Disk(backend=backend, model=DiskModel(), buffer_pages=16)


@pytest.fixture
def fs_catalog(fs_disk) -> DatasetCatalog:
    datasets = [
        Dataset.create(
            fs_disk, i, f"fsds_{i}", make_random_objects(UNIVERSE, 200, i, seed=60 + i), UNIVERSE
        )
        for i in range(3)
    ]
    return DatasetCatalog(datasets)


def test_raw_files_persist_on_disk(tmp_path, fs_disk, fs_catalog):
    files = list((tmp_path / "pages").glob("*.pages"))
    assert len(files) == 3
    assert all(path.stat().st_size > 0 for path in files)


def test_grid_on_filesystem_matches_bruteforce(fs_disk, fs_catalog):
    grid = GridIndex(fs_disk, "fs_grid", UNIVERSE, cells_per_dim=4)
    grid.build(fs_catalog.datasets())
    oracle = BruteForceScan(fs_catalog)
    query = Box.cube((50.0, 50.0, 50.0), 30.0)
    assert result_keys(grid.query(query)) == result_keys(oracle.query(query, [0, 1, 2]))


def test_odyssey_on_filesystem_end_to_end(fs_disk, fs_catalog, tmp_path):
    config = OdysseyConfig(
        partitions_per_level=8,
        merge_threshold=1,
        min_merge_combination=3,
    )
    odyssey = SpaceOdyssey(fs_catalog, config)
    oracle = BruteForceScan(fs_catalog)
    query = Box.cube((50.0, 50.0, 50.0), 10.0)
    for _ in range(5):
        assert result_keys(odyssey.query(query, [0, 1, 2])) == result_keys(
            oracle.query(query, [0, 1, 2])
        )
    # Partition files and the merge file were materialised as real files.
    file_names = fs_disk.list_files()
    assert any(name.startswith("odyssey_") for name in file_names)
    assert any(name.startswith("merge_") for name in file_names)
    # Refinement happened in place on the real files too.
    assert odyssey.trees[0].depth >= 2
