"""Shared fixtures for the test suite.

The expensive fixture is the synthetic multi-dataset suite; it is built once
per session and *forked* (cheap copy of the in-memory page store) for every
test that mutates on-disk state, so tests stay independent without paying
for data generation repeatedly.
"""

from __future__ import annotations

import tempfile

import numpy as np
import pytest

from repro.data.dataset import Dataset, DatasetCatalog
from repro.data.spatial_object import SpatialObject
from repro.data.suite import BenchmarkSuite, build_benchmark_suite
from repro.geometry.box import Box
from repro.storage.cost_model import DiskModel
from repro.storage.disk import Disk


@pytest.fixture(scope="session", autouse=True)
def _session_temp_dir(tmp_path_factory):
    """Temporary directories made through ``tempfile`` go under pytest's base temp.

    ``FileSystemBackend.clone()`` (every ``fork()`` of a filesystem suite)
    leaves its directory to the caller; inside the suite that directory
    lands in the session's own temp tree, which pytest rotates, instead of
    the system temp directory.
    """
    previous = tempfile.tempdir
    tempfile.tempdir = str(tmp_path_factory.mktemp("tempfile"))
    yield
    tempfile.tempdir = previous


@pytest.fixture
def model() -> DiskModel:
    """A disk model with easy-to-reason-about numbers."""
    return DiskModel(seek_time_s=1e-3, transfer_rate_bytes_per_s=4096 * 1000)


@pytest.fixture
def disk(model: DiskModel) -> Disk:
    """A fresh in-memory simulated disk without caching."""
    return Disk(model=model, buffer_pages=0)


@pytest.fixture
def universe() -> Box:
    """A cubic 3-D universe used by most index tests."""
    return Box((0.0, 0.0, 0.0), (100.0, 100.0, 100.0))


def make_object(
    oid: int,
    dataset_id: int,
    center: tuple[float, ...],
    extent: float = 1.0,
) -> SpatialObject:
    """A small helper to build objects at explicit positions."""
    return SpatialObject(
        oid=oid, dataset_id=dataset_id, box=Box.cube(center, extent)
    )


def make_random_objects(
    universe: Box,
    count: int,
    dataset_id: int = 0,
    seed: int = 0,
    extent_fraction: float = 0.01,
) -> list[SpatialObject]:
    """Uniformly random small objects inside a universe."""
    rng = np.random.default_rng(seed)
    objects = []
    extents = [side * extent_fraction for side in universe.extents]
    for oid in range(count):
        center = tuple(
            float(rng.uniform(lo, hi)) for lo, hi in zip(universe.lo, universe.hi)
        )
        box = Box.from_center(center, extents).clamp(universe)
        objects.append(SpatialObject(oid=oid, dataset_id=dataset_id, box=box))
    return objects


def make_dataset(
    disk: Disk,
    universe: Box,
    dataset_id: int = 0,
    count: int = 300,
    seed: int = 0,
    name: str | None = None,
) -> Dataset:
    """A raw dataset of uniformly random objects on the given disk."""
    objects = make_random_objects(universe, count, dataset_id=dataset_id, seed=seed)
    return Dataset.create(
        disk=disk,
        dataset_id=dataset_id,
        name=name or f"test_{dataset_id}",
        objects=objects,
        universe=universe,
    )


def make_catalog(
    disk: Disk, universe: Box, n_datasets: int = 3, count: int = 300, seed: int = 0
) -> DatasetCatalog:
    """A catalog of several uniformly random datasets."""
    datasets = [
        make_dataset(
            disk, universe, dataset_id=i, count=count, seed=seed + i, name=f"cat_{i}"
        )
        for i in range(n_datasets)
    ]
    return DatasetCatalog(datasets)


@pytest.fixture(scope="session")
def master_suite() -> BenchmarkSuite:
    """The session-wide synthetic neuroscience suite (never mutated directly)."""
    return build_benchmark_suite(
        n_datasets=4,
        objects_per_dataset=900,
        seed=11,
        buffer_pages=0,
        model=DiskModel(seek_time_s=1e-4),
    )


@pytest.fixture
def suite(master_suite: BenchmarkSuite) -> BenchmarkSuite:
    """A fresh fork of the session suite for tests that mutate disk state."""
    return master_suite.fork()
