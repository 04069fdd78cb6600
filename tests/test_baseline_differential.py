"""Differential oracle: the array baselines against their per-object models.

FLAT, the STR R-tree and the Grid — each under one-for-each (1fE) and
all-in-one (Ain1) — and the brute-force oracle run twice on identical
catalogs: once from ``src/`` and once as the per-object reference in
``tests/baseline_reference.py``.  For every build and every query they must
agree byte for byte:

* the SHA-256 of every page file on the disk;
* the I/O statistics (pages read and written, seeks, simulated seconds);
* the answer, as ``(dataset_id, oid)`` keys in order.

The tier-1 scenarios cover 2-D and 3-D, small and default page sizes (so
small and large leaf capacities), an empty dataset, a one-leaf collection,
per-axis grid counts, Grid builds that flush several times (across
dataset and scan-chunk boundaries), zlib raw files and centre ties that
only a stable sort orders the same way.  ``REPRO_FUZZ_ITERATIONS=N`` adds
N random scenarios drawn over the same axes.
"""

from __future__ import annotations

import hashlib
import os
import random
from dataclasses import dataclass

import numpy as np
import pytest

from repro.baselines.flat import FLATIndex
from repro.baselines.grid import GridIndex
from repro.baselines.interface import BruteForceScan
from repro.baselines.rtree import STRRTree
from repro.baselines.strategies import AllInOne, OneForEach
from repro.data.dataset import Dataset, DatasetCatalog
from repro.data.generator import NeuroscienceDatasetGenerator
from repro.data.spatial_object import SpatialObject
from repro.geometry.box import Box
from repro.storage.cost_model import DiskModel
from repro.storage.disk import Disk

from tests.baseline_reference import (
    ReferenceAllInOne,
    ReferenceBruteForce,
    ReferenceFLAT,
    ReferenceGrid,
    ReferenceOneForEach,
    ReferenceRTree,
)
from tests.conftest import make_random_objects

DEEP_ITERATIONS = int(os.environ.get("REPRO_FUZZ_ITERATIONS", "0"))


@dataclass(frozen=True)
class Scenario:
    """One catalog, one index configuration and one query sequence."""

    name: str
    dimension: int
    page_size: int
    counts: tuple[int, ...]
    data: str  # "uniform", "lattice" (many equal centres) or "neuro"
    cells_per_dim: int | tuple[int, ...]
    build_buffer_objects: int
    seed: int
    compression: str | None = None
    n_queries: int = 10


SCENARIOS = [
    Scenario("neuro-3d-zlib", 3, 4096, (600, 450, 300), "neuro", 4, 250, 1, "zlib"),
    Scenario("uniform-2d-empty", 2, 512, (400, 0, 300), "uniform", (3, 5), 97, 2),
    Scenario("lattice-3d-chunks", 3, 512, (2000, 20), "lattice", (2, 4, 8), 700, 3),
    Scenario("one-leaf-3d", 3, 4096, (20,), "uniform", 2, 100_000, 4),
]


def random_scenario(index: int) -> Scenario:
    rng = random.Random(9000 + index)
    dimension = rng.choice((2, 3))
    n_datasets = rng.randint(1, 4)
    return Scenario(
        name=f"deep-{index}",
        dimension=dimension,
        page_size=rng.choice((256, 512, 1024, 4096)),
        counts=tuple(rng.choice((0, 1, 7, 60, 300, 900)) for _ in range(n_datasets)),
        data=rng.choice(("uniform", "lattice", "neuro")),
        cells_per_dim=tuple(rng.randint(1, 9) for _ in range(dimension)),
        build_buffer_objects=rng.choice((1, 13, 97, 500, 100_000)),
        seed=index,
        compression=rng.choice((None, "zlib")),
        n_queries=6,
    )


def scenario_objects(scenario: Scenario, universe: Box, dataset_id: int, count: int):
    """A dataset's records: a structured array or a list of objects."""
    seed = scenario.seed * 31 + dataset_id
    if scenario.data == "neuro":
        return NeuroscienceDatasetGenerator(universe, seed=seed).object_array(dataset_id, count)
    if scenario.data == "uniform":
        return make_random_objects(universe, count, dataset_id=dataset_id, seed=seed)
    # Centres on a coarse lattice: every STR sort meets long runs of ties.
    rng = np.random.default_rng(seed)
    objects = []
    for oid in range(count):
        center = tuple(float(c) * 12.5 + 6.25 for c in rng.integers(0, 8, universe.dimension))
        extent = float(rng.choice((0.0, 0.5, 2.0)))
        box = Box.cube(center, extent).clamp(universe)
        objects.append(SpatialObject(oid=oid, dataset_id=dataset_id, box=box))
    return objects


def make_catalog(scenario: Scenario) -> DatasetCatalog:
    """The scenario's catalog on a fresh disk (identical bytes every call)."""
    universe = Box((0.0,) * scenario.dimension, (100.0,) * scenario.dimension)
    disk = Disk(model=DiskModel(page_size=scenario.page_size), buffer_pages=0)
    return DatasetCatalog(
        [
            Dataset.create(
                disk,
                dataset_id,
                f"ds{dataset_id}",
                scenario_objects(scenario, universe, dataset_id, count),
                universe,
                compression=scenario.compression,
            )
            for dataset_id, count in enumerate(scenario.counts)
        ]
    )


def scenario_queries(scenario: Scenario, catalog: DatasetCatalog) -> list[tuple[Box, list[int]]]:
    """Whole-universe, random and empty windows over random id lists (with repeats)."""
    rng = random.Random(scenario.seed)
    universe = catalog.universe
    ids = catalog.dataset_ids()
    queries = [(universe, ids), (universe, [ids[0], ids[0]])]
    for _ in range(scenario.n_queries):
        side = rng.choice((0.0, 1.0, 8.0, 30.0, 70.0))
        center = [rng.uniform(lo, hi) for lo, hi in zip(universe.lo, universe.hi)]
        window = Box.cube(center, side).clamp(universe)
        requested = [rng.choice(ids) for _ in range(rng.randint(1, len(ids) + 1))]
        queries.append((window, requested))
    return queries


def array_approach(kind: str, strategy: str, catalog: DatasetCatalog, scenario: Scenario):
    return _approach(kind, strategy, catalog, scenario, reference=False)


def reference_approach(kind: str, strategy: str, catalog: DatasetCatalog, scenario: Scenario):
    return _approach(kind, strategy, catalog, scenario, reference=True)


def _approach(kind, strategy, catalog, scenario, reference):
    disk = catalog.datasets()[0].disk
    universe = catalog.universe
    if kind == "BruteForce":
        return ReferenceBruteForce(catalog) if reference else BruteForceScan(catalog)
    index_class = {
        "FLAT": (FLATIndex, ReferenceFLAT),
        "RTree": (STRRTree, ReferenceRTree),
        "Grid": (GridIndex, ReferenceGrid),
    }[kind][reference]

    def factory(name: str):
        if kind == "Grid":
            return index_class(
                disk,
                name,
                universe,
                cells_per_dim=scenario.cells_per_dim,
                build_buffer_objects=scenario.build_buffer_objects,
            )
        return index_class(disk, name, universe, build_memory_pages=16)

    wrapper = {
        "1fE": (OneForEach, ReferenceOneForEach),
        "Ain1": (AllInOne, ReferenceAllInOne),
    }[strategy][reference]
    return wrapper(catalog, factory, f"{kind}-{strategy}")


def page_file_digests(disk: Disk) -> dict[str, str]:
    """SHA-256 of every file on the disk, over its pages in order."""
    digests = {}
    for name in sorted(disk.list_files()):
        sha = hashlib.sha256()
        for page_no in range(disk.num_pages(name)):
            sha.update(disk.backend.read(name, page_no))
        digests[name] = sha.hexdigest()
    return digests


def trace(approach, catalog: DatasetCatalog, queries) -> dict:
    """Build and query ``approach`` the way the figure runner does; record everything."""
    disk = catalog.datasets()[0].disk
    before = disk.stats_snapshot()
    approach.build()
    record = {"build_io": disk.stats_snapshot().delta_since(before), "queries": []}
    for box, dataset_ids in queries:
        disk.clear_cache()
        disk.reset_head()
        before = disk.stats_snapshot()
        answer = approach.query(box, dataset_ids)
        io = disk.stats_snapshot().delta_since(before)
        record["queries"].append((io, [obj.key() for obj in answer]))
    record["files"] = page_file_digests(disk)
    return record


APPROACHES = [
    (kind, strategy) for kind in ("FLAT", "RTree", "Grid") for strategy in ("1fE", "Ain1")
] + [("BruteForce", "")]


def assert_identical(scenario: Scenario, kind: str, strategy: str) -> None:
    catalog = make_catalog(scenario)
    queries = scenario_queries(scenario, catalog)
    got = trace(array_approach(kind, strategy, catalog, scenario), catalog, queries)
    reference_catalog = make_catalog(scenario)
    want = trace(
        reference_approach(kind, strategy, reference_catalog, scenario), reference_catalog, queries
    )
    assert got["files"] == want["files"]
    assert got["build_io"] == want["build_io"]
    for index, (got_query, want_query) in enumerate(zip(got["queries"], want["queries"])):
        assert got_query == want_query, f"query {index}: {queries[index]}"
    assert any(keys for _, keys in got["queries"]), "the scenario must return something"


@pytest.mark.parametrize("kind, strategy", APPROACHES, ids=[f"{k}-{s}".strip("-") for k, s in APPROACHES])
@pytest.mark.parametrize("scenario", SCENARIOS, ids=[s.name for s in SCENARIOS])
def test_array_baselines_are_byte_identical_to_the_per_object_models(scenario, kind, strategy):
    assert_identical(scenario, kind, strategy)


@pytest.mark.skipif(not DEEP_ITERATIONS, reason="set REPRO_FUZZ_ITERATIONS=N for deep mode")
@pytest.mark.parametrize("index", range(DEEP_ITERATIONS))
def test_random_scenarios_deep(index):
    scenario = random_scenario(index)
    if not any(scenario.counts):
        scenario = Scenario(**{**scenario.__dict__, "counts": scenario.counts[:-1] + (5,)})
    for kind, strategy in APPROACHES:
        assert_identical(scenario, kind, strategy)
