"""Unit tests for the synthetic dataset generators.

``TestArrayMatchesReference`` holds the array generators to the per-object
path they replaced (``tests/generator_reference.py``) byte for byte.  A
fixed grid runs in tier-1; ``REPRO_FUZZ_ITERATIONS=N`` adds N randomly
derived scenarios (CI's deep-oracles job sets 25).
"""

from __future__ import annotations

import hashlib
import os
import random
from collections import Counter

import numpy as np
import pytest

import repro.storage.pagedfile as pagedfile_module
from repro.data.generator import (
    ClusteredBoxGenerator,
    GeneratorProfile,
    NeuroscienceDatasetGenerator,
    UniformBoxGenerator,
    brain_universe,
    derived_rng,
)
from repro.data.spatial_object import spatial_object_codec
from repro.data.suite import build_benchmark_suite
from repro.geometry.box import Box
from repro.storage.disk import Disk

from tests.generator_reference import REFERENCE, reference_suite_disk
from tests.scalar_reference import scan_objects

DEEP_ITERATIONS = int(os.environ.get("REPRO_FUZZ_ITERATIONS", "0"))


@pytest.fixture
def universe() -> Box:
    return brain_universe(dimension=3, side=1000.0)


class TestHelpers:
    def test_brain_universe(self):
        box = brain_universe(dimension=2, side=10.0)
        assert box == Box((0.0, 0.0), (10.0, 10.0))
        with pytest.raises(ValueError):
            brain_universe(side=-1)

    def test_derived_rng_is_deterministic(self):
        a = derived_rng(7, "x", 3).integers(1_000_000)
        b = derived_rng(7, "x", 3).integers(1_000_000)
        c = derived_rng(7, "y", 3).integers(1_000_000)
        assert a == b
        assert a != c

    def test_generator_profile_validation(self):
        with pytest.raises(ValueError):
            GeneratorProfile(object_extent_fraction=0)
        with pytest.raises(ValueError):
            GeneratorProfile(extent_jitter=1.0)


class TestUniformGenerator:
    def test_objects_inside_universe(self, universe):
        gen = UniformBoxGenerator(universe, seed=1)
        objects = list(gen.objects(dataset_id=0, count=200))
        assert len(objects) == 200
        assert all(universe.contains_box(o.box) for o in objects)
        assert all(o.dataset_id == 0 for o in objects)
        assert len({o.oid for o in objects}) == 200

    def test_deterministic_per_seed_and_dataset(self, universe):
        gen_a = UniformBoxGenerator(universe, seed=1)
        gen_b = UniformBoxGenerator(universe, seed=1)
        a = list(gen_a.objects(0, 20))
        b = list(gen_b.objects(0, 20))
        assert a == b
        different = list(gen_a.objects(1, 20))
        assert different != a


class TestClusteredGenerator:
    def test_objects_concentrate_near_centers(self, universe):
        gen = ClusteredBoxGenerator(universe, seed=2, n_clusters=3, cluster_sigma_fraction=0.02)
        objects = list(gen.objects(0, 300))
        centers = gen.cluster_centers
        near = 0
        for obj in objects:
            distances = np.linalg.norm(centers - np.asarray(obj.center), axis=1)
            if distances.min() < 0.15 * 1000:
                near += 1
        assert near / len(objects) > 0.9

    def test_cluster_centers_shared_across_datasets(self, universe):
        gen = ClusteredBoxGenerator(universe, seed=2, n_clusters=4, cluster_sigma_fraction=0.01)
        centers = gen.cluster_centers
        assert np.array_equal(ClusteredBoxGenerator(universe, seed=2, n_clusters=4).cluster_centers, centers)
        assert not np.allclose(ClusteredBoxGenerator(universe, seed=3, n_clusters=4).cluster_centers, centers)
        # Both datasets populate the same regions: every object of each lies
        # within 5 sigma of one of the shared centres, and each dataset puts
        # objects near every centre.
        for dataset_id in (0, 1):
            records = gen.object_array(dataset_id, 400)
            mid = (records["lo"] + records["hi"]) / 2.0
            distances = np.linalg.norm(mid[:, None, :] - centers[None, :, :], axis=2)
            assert distances.min(axis=1).max() < 5 * np.sqrt(3) * 10.0
            assert set(distances.argmin(axis=1).tolist()) == {0, 1, 2, 3}

    def test_validation(self, universe):
        with pytest.raises(ValueError):
            ClusteredBoxGenerator(universe, seed=1, n_clusters=0)
        with pytest.raises(ValueError):
            ClusteredBoxGenerator(universe, seed=1, cluster_sigma_fraction=0)


class TestNeuroscienceGenerator:
    def test_generates_requested_count(self, universe):
        gen = NeuroscienceDatasetGenerator(universe, seed=3)
        objects = list(gen.objects(0, 500))
        assert len(objects) == 500
        assert all(universe.contains_box(o.box) for o in objects)

    def test_spatial_skew_around_microcircuits(self, universe):
        gen = NeuroscienceDatasetGenerator(
            universe, seed=3, n_microcircuits=4, microcircuit_sigma_fraction=0.03
        )
        objects = list(gen.objects(0, 400))
        centers = gen.microcircuit_centers
        near = 0
        for obj in objects:
            distances = np.linalg.norm(centers - np.asarray(obj.center), axis=1)
            if distances.min() < 0.25 * 1000:
                near += 1
        assert near / len(objects) > 0.85

    def test_validation(self, universe):
        with pytest.raises(ValueError):
            NeuroscienceDatasetGenerator(universe, seed=1, n_microcircuits=0)
        with pytest.raises(ValueError):
            NeuroscienceDatasetGenerator(universe, seed=1, segments_per_neuron=0)
        with pytest.raises(ValueError):
            NeuroscienceDatasetGenerator(universe, seed=1, branch_probability=2.0)

    def test_generate_datasets_creates_raw_files(self, universe, disk):
        gen = NeuroscienceDatasetGenerator(universe, seed=5)
        datasets = gen.generate_datasets(disk, n_datasets=2, objects_per_dataset=150)
        assert len(datasets) == 2
        assert all(d.n_objects == 150 for d in datasets)
        assert datasets[0].dataset_id != datasets[1].dataset_id


class TestBenchmarkSuite:
    def test_build_benchmark_suite(self):
        suite = build_benchmark_suite(n_datasets=3, objects_per_dataset=120, seed=1)
        assert len(suite.catalog) == 3
        assert suite.catalog.total_objects() == 360
        assert suite.universe.dimension == 3

    def test_suite_is_deterministic(self):
        a = build_benchmark_suite(n_datasets=2, objects_per_dataset=80, seed=9)
        b = build_benchmark_suite(n_datasets=2, objects_per_dataset=80, seed=9)
        objs_a = list(scan_objects(a.catalog.get(0)))
        objs_b = list(scan_objects(b.catalog.get(0)))
        assert objs_a == objs_b

    def test_fork_creates_independent_copy(self):
        suite = build_benchmark_suite(n_datasets=2, objects_per_dataset=60, seed=4)
        fork = suite.fork()
        assert fork.disk is not suite.disk
        assert fork.catalog.total_objects() == suite.catalog.total_objects()
        # Mutating the fork's disk does not affect the master.
        fork.disk.create_file("scratch")
        assert not suite.disk.file_exists("scratch")
        # The fork starts with fresh I/O accounting.
        assert fork.disk.stats.pages_read == 0

    def test_fork_preserves_data(self):
        suite = build_benchmark_suite(n_datasets=1, objects_per_dataset=70, seed=4)
        fork = suite.fork()
        assert {o.key() for o in scan_objects(fork.catalog.get(0))} == {
            o.key() for o in scan_objects(suite.catalog.get(0))
        }

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            build_benchmark_suite(n_datasets=0)
        with pytest.raises(ValueError):
            build_benchmark_suite(objects_per_dataset=0)

    @pytest.mark.parametrize(
        "compression, encoder", [(None, "paginate_array"), ("zlib", "paginate_bytes_compressed")]
    )
    def test_ingest_builds_no_boxes_and_encodes_once_per_dataset(
        self, monkeypatch, compression, encoder
    ):
        calls: Counter = Counter()

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name in ("encode_page", "paginate_array", "paginate_bytes_compressed"):
            monkeypatch.setattr(
                pagedfile_module, name, counting(name, getattr(pagedfile_module, name))
            )
        monkeypatch.setattr(Box, "__post_init__", counting("box", Box.__post_init__))
        build_benchmark_suite(n_datasets=3, objects_per_dataset=500, compression=compression)
        # Two boxes whatever the size (the universe and the catalog's
        # bounding box); the per-object path built two per object, 3 002.
        assert calls.pop("box") == 2
        assert calls == {encoder: 3}


def file_digests(disk: Disk) -> dict[str, str]:
    """SHA-256 of every page file on ``disk``."""
    backend = disk.backend
    digests = {}
    for name in backend.list_files():
        digest = hashlib.sha256()
        for page_no in range(backend.num_pages(name)):
            digest.update(backend.read(name, page_no))
        digests[name] = digest.hexdigest()
    return digests


GENERATORS = (UniformBoxGenerator, ClusteredBoxGenerator, NeuroscienceDatasetGenerator)


def fixed_scenarios() -> list:
    """``(generator class, constructor kwargs, dataset id, count)`` cases."""
    universe = brain_universe()
    cases = []
    for cls in GENERATORS:
        name = cls.__name__
        for seed, dataset_id in ((1, 0), (4, 3)):
            # 40 cuts the first neuron short, 41 is one whole neuron.
            for count in (0, 1, 40, 41, 4_000):
                cases.append(
                    pytest.param(
                        cls,
                        {"universe": universe, "seed": seed},
                        dataset_id,
                        count,
                        id=f"{name}-seed{seed}-d{dataset_id}-n{count}",
                    )
                )
        profile = GeneratorProfile(object_extent_fraction=0.05, extent_jitter=0.0)
        cases.append(
            pytest.param(
                cls, {"universe": universe, "seed": 2, "profile": profile}, 1, 500, id=f"{name}-profile"
            )
        )
        square = brain_universe(dimension=2, side=50.0)
        cases.append(pytest.param(cls, {"universe": square, "seed": 3}, 2, 500, id=f"{name}-2d"))
    # Every step is longer than the universe along some axis (a unit vector
    # has a component >= 1/sqrt(3)), so the walk clips on every step.
    cases.append(
        pytest.param(
            NeuroscienceDatasetGenerator,
            {
                "universe": Box((-1.0, 0.0, 2.0), (1.0, 1.0, 3.0)),
                "seed": 5,
                "step_fraction": 2.0,
                "microcircuit_sigma_fraction": 0.5,
            },
            0,
            2_000,
            id="NeuroscienceDatasetGenerator-clipping",
        )
    )
    return cases


def random_scenario(seed: int):
    """One randomly derived case: any generator, dimension, universe and knobs."""
    draw = random.Random(seed)
    cls = draw.choice(GENERATORS)
    dimension = draw.randint(1, 3)
    lo = [draw.uniform(-100.0, 100.0) for _ in range(dimension)]
    universe = Box.from_corners(lo, [low + draw.uniform(0.5, 200.0) for low in lo])
    kwargs = {
        "universe": universe,
        "seed": draw.randrange(2**32),
        "profile": GeneratorProfile(
            object_extent_fraction=draw.uniform(1e-4, 0.3), extent_jitter=draw.uniform(0.0, 0.9)
        ),
    }
    if cls is ClusteredBoxGenerator:
        kwargs.update(n_clusters=draw.randint(1, 12), cluster_sigma_fraction=draw.uniform(0.001, 0.5))
    elif cls is NeuroscienceDatasetGenerator:
        kwargs.update(
            n_microcircuits=draw.randint(1, 30),
            segments_per_neuron=draw.randint(1, 60),
            microcircuit_sigma_fraction=draw.uniform(0.001, 0.5),
            step_fraction=draw.uniform(0.001, 1.5),
            branch_probability=draw.uniform(0.0, 1.0),
        )
    return pytest.param(
        cls, kwargs, draw.randint(0, 9), draw.randint(0, 3_000), id=f"deep-{seed}-{cls.__name__}"
    )


SCENARIOS = fixed_scenarios() + [random_scenario(seed) for seed in range(DEEP_ITERATIONS)]


def packed(objects, dimension: int) -> bytes:
    codec = spatial_object_codec(dimension)
    return b"".join(codec.pack(obj) for obj in objects)


class TestArrayMatchesReference:
    @pytest.mark.parametrize("cls, kwargs, dataset_id, count", SCENARIOS)
    def test_object_array_is_the_per_object_bytes(self, cls, kwargs, dataset_id, count):
        reference = list(REFERENCE[cls](**kwargs).objects(dataset_id, count))
        generator = cls(**kwargs)
        records = generator.object_array(dataset_id, count)
        assert len(records) == count
        assert records.tobytes() == packed(reference, kwargs["universe"].dimension)
        assert list(generator.objects(dataset_id, count)) == reference

    def test_zero_norm_direction_falls_back_to_the_diagonal(self, monkeypatch):
        class ZeroNormal:
            """The dataset's RNG, except that every normal draw is zero."""

            def __init__(self, rng):
                self._rng = rng

            def normal(self, loc=0.0, scale=1.0, size=None):
                return np.zeros(np.broadcast_shapes(np.shape(loc), np.shape(scale), size or ()))

            def __getattr__(self, name):
                return getattr(self._rng, name)

        real_rng = NeuroscienceDatasetGenerator._rng
        monkeypatch.setattr(
            NeuroscienceDatasetGenerator, "_rng", lambda self, d: ZeroNormal(real_rng(self, d))
        )
        kwargs = {"universe": brain_universe(), "seed": 6}
        reference = list(REFERENCE[NeuroscienceDatasetGenerator](**kwargs).objects(1, 300))
        records = NeuroscienceDatasetGenerator(**kwargs).object_array(1, 300)
        assert records.tobytes() == packed(reference, 3)
        # Every soma sits at the origin and every step runs along (1, 1, 1):
        # each box lies on the diagonal, up to its own extent (< 6 here).
        centers = (records["lo"] + records["hi"]) / 2.0
        assert np.ptp(centers, axis=1).max() < 6.0
        assert centers.max() > 50.0

    @pytest.mark.parametrize("compression", [None, "zlib"])
    def test_suite_raw_files_are_the_per_object_bytes(self, compression):
        suite = build_benchmark_suite(
            n_datasets=6, objects_per_dataset=1_500, seed=7, compression=compression
        )
        reference = reference_suite_disk(6, 1_500, seed=7, compression=compression)
        digests = file_digests(suite.disk)
        assert len(digests) == 6
        assert digests == file_digests(reference)
