"""Synthetic scientific dataset generators.

The paper's datasets are ten subsets of neurons from the same brain volume,
each neuron modelled as a 3-D surface mesh; the objects are therefore many,
small, and heavily clustered (neurons bundle into columns and layers).  The
:class:`NeuroscienceDatasetGenerator` reproduces those characteristics
synthetically: it places somata in Gaussian clusters ("microcircuits") and
grows a branching arbour of short segments around each soma, every segment
becoming one spatial object (its MBR).

Two simpler generators are provided for tests and ablations:
:class:`UniformBoxGenerator` (no spatial skew) and
:class:`ClusteredBoxGenerator` (pure Gaussian blobs, no arbour structure).

Every generator builds a dataset as one structured array of
:func:`~repro.data.spatial_object.spatial_object_dtype`
(:meth:`~_BaseGenerator.object_array`), which :meth:`Dataset.create
<repro.data.dataset.Dataset.create>` writes with one
``append_group_array``; :meth:`~_BaseGenerator.objects` iterates the same
rows as :class:`~repro.data.spatial_object.SpatialObject` instances.  The
random stream is the contract: every draw is a scalar ``Generator`` call
in the order the per-object path made it, so a seed still names the raw
bytes that path wrote.  Only what no draw depends on is vectorised:
centres, extents, ``from_center`` and ``clamp`` run as whole-array NumPy
with the same IEEE operations in the same order
(``tests/generator_reference.py`` keeps the per-object path and
``tests/test_data_generator.py`` compares the bytes).
"""

from __future__ import annotations

import itertools
import zlib
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.data.dataset import Dataset, check_records
from repro.data.spatial_object import SpatialObject, spatial_object_dtype
from repro.geometry.box import Box
from repro.storage.disk import Disk


def derived_rng(seed: int, *parts: int | str) -> np.random.Generator:
    """A reproducible RNG derived from a base seed and extra labels.

    String labels are hashed with CRC32 so dataset generators can derive
    independent, stable streams for "the cluster centres", "dataset 3", etc.
    """
    entropy: list[int] = [seed & 0xFFFFFFFF]
    for part in parts:
        if isinstance(part, str):
            entropy.append(zlib.crc32(part.encode("utf-8")))
        else:
            entropy.append(int(part) & 0xFFFFFFFF)
    return np.random.default_rng(np.random.SeedSequence(entropy))


@dataclass(frozen=True, slots=True)
class GeneratorProfile:
    """Shared knobs of all generators.

    ``object_extent_fraction`` is the mean object side length relative to
    the universe side; the paper's mesh fragments are tiny relative to the
    brain volume, so the default keeps objects a few orders of magnitude
    smaller than the universe.
    """

    object_extent_fraction: float = 2e-3
    extent_jitter: float = 0.5

    def __post_init__(self) -> None:
        if not 0 < self.object_extent_fraction <= 1:
            raise ValueError("object_extent_fraction must be in (0, 1]")
        if not 0 <= self.extent_jitter < 1:
            raise ValueError("extent_jitter must be in [0, 1)")


class _BaseGenerator:
    """Common plumbing: RNG handling and the whole-array object geometry."""

    def __init__(self, universe: Box, seed: int, profile: GeneratorProfile | None = None) -> None:
        self._universe = universe
        self._seed = seed
        self._profile = profile or GeneratorProfile()

    @property
    def universe(self) -> Box:
        """The universe every generated object lies in."""
        return self._universe

    def _rng(self, dataset_id: int) -> np.random.Generator:
        return derived_rng(self._seed, "dataset", dataset_id)

    def _jitter_range(self) -> tuple[float, float]:
        """Bounds of the per-axis extent jitter every object draws."""
        jitter = self._profile.extent_jitter
        return 1.0 - jitter, 1.0 + jitter

    def _records(
        self,
        dataset_id: int,
        centers: np.ndarray,
        jitter: np.ndarray,
        extent_scale: np.ndarray | float = 1.0,
    ) -> np.ndarray:
        """The records of objects centred at ``centers`` (one row each).

        Row by row this is the per-object construction — clip the centre,
        ``extents = universe extents * fraction * jitter * scale``,
        ``Box.from_center``, ``Box.clamp`` to the universe — as the same
        IEEE operations in the same order over whole arrays.  The clamp
        keeps Python's ``min``/``max`` tie rule (the first argument wins),
        which ``np.minimum``/``np.maximum`` do not promise for signed zeros.
        """
        universe = self._universe
        u_lo = np.asarray(universe.lo)
        u_hi = np.asarray(universe.hi)
        extents = (
            np.asarray(universe.extents) * self._profile.object_extent_fraction * jitter * extent_scale
        )
        centers = np.clip(centers, u_lo, u_hi)
        half = extents / 2.0
        lo = centers - half
        lo = np.where(u_lo > lo, u_lo, lo)
        lo = np.where(u_hi < lo, u_hi, lo)
        hi = centers + half
        hi = np.where(u_hi < hi, u_hi, hi)
        hi = np.where(u_lo > hi, u_lo, hi)
        records = np.empty(len(centers), dtype=spatial_object_dtype(universe.dimension))
        records["oid"] = np.arange(len(centers))
        records["dataset_id"] = dataset_id
        records["lo"] = lo
        records["hi"] = hi
        return records

    # -- public API ------------------------------------------------------- #

    def object_array(self, dataset_id: int, count: int) -> np.ndarray:
        """The dataset's ``count`` objects as one structured array (by subclasses)."""
        raise NotImplementedError

    def objects(self, dataset_id: int, count: int) -> Iterator[SpatialObject]:
        """Yield the rows of :meth:`object_array` as objects."""
        records = self.object_array(dataset_id, count)
        check_records(records, dataset_id, self._universe)
        trusted = Box._trusted
        for oid, lo, hi in zip(
            records["oid"].tolist(), records["lo"].tolist(), records["hi"].tolist()
        ):
            yield SpatialObject(oid=oid, dataset_id=dataset_id, box=trusted(tuple(lo), tuple(hi)))

    def create_dataset(
        self,
        disk: Disk,
        dataset_id: int,
        name: str,
        count: int,
        compression: str | None = None,
    ) -> Dataset:
        """Generate ``count`` objects and persist them as a raw dataset."""
        return Dataset.create(
            disk=disk,
            dataset_id=dataset_id,
            name=name,
            objects=self.object_array(dataset_id, count),
            universe=self._universe,
            compression=compression,
        )


class UniformBoxGenerator(_BaseGenerator):
    """Objects placed uniformly at random in the universe (no skew)."""

    def object_array(self, dataset_id: int, count: int) -> np.ndarray:
        """``count`` uniformly placed objects."""
        rng = self._rng(dataset_id)
        lo = np.asarray(self._universe.lo)
        hi = np.asarray(self._universe.hi)
        dim = self._universe.dimension
        low, high = self._jitter_range()
        centers = np.empty((count, dim))
        jitter = np.empty((count, dim))
        for oid in range(count):
            centers[oid] = rng.uniform(lo, hi)
            jitter[oid] = rng.uniform(low, high, size=dim)
        return self._records(dataset_id, centers, jitter)


class ClusteredBoxGenerator(_BaseGenerator):
    """Objects drawn from Gaussian clusters (pure spatial skew, no structure)."""

    def __init__(
        self,
        universe: Box,
        seed: int,
        n_clusters: int = 10,
        cluster_sigma_fraction: float = 0.03,
        profile: GeneratorProfile | None = None,
    ) -> None:
        super().__init__(universe, seed, profile)
        if n_clusters < 1:
            raise ValueError("n_clusters must be >= 1")
        if cluster_sigma_fraction <= 0:
            raise ValueError("cluster_sigma_fraction must be positive")
        self._n_clusters = n_clusters
        self._sigma_fraction = cluster_sigma_fraction
        # Cluster centres are shared by every dataset generated from this
        # generator so that "the same brain areas" are populated everywhere.
        rng = derived_rng(seed, "clusters")
        self._centers = rng.uniform(
            np.asarray(universe.lo), np.asarray(universe.hi), size=(n_clusters, universe.dimension)
        )

    @property
    def cluster_centers(self) -> np.ndarray:
        """The shared cluster centres (``n_clusters`` × ``dimension``)."""
        return self._centers.copy()

    def object_array(self, dataset_id: int, count: int) -> np.ndarray:
        """``count`` objects drawn around the shared cluster centres."""
        rng = self._rng(dataset_id)
        dim = self._universe.dimension
        sigma = np.asarray(self._universe.extents) * self._sigma_fraction
        low, high = self._jitter_range()
        centers = np.empty((count, dim))
        jitter = np.empty((count, dim))
        for oid in range(count):
            cluster = int(rng.integers(self._n_clusters))
            centers[oid] = rng.normal(self._centers[cluster], sigma)
            jitter[oid] = rng.uniform(low, high, size=dim)
        return self._records(dataset_id, centers, jitter)


class NeuroscienceDatasetGenerator(_BaseGenerator):
    """Synthetic neuron morphologies: clustered somata with branching arbours.

    Each neuron is generated as follows:

    1. its soma is placed near one of ``n_microcircuits`` shared cluster
       centres (all datasets describe subsets of the same tissue, so the
       centres are shared across datasets);
    2. a random branching walk grows ``segments_per_neuron`` short segments
       away from the soma; every segment becomes one spatial object whose
       MBR is slightly elongated along the direction of growth.

    The result has the two properties the paper's workloads rely on: strong
    spatial clustering (hot brain regions) and many small objects whose
    extents straddle partition boundaries, which exercises the query-window
    extension machinery.
    """

    def __init__(
        self,
        universe: Box,
        seed: int,
        n_microcircuits: int = 24,
        segments_per_neuron: int = 40,
        microcircuit_sigma_fraction: float = 0.04,
        step_fraction: float = 0.008,
        branch_probability: float = 0.08,
        profile: GeneratorProfile | None = None,
    ) -> None:
        super().__init__(universe, seed, profile)
        if n_microcircuits < 1:
            raise ValueError("n_microcircuits must be >= 1")
        if segments_per_neuron < 1:
            raise ValueError("segments_per_neuron must be >= 1")
        if not 0 <= branch_probability <= 1:
            raise ValueError("branch_probability must be in [0, 1]")
        self._n_microcircuits = n_microcircuits
        self._segments_per_neuron = segments_per_neuron
        self._sigma_fraction = microcircuit_sigma_fraction
        self._step_fraction = step_fraction
        self._branch_probability = branch_probability
        rng = derived_rng(seed, "microcircuits")
        self._centers = rng.uniform(
            np.asarray(universe.lo),
            np.asarray(universe.hi),
            size=(n_microcircuits, universe.dimension),
        )

    @property
    def microcircuit_centers(self) -> np.ndarray:
        """Shared microcircuit centres (hot regions of the tissue)."""
        return self._centers.copy()

    def object_array(self, dataset_id: int, count: int) -> np.ndarray:
        """``count`` segment objects grown from synthetic neurons.

        The draws come first, in the walk's order: per neuron the
        microcircuit, the soma and its jitter, then per segment the tip it
        grows from, its direction, its jitter and whether it branches.  No
        draw depends on the geometry (the frontier's length is one plus
        the branches so far), so the walk itself runs afterwards over
        plain floats, and everything else over whole arrays.
        """
        rng = self._rng(dataset_id)
        universe = self._universe
        dim = universe.dimension
        extents = np.asarray(universe.extents)
        sigma = extents * self._sigma_fraction
        low, high = self._jitter_range()
        draws = np.empty((count, dim))  # somata, then segment directions
        jitter = np.empty((count, dim))
        neurons: list[tuple[int, int]] = []  # (soma row, segments)
        tips: list[int] = []
        branches: list[bool] = []
        oid = 0
        while oid < count:
            # Start a new neuron: soma near a microcircuit centre.
            circuit = int(rng.integers(self._n_microcircuits))
            draws[oid] = rng.normal(self._centers[circuit], sigma)
            jitter[oid] = rng.uniform(low, high, size=dim)
            oid += 1
            segments = min(self._segments_per_neuron, count - oid)
            neurons.append((oid - 1, segments))
            # Grow the arbour with a branching random walk.
            frontier_size = 1
            for _ in range(segments):
                tips.append(int(rng.integers(frontier_size)))
                draws[oid] = rng.normal(0.0, 1.0, size=dim)
                jitter[oid] = rng.uniform(low, high, size=dim)
                oid += 1
                branched = rng.uniform() < self._branch_probability
                branches.append(branched)
                frontier_size += branched

        soma_rows = np.array([row for row, _ in neurons], dtype=np.intp)
        is_segment = np.ones(count, dtype=bool)
        is_segment[soma_rows] = False
        somata = np.clip(draws[soma_rows], np.asarray(universe.lo), np.asarray(universe.hi))
        # Unit directions; ``np.linalg.norm`` of one vector is this dot product.
        directions = draws[is_segment]
        norm = np.sqrt(np.vecdot(directions, directions))
        zero = norm == 0
        if zero.any():
            directions[zero] = 1.0
            norm = np.sqrt(np.vecdot(directions, directions))
        directions /= norm[:, None]

        # The walk, one float at a time: ``min(max(v, lo), hi)`` is the value
        # ``np.clip`` gives (ties keep ``v``, NaN propagates).
        step = (extents * self._step_fraction).tolist()
        bounds = list(zip(universe.lo, universe.hi))
        walk = zip(tips, directions.tolist(), branches)
        midpoints: list[list[float]] = []
        for soma, (_, segments) in zip(somata.tolist(), neurons):
            frontier = [soma]
            for tip_index, direction, branched in itertools.islice(walk, segments):
                tip = frontier[tip_index]
                new_tip = [
                    min(max(t + d * s, b_lo), b_hi)
                    for t, d, s, (b_lo, b_hi) in zip(tip, direction, step, bounds)
                ]
                midpoints.append([(t + n) / 2.0 for t, n in zip(tip, new_tip)])
                frontier[tip_index] = new_tip
                if branched:
                    frontier.append(new_tip)

        centers = np.empty((count, dim))
        centers[soma_rows] = somata
        centers[is_segment] = np.array(midpoints, dtype=np.float64).reshape(-1, dim)
        scale = np.ones((count, 1))
        scale[soma_rows] = 2.0  # the soma is a (slightly larger) object
        return self._records(dataset_id, centers, jitter, scale)

    def generate_datasets(
        self,
        disk: Disk,
        n_datasets: int,
        objects_per_dataset: int,
        name_prefix: str = "neuro",
        compression: str | None = None,
    ) -> list[Dataset]:
        """Create ``n_datasets`` raw datasets sharing this generator's tissue."""
        datasets = []
        for dataset_id in range(n_datasets):
            datasets.append(
                self.create_dataset(
                    disk=disk,
                    dataset_id=dataset_id,
                    name=f"{name_prefix}_{dataset_id:02d}",
                    count=objects_per_dataset,
                    compression=compression,
                )
            )
        return datasets


def brain_universe(dimension: int = 3, side: float = 1000.0) -> Box:
    """The shared universe used by the benchmark suite (a cubic brain volume).

    The coordinates are in arbitrary micrometre-like units; only ratios
    (query volume vs universe volume vs object extents) matter for the
    reproduction.
    """
    if side <= 0:
        raise ValueError("side must be positive")
    return Box((0.0,) * dimension, (side,) * dimension)
