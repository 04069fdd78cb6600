"""The per-object ingest path, kept as the reference model of the generators.

``src/`` builds a dataset as one structured array
(:meth:`~repro.data.generator._BaseGenerator.object_array`) and writes it
with one ``append_group_array``.  What it replaced lives here unchanged:
``_clip_point``, ``_object_at`` (clip → ``Box.from_center`` →
``Box.clamp`` → ``SpatialObject``, one object at a time), the three
``objects()`` loops that drew and yielded one object per step, and the
raw-file write loop of ``Dataset.create`` (``append_group`` in batches of
``records_per_page * 64`` records, through the scalar codec).
``tests/test_data_generator.py`` compares the array path with this one byte
for byte.

Each reference class subclasses the generator it models, so constructor
validation and the shared centres (drawn in ``__init__``) are the real
ones; only the per-object path is overridden.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.data.dataset import Dataset, raw_file_name
from repro.data.generator import (
    ClusteredBoxGenerator,
    NeuroscienceDatasetGenerator,
    UniformBoxGenerator,
    brain_universe,
)
from repro.data.spatial_object import SpatialObject, spatial_object_codec
from repro.geometry.box import Box
from repro.storage.disk import Disk
from repro.storage.pagedfile import PagedFile


def _clip_point(point: np.ndarray, universe: Box) -> np.ndarray:
    return np.clip(point, np.asarray(universe.lo), np.asarray(universe.hi))


class _PerObject:
    """``_object_at``: one validated object per call."""

    def _object_at(
        self,
        rng: np.random.Generator,
        oid: int,
        dataset_id: int,
        center: np.ndarray,
        extent_scale: float = 1.0,
    ) -> SpatialObject:
        dim = self._universe.dimension
        universe_extents = np.asarray(self._universe.extents)
        jitter = rng.uniform(
            1.0 - self._profile.extent_jitter, 1.0 + self._profile.extent_jitter, size=dim
        )
        extents = universe_extents * self._profile.object_extent_fraction * jitter * extent_scale
        center = _clip_point(center, self._universe)
        box = Box.from_center(tuple(float(c) for c in center), tuple(float(e) for e in extents))
        return SpatialObject(oid=oid, dataset_id=dataset_id, box=box.clamp(self._universe))


class ReferenceUniform(_PerObject, UniformBoxGenerator):
    def objects(self, dataset_id: int, count: int) -> Iterator[SpatialObject]:
        """Yield ``count`` uniformly placed objects."""
        rng = self._rng(dataset_id)
        lo = np.asarray(self._universe.lo)
        hi = np.asarray(self._universe.hi)
        for oid in range(count):
            center = rng.uniform(lo, hi)
            yield self._object_at(rng, oid, dataset_id, center)


class ReferenceClustered(_PerObject, ClusteredBoxGenerator):
    def objects(self, dataset_id: int, count: int) -> Iterator[SpatialObject]:
        """Yield ``count`` objects drawn around the shared cluster centres."""
        rng = self._rng(dataset_id)
        sigma = np.asarray(self._universe.extents) * self._sigma_fraction
        for oid in range(count):
            cluster = int(rng.integers(self._n_clusters))
            center = rng.normal(self._centers[cluster], sigma)
            yield self._object_at(rng, oid, dataset_id, center)


class ReferenceNeuroscience(_PerObject, NeuroscienceDatasetGenerator):
    def objects(self, dataset_id: int, count: int) -> Iterator[SpatialObject]:
        """Yield ``count`` segment objects grown from synthetic neurons."""
        rng = self._rng(dataset_id)
        dim = self._universe.dimension
        extents = np.asarray(self._universe.extents)
        sigma = extents * self._sigma_fraction
        step = extents * self._step_fraction
        oid = 0
        while oid < count:
            # Start a new neuron: soma near a microcircuit centre.
            circuit = int(rng.integers(self._n_microcircuits))
            soma = rng.normal(self._centers[circuit], sigma)
            soma = _clip_point(soma, self._universe)
            # The soma itself is a (slightly larger) object.
            yield self._object_at(rng, oid, dataset_id, soma, extent_scale=2.0)
            oid += 1
            # Grow the arbour with a branching random walk.
            frontier: list[np.ndarray] = [soma.copy()]
            segments_left = min(self._segments_per_neuron, count - oid)
            for _ in range(segments_left):
                if not frontier:
                    break
                tip_index = int(rng.integers(len(frontier)))
                tip = frontier[tip_index]
                direction = rng.normal(0.0, 1.0, size=dim)
                norm = np.linalg.norm(direction)
                if norm == 0:
                    direction = np.ones(dim)
                    norm = np.linalg.norm(direction)
                direction /= norm
                new_tip = _clip_point(tip + direction * step, self._universe)
                midpoint = (tip + new_tip) / 2.0
                yield self._object_at(rng, oid, dataset_id, midpoint)
                oid += 1
                frontier[tip_index] = new_tip
                if rng.uniform() < self._branch_probability:
                    frontier.append(new_tip.copy())


#: The reference model of each generator class.
REFERENCE = {
    UniformBoxGenerator: ReferenceUniform,
    ClusteredBoxGenerator: ReferenceClustered,
    NeuroscienceDatasetGenerator: ReferenceNeuroscience,
}


def reference_create(
    disk: Disk,
    dataset_id: int,
    name: str,
    objects: Iterable[SpatialObject],
    universe: Box,
    compression: str | None = None,
) -> Dataset:
    """The per-object ``Dataset.create``: checked and encoded object by object."""
    codec = spatial_object_codec(universe.dimension)
    file: PagedFile[SpatialObject] = PagedFile(
        disk, raw_file_name(name), codec, compression=compression
    )
    if file.exists():
        raise ValueError(f"dataset file already exists for {name!r}")
    count = 0
    batch: list[SpatialObject] = []
    batch_size = file.records_per_page * 64
    for obj in objects:
        if obj.dataset_id != dataset_id:
            raise ValueError(
                f"object {obj.oid} carries dataset_id {obj.dataset_id}, "
                f"expected {dataset_id}"
            )
        if not universe.intersects(obj.box):
            raise ValueError(f"object {obj.oid} lies outside the universe")
        batch.append(obj)
        count += 1
        if len(batch) >= batch_size:
            file.append_group(batch)
            batch = []
    if batch:
        file.append_group(batch)
    if count == 0:
        # Materialise an empty file so scans and builds behave uniformly.
        file.append_group([])
    return Dataset(
        dataset_id=dataset_id,
        name=name,
        universe=universe,
        n_objects=count,
        disk=disk,
        file=file,
    )


def reference_suite_disk(
    n_datasets: int, objects_per_dataset: int, seed: int = 7, compression: str | None = None
) -> Disk:
    """The raw files of ``build_benchmark_suite``, written by the per-object path."""
    disk = Disk()
    universe = brain_universe()
    generator = ReferenceNeuroscience(universe=universe, seed=seed)
    for dataset_id in range(n_datasets):
        reference_create(
            disk,
            dataset_id,
            f"neuro_{dataset_id:02d}",
            generator.objects(dataset_id, objects_per_dataset),
            universe,
            compression=compression,
        )
    return disk
