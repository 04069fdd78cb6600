"""Index interfaces shared by every approach in the evaluation.

Two levels of abstraction are used:

* :class:`SingleCollectionIndex` — a spatial index over one *collection* of
  objects (one dataset, or — for the all-in-one strategy — the union of
  several datasets).  It is built once from raw files and then answers
  plain range queries.
* :class:`MultiDatasetIndex` — the approach-level interface the benchmark
  harness talks to.  It answers the paper's queries
  ``Q = {A; DS_1, ..., DS_N}``: a range ``A`` evaluated over a requested
  subset of datasets.  Space Odyssey, the 1fE/Ain1 strategy wrappers and
  the brute-force oracle all implement it.

A single-collection index answers with *records*: the structured rows of
``spatial_object_dtype`` that intersect the range, in the index's visiting
order (:meth:`SingleCollectionIndex.query_records`).  The approach that
owns it filters those rows by dataset and turns the survivors into
:class:`~repro.data.spatial_object.SpatialObject` instances once
(:func:`to_objects`), so no object is built for a row that is not
returned.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterable, Sequence

import numpy as np

from repro.data.columnar import DecodedGroup
from repro.data.dataset import Dataset, DatasetCatalog
from repro.data.spatial_object import SpatialObject, spatial_object_dtype
from repro.geometry.box import Box
from repro.geometry.vectorized import intersect_mask


def concat_records(parts: Sequence[np.ndarray], dtype: np.dtype) -> np.ndarray:
    """The record arrays ``parts`` as one array, in order (empty if none)."""
    return np.concatenate(parts) if parts else np.empty(0, dtype=dtype)


def intersecting(records: np.ndarray, box: Box) -> np.ndarray:
    """The rows of ``records`` whose ``lo``/``hi`` box intersects ``box``, in order.

    Records are spatial objects or node entries: any dtype with the two
    corner fields.
    """
    return records[intersect_mask(box.lo, box.hi, records["lo"], records["hi"])]


def scan_records(datasets: Sequence[Dataset], dtype: np.dtype) -> tuple[np.ndarray, int]:
    """Every record of ``datasets`` in scan order, and the raw pages read."""
    parts = [chunk for dataset in datasets for chunk in dataset.scan_arrays()]
    return concat_records(parts, dtype), sum(dataset.size_pages() for dataset in datasets)


def max_extents(records: np.ndarray) -> tuple[float, ...]:
    """The largest MBR side per axis (0.0 for no records)."""
    return tuple((records["hi"] - records["lo"]).max(axis=0, initial=0.0).tolist())


def to_objects(records: np.ndarray) -> list[SpatialObject]:
    """Every row of ``records`` as a :class:`SpatialObject`, in order."""
    group = DecodedGroup.from_records(records, records.dtype["lo"].shape[0])
    return group.materialize(np.ones(len(records), dtype=bool))


def distinct(dataset_ids: Iterable[int]) -> list[int]:
    """The requested dataset ids, each once, in first-occurrence order."""
    return list(dict.fromkeys(dataset_ids))


class SingleCollectionIndex(ABC):
    """A static spatial index over one collection of objects."""

    @abstractmethod
    def build(self, datasets: Sequence[Dataset]) -> None:
        """Read the raw files of ``datasets`` and build the index on disk."""

    @abstractmethod
    def query_records(self, box: Box) -> np.ndarray:
        """Every indexed record whose MBR intersects ``box``, in visiting order."""

    def query(self, box: Box) -> list[SpatialObject]:
        """Return every indexed object whose MBR intersects ``box``."""
        return to_objects(self.query_records(box))

    @property
    @abstractmethod
    def is_built(self) -> bool:
        """Whether :meth:`build` has completed."""

    def drop(self) -> None:
        """Remove any on-disk structures the index created (optional)."""


class MultiDatasetIndex(ABC):
    """An approach that answers range queries over subsets of datasets."""

    #: Human-readable approach name used in reports (e.g. ``"FLAT-Ain1"``).
    name: str = "abstract"

    @abstractmethod
    def build(self) -> None:
        """Perform all up-front work (may be a no-op for adaptive approaches)."""

    @abstractmethod
    def query(self, box: Box, dataset_ids: Iterable[int]) -> list[SpatialObject]:
        """Objects from the requested datasets whose MBRs intersect ``box``."""

    @property
    @abstractmethod
    def is_built(self) -> bool:
        """Whether the up-front build (if any) has completed."""


class BruteForceScan(MultiDatasetIndex):
    """The correctness oracle: scan the raw file of every queried dataset.

    It builds nothing and pays a full sequential scan of each requested
    dataset per query (and the CPU of testing every record), then keeps the
    intersecting records with one mask.  Tests compare every other approach
    against it.
    """

    name = "BruteForce"

    def __init__(self, catalog: DatasetCatalog) -> None:
        self._catalog = catalog

    def build(self) -> None:
        """Nothing to build."""

    @property
    def is_built(self) -> bool:
        """Always true: there is no build phase."""
        return True

    def query(self, box: Box, dataset_ids: Iterable[int]) -> list[SpatialObject]:
        """Scan each requested dataset once and keep intersecting objects."""
        parts: list[np.ndarray] = []
        for dataset_id in distinct(dataset_ids):
            dataset = self._catalog.get(dataset_id)
            parts.extend(dataset.scan_arrays())
            dataset.disk.charge_cpu_records(dataset.n_objects)
        records = concat_records(parts, spatial_object_dtype(self._catalog.dimension))
        return to_objects(intersecting(records, box))


def result_keys(objects: Iterable[SpatialObject]) -> set[tuple[int, int]]:
    """The set of ``(dataset_id, oid)`` identities of a query answer.

    Query answers are sets of objects; different approaches return them in
    different orders and this helper makes answers comparable.
    """
    return {obj.key() for obj in objects}
