"""Multi-dataset strategies: one-for-each (1fE) and all-in-one (Ain1).

The static baselines index a single collection of objects; the paper
evaluates two ways of using them when there are many datasets:

* **1fE** builds one index per dataset.  A query probes only the indexes of
  the datasets it requests and unions the answers — cheap when few datasets
  are queried, increasingly expensive as more are.
* **Ain1** builds a single index over the union of all datasets.  A query
  probes that one (large) structure and filters out objects belonging to
  datasets that were not requested — insensitive to how many datasets are
  queried, but always pays for the full structure.

Both receive the records their indexes select and build a
:class:`~repro.data.spatial_object.SpatialObject` only for the rows they
return.  A dataset requested twice is answered once.

Space Odyssey is described by the paper as a hybrid of the two: per-dataset
adaptive indexes (like 1fE) plus merged hot areas (like Ain1).
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from repro.baselines.interface import (
    MultiDatasetIndex,
    SingleCollectionIndex,
    concat_records,
    distinct,
    to_objects,
)
from repro.data.dataset import DatasetCatalog
from repro.data.spatial_object import SpatialObject, spatial_object_dtype
from repro.geometry.box import Box

#: Builds a fresh single-collection index with a unique name.
IndexFactory = Callable[[str], SingleCollectionIndex]


class OneForEach(MultiDatasetIndex):
    """One index per dataset; probe only the indexes of the queried datasets."""

    def __init__(
        self,
        catalog: DatasetCatalog,
        index_factory: IndexFactory,
        name: str = "1fE",
    ) -> None:
        self._catalog = catalog
        self._factory = index_factory
        self.name = name
        self._indexes: dict[int, SingleCollectionIndex] = {}
        self._built = False

    @property
    def is_built(self) -> bool:
        """Whether every per-dataset index has been built."""
        return self._built

    @property
    def indexes(self) -> dict[int, SingleCollectionIndex]:
        """The per-dataset indexes, keyed by dataset id."""
        return dict(self._indexes)

    def build(self) -> None:
        """Build one index over each dataset's raw file."""
        if self._built:
            raise RuntimeError(f"{self.name} is already built")
        for dataset in self._catalog:
            index = self._factory(f"{self.name}_{dataset.name}")
            index.build([dataset])
            self._indexes[dataset.dataset_id] = index
        self._built = True

    def query(self, box: Box, dataset_ids: Iterable[int]) -> list[SpatialObject]:
        """Probe the index of every requested dataset once and union the answers.

        Answers come dataset by dataset, in first-occurrence order of the
        requested ids.
        """
        if not self._built:
            raise RuntimeError(f"{self.name} must be built before querying")
        parts: list[np.ndarray] = []
        for dataset_id in distinct(dataset_ids):
            self._catalog.get(dataset_id)  # validate the id
            parts.append(self._indexes[dataset_id].query_records(box))
        return to_objects(concat_records(parts, spatial_object_dtype(self._catalog.dimension)))

    def drop(self) -> None:
        """Drop every per-dataset index."""
        for index in self._indexes.values():
            index.drop()
        self._indexes.clear()
        self._built = False


class AllInOne(MultiDatasetIndex):
    """A single index over all datasets; filter answers by dataset id."""

    def __init__(
        self,
        catalog: DatasetCatalog,
        index_factory: IndexFactory,
        name: str = "Ain1",
    ) -> None:
        self._catalog = catalog
        self._factory = index_factory
        self.name = name
        self._index: SingleCollectionIndex | None = None
        self._built = False

    @property
    def is_built(self) -> bool:
        """Whether the combined index has been built."""
        return self._built

    @property
    def index(self) -> SingleCollectionIndex | None:
        """The underlying combined index (``None`` before :meth:`build`)."""
        return self._index

    def build(self) -> None:
        """Build one index over the union of every dataset's objects."""
        if self._built:
            raise RuntimeError(f"{self.name} is already built")
        self._index = self._factory(f"{self.name}_all")
        self._index.build(self._catalog.datasets())
        self._built = True

    def query(self, box: Box, dataset_ids: Iterable[int]) -> list[SpatialObject]:
        """Probe the combined index and filter out non-requested datasets."""
        if not self._built or self._index is None:
            raise RuntimeError(f"{self.name} must be built before querying")
        requested = distinct(dataset_ids)
        for dataset_id in requested:
            self._catalog.get(dataset_id)  # validate the id
        records = self._index.query_records(box)
        return to_objects(records[np.isin(records["dataset_id"], requested)])

    def drop(self) -> None:
        """Drop the combined index."""
        if self._index is not None:
            self._index.drop()
        self._index = None
        self._built = False
