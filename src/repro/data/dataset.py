"""Raw datasets on the simulated disk.

A :class:`Dataset` models exactly what Space Odyssey starts from: a raw,
*unindexed* file of spatial objects sitting on disk.  Static baselines read
the whole file to build their index up front; Space Odyssey reads it once,
lazily, the first time a query touches the dataset.

A :class:`DatasetCatalog` is the tiny in-memory catalog the query engines
share: it maps dataset identifiers to datasets and knows the common universe
(all of the paper's datasets describe subsets of the same brain volume).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from repro.data.spatial_object import SpatialObject, spatial_object_codec
from repro.geometry.box import Box
from repro.storage.disk import Disk
from repro.storage.pagedfile import PagedFile


def raw_file_name(name: str) -> str:
    """Conventional name of a dataset's raw file on the disk."""
    return f"raw/{name}.dat"


@dataclass
class Dataset:
    """One raw spatial dataset stored as a paged file of object records."""

    dataset_id: int
    name: str
    universe: Box
    n_objects: int
    disk: Disk
    file: PagedFile[SpatialObject] = field(repr=False)

    @classmethod
    def create(
        cls,
        disk: Disk,
        dataset_id: int,
        name: str,
        objects: Iterable[SpatialObject],
        universe: Box,
        compression: str | None = None,
    ) -> "Dataset":
        """Write ``objects`` sequentially into a new raw file and register it.

        ``compression`` (see :data:`repro.storage.codec.COMPRESSION_CODECS`)
        compresses the raw file's pages as they are written — raw dataset
        files are written once and only ever read back, the pattern page
        compression is built for.  Raises ``ValueError`` if an object lies
        outside ``universe`` or carries a different ``dataset_id`` — raw
        files are per dataset.
        """
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
        return cls(
            dataset_id=dataset_id,
            name=name,
            universe=universe,
            n_objects=count,
            disk=disk,
            file=file,
        )

    @classmethod
    def open(cls, disk: Disk, dataset_id: int, name: str, universe: Box) -> "Dataset":
        """Attach to an existing raw file (counts objects with one scan).

        The count runs over :meth:`PagedFile.scan_arrays`: the sequential
        runs, disk charges and per-page CRC checks of :meth:`scan`
        without building an object per record just to drop it.
        """
        codec = spatial_object_codec(universe.dimension)
        file: PagedFile[SpatialObject] = PagedFile(disk, raw_file_name(name), codec)
        if not file.exists():
            raise ValueError(f"no raw file for dataset {name!r}")
        count = sum(len(chunk) for chunk in file.scan_arrays())
        return cls(
            dataset_id=dataset_id,
            name=name,
            universe=universe,
            n_objects=count,
            disk=disk,
            file=file,
        )

    # ------------------------------------------------------------------ #
    # Access paths
    # ------------------------------------------------------------------ #

    @property
    def dimension(self) -> int:
        """Dimensionality of the dataset."""
        return self.universe.dimension

    def size_pages(self) -> int:
        """Number of pages the raw file occupies."""
        return self.file.num_pages()

    def scan(self) -> Iterator[SpatialObject]:
        """Sequentially scan the raw file, yielding every object.

        This is the in-situ access path: it charges one sequential pass of
        the whole file to the disk model, exactly what Space Odyssey pays on
        the first query that touches the dataset and what static indexes pay
        (at least once) during their build.
        """
        return self.file.scan()

    def scan_arrays(self) -> "Iterator":
        """Columnar :meth:`scan`: yield the raw records in structured-array chunks.

        Same sequential pass and disk charging as :meth:`scan`, but each
        chunk arrives as one NumPy structured array instead of per-object
        Python instances — the access path of the columnar first-touch
        initialisation.
        """
        return self.file.scan_arrays()

    def read_all(self) -> list[SpatialObject]:
        """Scan the raw file into a list."""
        return list(self.scan())

    def range_query_scan(self, box: Box) -> list[SpatialObject]:
        """Answer a range query by brute-force scanning the raw file.

        Used as the correctness oracle in tests and as the degenerate
        "no index" baseline.
        """
        matches = [obj for obj in self.scan() if obj.intersects(box)]
        self.disk.charge_cpu_records(self.n_objects)
        return matches


class DatasetCatalog:
    """The set of datasets an exploration session can query."""

    def __init__(self, datasets: Sequence[Dataset]) -> None:
        if not datasets:
            raise ValueError("a catalog needs at least one dataset")
        universe = datasets[0].universe
        dimension = universe.dimension
        self._datasets: dict[int, Dataset] = {}
        for dataset in datasets:
            if dataset.dimension != dimension:
                raise ValueError("all datasets in a catalog must share dimensionality")
            if dataset.dataset_id in self._datasets:
                raise ValueError(f"duplicate dataset id {dataset.dataset_id}")
            self._datasets[dataset.dataset_id] = dataset
        self._universe = Box.bounding([d.universe for d in datasets])

    @property
    def universe(self) -> Box:
        """Bounding box of all dataset universes (the shared brain volume)."""
        return self._universe

    @property
    def dimension(self) -> int:
        """Dimensionality shared by every dataset."""
        return self._universe.dimension

    def dataset_ids(self) -> list[int]:
        """Sorted dataset identifiers."""
        return sorted(self._datasets)

    def get(self, dataset_id: int) -> Dataset:
        """Look up one dataset by id."""
        try:
            return self._datasets[dataset_id]
        except KeyError:
            raise KeyError(f"unknown dataset id {dataset_id}") from None

    def datasets(self) -> list[Dataset]:
        """All datasets, ordered by id."""
        return [self._datasets[i] for i in self.dataset_ids()]

    def subset(self, dataset_ids: Iterable[int]) -> list[Dataset]:
        """The datasets named by ``dataset_ids`` (validating each id)."""
        return [self.get(i) for i in dataset_ids]

    def total_objects(self) -> int:
        """Total object count across all datasets."""
        return sum(d.n_objects for d in self._datasets.values())

    def total_pages(self) -> int:
        """Total raw pages across all datasets."""
        return sum(d.size_pages() for d in self._datasets.values())

    def __len__(self) -> int:
        return len(self._datasets)

    def __iter__(self) -> Iterator[Dataset]:
        return iter(self.datasets())
