"""Raw datasets on the simulated disk.

A :class:`Dataset` models exactly what Space Odyssey starts from: a raw,
*unindexed* file of spatial objects sitting on disk.  Static baselines read
the whole file to build their index up front; Space Odyssey reads it once,
lazily, the first time a query touches the dataset.  Both read it the same
way, through :meth:`Dataset.scan_arrays`: the raw file is only ever read as
structured-array chunks, never as per-object records.

A :class:`DatasetCatalog` is the tiny in-memory catalog the query engines
share: it maps dataset identifiers to datasets and knows the common universe
(all of the paper's datasets describe subsets of the same brain volume).

A raw file is written once, from one structured array of
:func:`~repro.data.spatial_object.spatial_object_dtype`: the generators
build that array directly, and an iterable of
:class:`~repro.data.spatial_object.SpatialObject` is packed into one by
the codec first.  :func:`check_records` validates every row in one
vectorised pass and :meth:`PagedFile.append_group_array` writes them all.

Raw files are the only files that may be compressed (``compression="zlib"``
in :meth:`Dataset.create`): they are written once and only read back.  A
zlib page holds one page's records, and readers follow each page's header,
so a dataset's object count reads plain, zlib and formerly packed pages alike.

:meth:`Dataset.open` (what recovery calls per raw file) reads no page.  The
object count of an opened dataset is taken by one scan the first time
:attr:`Dataset.n_objects` is read, and kept; the engine itself never reads
it, so a recovery that touches few datasets reads only those raw files, and
a damaged raw page surfaces where the page is first read.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.data.spatial_object import SpatialObject, spatial_object_codec
from repro.geometry.box import Box
from repro.geometry.vectorized import intersect_mask
from repro.storage.disk import Disk
from repro.storage.pagedfile import PagedFile


def raw_file_name(name: str) -> str:
    """Conventional name of a dataset's raw file on the disk."""
    return f"raw/{name}.dat"


def check_records(records: np.ndarray, dataset_id: int, universe: Box) -> None:
    """Raise if any record may not be written to a raw file of ``dataset_id``.

    ``records`` must have the universe's spatial-object dtype (else
    ``TypeError``, as :meth:`PagedFile.append_group_array` raises).  Each
    row must then have valid corners, carry ``dataset_id`` and intersect
    ``universe``.  The rows are tested in one vectorised pass; the
    ``ValueError`` names the first failing row's ``oid``, and a NaN or
    inverted corner is rebuilt through the checking :class:`Box`
    constructor, so the message carries that constructor's text.
    """
    dtype = spatial_object_codec(universe.dimension).dtype
    if records.dtype != dtype:
        raise TypeError(
            f"array dtype {records.dtype} does not match the file's record dtype {dtype}"
        )
    lo = records["lo"]
    hi = records["hi"]
    ok = records["dataset_id"] == dataset_id
    ok &= intersect_mask(universe.lo, universe.hi, lo, hi)
    for axis in range(universe.dimension):
        ok &= lo[:, axis] <= hi[:, axis]  # false for an inverted or a NaN corner
    if ok.all():
        return
    row = int(np.argmin(ok))
    oid = int(records["oid"][row])
    try:
        Box(tuple(lo[row].tolist()), tuple(hi[row].tolist()))
    except ValueError as exc:
        raise ValueError(f"object {oid}: {exc}") from None
    carried = int(records["dataset_id"][row])
    if carried != dataset_id:
        raise ValueError(f"object {oid} carries dataset_id {carried}, expected {dataset_id}")
    raise ValueError(f"object {oid} lies outside the universe")


@dataclass(init=False)
class Dataset:
    """One raw spatial dataset stored as a paged file of object records.

    ``n_objects`` may be ``None`` (what :meth:`open` passes): the count is
    then taken on first read.  It takes no part in equality.
    """

    dataset_id: int
    name: str
    universe: Box
    disk: Disk
    file: PagedFile[SpatialObject] = field(repr=False)

    def __init__(
        self,
        dataset_id: int,
        name: str,
        universe: Box,
        n_objects: int | None,
        disk: Disk,
        file: PagedFile[SpatialObject],
    ) -> None:
        self.dataset_id = dataset_id
        self.name = name
        self.universe = universe
        self.disk = disk
        self.file = file
        self._n_objects = n_objects
        self._count_lock = threading.Lock()

    @property
    def n_objects(self) -> int:
        """Number of objects in the raw file (one scan on the first read if unknown)."""
        if self._n_objects is None:
            with self._count_lock:
                if self._n_objects is None:
                    self._n_objects = sum(len(chunk) for chunk in self.scan_arrays())
        return self._n_objects

    @classmethod
    def create(
        cls,
        disk: Disk,
        dataset_id: int,
        name: str,
        objects: np.ndarray | Iterable[SpatialObject],
        universe: Box,
        compression: str | None = None,
    ) -> "Dataset":
        """Write ``objects`` sequentially into a new raw file and register it.

        ``objects`` is a structured array of the universe's spatial-object
        dtype (what the generators build) or an iterable of
        :class:`SpatialObject`, which the codec packs into such an array
        first.  The records are checked by :func:`check_records` before
        anything is written, so a ``ValueError`` (an object outside
        ``universe``, another ``dataset_id`` — raw files are per dataset —
        or a NaN or inverted corner) leaves no file behind; then one
        :meth:`PagedFile.append_group_array` writes them all, creating
        the file even when there are none.  ``compression`` is ``None`` or
        ``"zlib"``: each raw page's records are stored as one zlib payload
        where that fits the page (see
        :func:`repro.storage.codec.paginate_bytes_compressed`); the file
        occupies the same pages either way.
        """
        codec = spatial_object_codec(universe.dimension)
        file: PagedFile[SpatialObject] = PagedFile(
            disk, raw_file_name(name), codec, compression=compression
        )
        if file.exists():
            raise ValueError(f"dataset file already exists for {name!r}")
        if isinstance(objects, np.ndarray):
            records = objects
        else:
            records = np.frombuffer(b"".join(map(codec.pack, objects)), dtype=codec.dtype)
        check_records(records, dataset_id, universe)
        file.append_group_array(records)
        return cls(
            dataset_id=dataset_id,
            name=name,
            universe=universe,
            n_objects=len(records),
            disk=disk,
            file=file,
        )

    @classmethod
    def open(cls, disk: Disk, dataset_id: int, name: str, universe: Box) -> "Dataset":
        """Attach to an existing raw file, reading none of its pages.

        :attr:`n_objects` is counted on its first read, over
        :meth:`scan_arrays`: one sequential pass with its disk charges and
        per-page CRC checks, without building an object per record.
        """
        codec = spatial_object_codec(universe.dimension)
        file: PagedFile[SpatialObject] = PagedFile(disk, raw_file_name(name), codec)
        if not file.exists():
            raise ValueError(f"no raw file for dataset {name!r}")
        return cls(
            dataset_id=dataset_id,
            name=name,
            universe=universe,
            n_objects=None,
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

    def scan_arrays(self) -> Iterator[np.ndarray]:
        """Sequentially scan the raw file in structured-array chunks.

        This is the in-situ access path: it charges one sequential pass of
        the whole file to the disk model, exactly what Space Odyssey pays on
        the first query that touches the dataset and what static indexes pay
        (at least once) during their build.  Each chunk arrives as one NumPy
        structured array of up to 256 pages' records, not as per-object
        Python instances.
        """
        return self.file.scan_arrays()


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
