"""The benchmark dataset suite.

`build_benchmark_suite` materialises the reproduction's stand-in for the
paper's ten Human Brain Project datasets: ``n_datasets`` synthetic
neuroscience datasets of ``objects_per_dataset`` objects each, written as
raw files onto a caller-supplied (or freshly created) simulated disk,
optionally as zlib pages (``compression="zlib"``), which hold the same
records per page as plain ones.  Each dataset is generated as one
structured array and written by one ``append_group_array`` call — no
per-object ``Box`` or ``SpatialObject`` is built — and a seed names the
same raw bytes as the per-object path did.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.data.dataset import Dataset, DatasetCatalog
from repro.data.generator import NeuroscienceDatasetGenerator, brain_universe
from repro.data.spatial_object import spatial_object_codec
from repro.geometry.box import Box
from repro.storage.cost_model import DiskModel
from repro.storage.disk import Disk
from repro.storage.pagedfile import PagedFile


@dataclass
class BenchmarkSuite:
    """Everything an experiment needs: the disk, the catalog and metadata."""

    disk: Disk
    catalog: DatasetCatalog
    generator: NeuroscienceDatasetGenerator
    seed: int

    @property
    def universe(self) -> Box:
        """The shared universe of all datasets."""
        return self.catalog.universe

    @property
    def datasets(self) -> list[Dataset]:
        """All datasets, ordered by id."""
        return self.catalog.datasets()

    def fork(
        self,
        buffer_pages: int | None = None,
        model: DiskModel | None = None,
    ) -> "BenchmarkSuite":
        """An independent copy of the suite with byte-identical raw files.

        The benchmark harness generates the datasets once and forks the
        suite for every approach it runs, so each run gets its own disk
        (fresh I/O accounting, fresh buffer pool, no file-name clashes)
        without paying for data generation again.  The buffer pool's page
        budget carries over unless overridden.
        """
        new_disk = Disk(
            backend=self.disk.backend.clone(),
            model=model or self.disk.model,
            buffer_pages=(
                buffer_pages
                if buffer_pages is not None
                else self.disk.buffer_pool.capacity_pages
            ),
        )
        datasets = [
            Dataset(
                dataset_id=dataset.dataset_id,
                name=dataset.name,
                universe=dataset.universe,
                n_objects=dataset.n_objects,
                disk=new_disk,
                file=PagedFile(
                    new_disk,
                    dataset.file.name,
                    spatial_object_codec(dataset.dimension),
                ),
            )
            for dataset in self.datasets
        ]
        return BenchmarkSuite(
            disk=new_disk,
            catalog=DatasetCatalog(datasets),
            generator=self.generator,
            seed=self.seed,
        )


def build_benchmark_suite(
    n_datasets: int = 10,
    objects_per_dataset: int = 5_000,
    seed: int = 7,
    dimension: int = 3,
    disk: Disk | None = None,
    buffer_pages: int = 4096,
    model: DiskModel | None = None,
    compression: str | None = None,
) -> BenchmarkSuite:
    """Create the multi-dataset benchmark universe used by the experiments.

    Parameters mirror the paper's setup scaled down: ten datasets over the
    same brain volume.  ``buffer_pages`` bounds the memory footprint of
    every approach (the paper caps all techniques at the same 1 GB budget);
    with 4 KB pages the default of 4096 pages is a 16 MB budget, which keeps
    the same "data much larger than memory" regime at the reduced scale.
    ``compression`` (``None`` or ``"zlib"``) compresses the raw dataset
    files' pages as they are written, one page's records per zlib page;
    since every fork shares the master's bytes, all engines read the same
    compressed pages and the per-page codec header keeps uncompressed
    files readable side by side.
    """
    if n_datasets < 1:
        raise ValueError("n_datasets must be >= 1")
    if objects_per_dataset < 1:
        raise ValueError("objects_per_dataset must be >= 1")
    if disk is None:
        disk = Disk(model=model, buffer_pages=buffer_pages)
    universe = brain_universe(dimension=dimension)
    generator = NeuroscienceDatasetGenerator(universe=universe, seed=seed)
    datasets = generator.generate_datasets(
        disk=disk,
        n_datasets=n_datasets,
        objects_per_dataset=objects_per_dataset,
        compression=compression,
    )
    catalog = DatasetCatalog(datasets)
    return BenchmarkSuite(disk=disk, catalog=catalog, generator=generator, seed=seed)
