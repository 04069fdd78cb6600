"""Experiment scale presets.

The paper runs on ~50 GB of data (10 datasets × ~5 GB) with 1000 queries of
volume 10⁻⁴ % of the brain volume, a 1 GB memory cap and 60³ grid cells.
A pure-Python reproduction cannot run at that scale, so the presets below
shrink the absolute sizes while preserving the *ratios* that produce the
paper's behaviour:

* the data is much larger than the memory budget available to index builds
  and the buffer pool (so builds are external and queries are disk-bound);
* the query volume is a small fraction of the universe but large enough to
  retrieve a handful of objects;
* the grid resolution keeps a few objects per occupied cell, as a tuned
  60³ grid does at the paper's scale.

``paper`` is the closest feasible approximation and is intended for long
runs from the CLI; the test-suite and pytest benchmarks use ``tiny`` and
``small``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.storage.cost_model import DiskModel


@dataclass(frozen=True, slots=True)
class ExperimentScale:
    """All size parameters of one experiment run.

    ``seek_time_s`` and ``transfer_rate_bytes_per_s`` define the simulated
    disk at this scale.  The seek latency is scaled down together with the
    datasets: keeping the paper's 8 ms seek against datasets that are three
    orders of magnitude smaller would make every workload purely
    seek-bound and erase the indexing-vs-querying balance the figures rely
    on, so each preset picks a seek time that preserves the paper's ratio
    of "random accesses per query" cost to "full pass over a dataset" cost
    as closely as the preset's data size allows.
    """

    name: str
    n_datasets: int = 10
    objects_per_dataset: int = 5_000
    n_queries: int = 300
    query_volume_fraction: float = 1e-4
    n_cluster_centers: int = 10
    grid_cells_per_dim: int = 16
    buffer_pages: int = 512
    build_memory_pages: int = 128
    grid_build_buffer_objects: int = 20_000
    seek_time_s: float = 5e-5
    transfer_rate_bytes_per_s: float = 150e6
    seed: int = 7

    def __post_init__(self) -> None:
        if self.n_datasets < 1:
            raise ValueError("n_datasets must be >= 1")
        if self.objects_per_dataset < 1:
            raise ValueError("objects_per_dataset must be >= 1")
        if self.n_queries < 1:
            raise ValueError("n_queries must be >= 1")
        if not 0 < self.query_volume_fraction <= 1:
            raise ValueError("query_volume_fraction must be in (0, 1]")
        if self.seek_time_s < 0:
            raise ValueError("seek_time_s must be non-negative")

    def disk_model(self) -> DiskModel:
        """The disk cost model for this scale."""
        return DiskModel(
            seek_time_s=self.seek_time_s,
            transfer_rate_bytes_per_s=self.transfer_rate_bytes_per_s,
        )

    def scaled(self, **overrides) -> "ExperimentScale":
        """A copy with some fields overridden (used by ablations and tests)."""
        return replace(self, **overrides)


#: Named presets.  ``tiny`` is for unit/integration tests, ``small`` for the
#: pytest benchmarks, ``medium`` for CLI runs that should finish in minutes,
#: ``paper`` for the closest-feasible overnight reproduction.
SCALES: dict[str, ExperimentScale] = {
    "tiny": ExperimentScale(
        name="tiny",
        n_datasets=6,
        objects_per_dataset=3_000,
        n_queries=60,
        query_volume_fraction=1e-4,
        grid_cells_per_dim=8,
        buffer_pages=256,
        build_memory_pages=16,
        grid_build_buffer_objects=5_000,
        seek_time_s=5e-5,
    ),
    "small": ExperimentScale(
        name="small",
        n_datasets=10,
        objects_per_dataset=10_000,
        n_queries=120,
        query_volume_fraction=1e-4,
        grid_cells_per_dim=10,
        buffer_pages=512,
        build_memory_pages=64,
        grid_build_buffer_objects=20_000,
        seek_time_s=1e-4,
    ),
    "medium": ExperimentScale(
        name="medium",
        n_datasets=10,
        objects_per_dataset=40_000,
        n_queries=400,
        query_volume_fraction=5e-5,
        grid_cells_per_dim=16,
        buffer_pages=2_048,
        build_memory_pages=128,
        grid_build_buffer_objects=80_000,
        seek_time_s=2e-4,
    ),
    "paper": ExperimentScale(
        name="paper",
        n_datasets=10,
        objects_per_dataset=120_000,
        n_queries=1_000,
        query_volume_fraction=1e-5,
        grid_cells_per_dim=30,
        buffer_pages=8_192,
        build_memory_pages=256,
        grid_build_buffer_objects=250_000,
        seek_time_s=5e-4,
    ),
}


def get_scale(scale: str | ExperimentScale) -> ExperimentScale:
    """Resolve a scale given by name or pass an explicit scale through."""
    if isinstance(scale, ExperimentScale):
        return scale
    try:
        return SCALES[scale]
    except KeyError:
        raise ValueError(
            f"unknown scale {scale!r}; expected one of {sorted(SCALES)}"
        ) from None
