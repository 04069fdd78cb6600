"""Scales, the fixed dataset and the seeded query generators.

The dataset never varies (``DATA_SEED``); the workload seed given on the
command line only seeds the query generators, and the engine receives
nothing but the generated queries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import (
    ClusteredRangeGenerator,
    CombinationGenerator,
    Disk,
    build_benchmark_suite,
)
from repro.data import BenchmarkSuite
from repro.storage import FileSystemBackend

DATA_SEED = 7

#: Clustered queries revisit the tissue's first ten microcircuits.  Which
#: regions are hot is a property of the (fixed) data; the workload seed
#: draws which of them each query visits, its offset and its datasets.
HOT_REGIONS = 10


@dataclass(frozen=True)
class Scale:
    """Sizes of one benchmark scale; the procedure is identical at both."""

    name: str
    n_datasets: int
    objects_per_dataset: int
    small_pool_pages: int  # explore / converged / durable: smaller than the data
    serve_pool_pages: int  # serve: holds every page of the converged engine
    explore_queries: int
    converged_queries: int
    serve_requests: int
    durable_queries: int
    durable_probes: int
    min_passes: int
    setups: int
    sampled_checks: int
    brute_force_checks: int


FULL = Scale(
    name="full",
    n_datasets=10,
    objects_per_dataset=4000,
    small_pool_pages=200,
    serve_pool_pages=4096,
    explore_queries=500,
    converged_queries=1200,
    serve_requests=1200,
    durable_queries=150,
    durable_probes=50,
    min_passes=3,
    setups=3,
    sampled_checks=120,
    brute_force_checks=6,
)

REHEARSAL = Scale(
    name="rehearsal",
    n_datasets=6,
    objects_per_dataset=1500,
    small_pool_pages=48,
    serve_pool_pages=1024,
    explore_queries=60,
    converged_queries=60,
    serve_requests=60,
    durable_queries=45,
    durable_probes=15,
    min_passes=2,
    setups=1,
    sampled_checks=60,
    brute_force_checks=6,
)

SCALES = {scale.name: scale for scale in (FULL, REHEARSAL)}


def ingest(
    scale: Scale,
    pool_pages: int,
    *,
    directory: str | None = None,
    compression: str | None = None,
) -> BenchmarkSuite:
    """Generate the fixed dataset: in memory, or as page files in ``directory``."""
    disk = None
    if directory is not None:
        disk = Disk(backend=FileSystemBackend(directory), buffer_pages=pool_pages)
    return build_benchmark_suite(
        n_datasets=scale.n_datasets,
        objects_per_dataset=scale.objects_per_dataset,
        seed=DATA_SEED,
        disk=disk,
        buffer_pages=pool_pages,
        compression=compression,
    )


def make_queries(
    generator,
    dataset_ids,
    count: int,
    *,
    seed: int,
    volume_fraction: float,
    datasets_per_query: int,
    distribution: str,
) -> list[tuple]:
    """``count`` ``(box, dataset ids)`` queries drawn from ``seed``.

    ``generator`` is the data generator: it supplies the universe and the
    microcircuit centres without generating a single object, so the
    inputs exist before (and independently of) any ingest.
    """
    centres = generator.microcircuit_centers[:HOT_REGIONS]
    ranges = ClusteredRangeGenerator(
        generator.universe,
        volume_fraction,
        seed,
        n_cluster_centers=len(centres),
        cluster_centers=centres,
    )
    combinations = CombinationGenerator(
        list(dataset_ids), datasets_per_query, distribution, seed + 1
    )
    return [(ranges.next_range(), combinations.sample()) for _ in range(count)]


class ScanOracle:
    """Exact answers by a vectorized scan of the raw files.

    Independent of every index structure: it reads each raw file once
    through ``Dataset.scan_arrays`` and answers a query with one closed-
    interval overlap mask per requested dataset.  ``BruteForceScan`` (the
    repository's own oracle) costs ~0.1 s per query at the full scale, so
    it cross-checks a handful of queries and this scan checks the rest.
    """

    def __init__(self, suite: BenchmarkSuite) -> None:
        self._columns = {}
        for dataset in suite.fork().datasets:
            records = np.concatenate(list(dataset.scan_arrays()))
            dimension = dataset.dimension
            self._columns[dataset.dataset_id] = (
                records["oid"],
                records["lo"].reshape(-1, dimension),
                records["hi"].reshape(-1, dimension),
            )

    def keys(self, box, dataset_ids) -> frozenset:
        """The ``(dataset id, oid)`` identities of the exact answer."""
        lo = np.asarray(box.lo)
        hi = np.asarray(box.hi)
        found = []
        for dataset_id in dataset_ids:
            oids, obj_lo, obj_hi = self._columns[dataset_id]
            mask = np.all((obj_lo <= hi) & (obj_hi >= lo), axis=1)
            found.extend((dataset_id, oid) for oid in oids[mask].tolist())
        return frozenset(found)


def answer_keys(objects) -> frozenset:
    """A query answer as a set of ``(dataset id, oid)`` identities."""
    return frozenset((obj.dataset_id, obj.oid) for obj in objects)
