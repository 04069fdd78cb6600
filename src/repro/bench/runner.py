"""Running one approach over one workload.

The runner reproduces the paper's measurement methodology:

* the up-front build (if any) is charged to *indexing time*;
* every query is preceded by dropping the buffer pool (the paper overwrites
  the OS caches before each query) and its cost is charged to *querying
  time*, recorded per query so Figure 5's per-query series can be drawn;
* the reported times are *simulated seconds* from the disk cost model;
  the wall clock of the build and of the approach's own query calls is
  recorded next to them (``indexing_wall_seconds``,
  ``querying_wall_seconds``), so the figures can be read on both clocks.

Workload generation for benchmarks and tests goes through
:func:`generate_workload`, which takes an **explicit seed** so that any
run — differential test, cost regression, micro-benchmark — is
reproducible run-to-run without depending on a scale preset's implicit
seed arithmetic.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.baselines.interface import MultiDatasetIndex, result_keys
from repro.geometry.box import Box
from repro.storage.cost_model import IOStats
from repro.storage.disk import Disk
from repro.workload.builder import Workload, WorkloadBuilder
from repro.workload.combinations import CombinationGenerator
from repro.workload.query import RangeQuery
from repro.workload.ranges import ClusteredRangeGenerator, UniformRangeGenerator


@dataclass(frozen=True, slots=True)
class QueryTiming:
    """Timing and result size of one query."""

    qid: int
    simulated_seconds: float
    n_results: int
    n_datasets: int


@dataclass
class ApproachResult:
    """Everything measured while running one approach over one workload."""

    approach: str
    indexing_seconds: float = 0.0
    querying_seconds: float = 0.0
    query_timings: list[QueryTiming] = field(default_factory=list)
    indexing_io: IOStats | None = None
    querying_io: IOStats | None = None
    indexing_wall_seconds: float = 0.0
    querying_wall_seconds: float = 0.0
    total_results: int = 0
    validation_failures: int = 0

    @property
    def total_seconds(self) -> float:
        """Total simulated processing time (indexing + querying)."""
        return self.indexing_seconds + self.querying_seconds

    @property
    def n_queries(self) -> int:
        """Number of queries executed."""
        return len(self.query_timings)

    def per_query_seconds(self) -> list[float]:
        """The per-query simulated times in sequence order."""
        return [timing.simulated_seconds for timing in self.query_timings]

    def queries_answered_within(self, budget_seconds: float) -> int:
        """How many queries complete within a simulated time budget.

        Used for the paper's "by the time Grid has finished indexing,
        Space Odyssey has already answered half the queries" claim: the
        budget is the competitor's indexing time and the count includes the
        adaptive approach's own indexing work (its indexing_seconds are 0).
        """
        spent = self.indexing_seconds
        answered = 0
        for timing in self.query_timings:
            spent += timing.simulated_seconds
            if spent > budget_seconds:
                break
            answered += 1
        return answered


def run_approach(
    approach: MultiDatasetIndex,
    workload: Workload | Iterable[RangeQuery],
    disk: Disk,
    *,
    clear_cache_before_queries: bool = True,
    validate_against: MultiDatasetIndex | None = None,
) -> ApproachResult:
    """Build (if needed) and run every query of the workload, one at a time.

    Parameters
    ----------
    approach:
        The approach under test.
    workload:
        The query sequence.
    disk:
        The simulated disk all structures live on (its statistics are used
        to attribute costs).
    clear_cache_before_queries:
        Drop the buffer pool before every query, as the paper does.  Leave
        enabled for experiments; tests may disable it to exercise caching.
    validate_against:
        Optional oracle; when given, each query's answer is compared and
        mismatches counted.  The oracle's own I/O is measured around each
        call and subtracted from :attr:`ApproachResult.querying_io`, field
        by field; its wall time is not part of
        :attr:`ApproachResult.querying_wall_seconds`, which sums the
        approach's own query calls.
    """
    result = ApproachResult(approach=approach.name)

    before_build = disk.stats_snapshot()
    wall_start = time.perf_counter()
    approach.build()
    result.indexing_wall_seconds = time.perf_counter() - wall_start
    build_delta = disk.stats_snapshot().delta_since(before_build)
    result.indexing_seconds = build_delta.simulated_seconds
    result.indexing_io = build_delta

    querying_start = disk.stats_snapshot()
    oracle_io: list[IOStats] = []
    for query in workload:
        if clear_cache_before_queries:
            disk.clear_cache()
            disk.reset_head()
        before = disk.stats_snapshot()
        wall_start = time.perf_counter()
        answer = approach.query(query.box, query.dataset_ids)
        result.querying_wall_seconds += time.perf_counter() - wall_start
        delta = disk.stats_snapshot().delta_since(before)
        result.query_timings.append(
            QueryTiming(
                qid=query.qid,
                simulated_seconds=delta.simulated_seconds,
                n_results=len(answer),
                n_datasets=query.n_datasets,
            )
        )
        result.total_results += len(answer)
        if validate_against is not None:
            oracle_before = disk.stats_snapshot()
            expected = validate_against.query(query.box, query.dataset_ids)
            oracle_io.append(disk.stats_snapshot().delta_since(oracle_before))
            if result_keys(answer) != result_keys(expected):
                result.validation_failures += 1
    querying_io = disk.stats_snapshot().delta_since(querying_start)
    for foreign in oracle_io:
        querying_io = querying_io.delta_since(foreign)
    result.querying_io = querying_io
    result.querying_seconds = sum(t.simulated_seconds for t in result.query_timings)
    return result


def generate_workload(
    universe: Box,
    dataset_ids: Sequence[int],
    n_queries: int,
    *,
    seed: int,
    volume_fraction: float = 1e-4,
    datasets_per_query: int = 3,
    ranges: str = "uniform",
    ids_distribution: str = "uniform",
    cluster_centers: Sequence[Sequence[float]] | None = None,
    description: str = "",
) -> Workload:
    """A reproducible workload from one explicit seed.

    Both generators are seeded deterministically from ``seed`` (the range
    generator with ``seed`` itself, the combination generator with ``seed +
    1``), so two calls with the same arguments produce identical query
    sequences run-to-run and machine-to-machine — which is what the
    differential-oracle tests, the cost regressions and the batch
    micro-benchmarks rely on.
    """
    if ranges == "uniform":
        range_generator: UniformRangeGenerator | ClusteredRangeGenerator = (
            UniformRangeGenerator(
                universe=universe, volume_fraction=volume_fraction, seed=seed
            )
        )
    elif ranges == "clustered":
        range_generator = ClusteredRangeGenerator(
            universe=universe,
            volume_fraction=volume_fraction,
            seed=seed,
            cluster_centers=cluster_centers,
        )
    else:
        raise ValueError(f"unknown range distribution {ranges!r}")
    combination_generator = CombinationGenerator(
        dataset_ids=list(dataset_ids),
        datasets_per_query=datasets_per_query,
        distribution=ids_distribution,
        seed=seed + 1,
    )
    return WorkloadBuilder(range_generator, combination_generator).build(
        n_queries,
        description=description
        or f"ranges={ranges}, ids={ids_distribution}, seed={seed}",
    )
