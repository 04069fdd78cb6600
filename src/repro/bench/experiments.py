"""Experiment definitions: one function per figure of the paper's evaluation.

Every function builds fresh datasets (deterministic from the scale's seed),
generates the figure's workload, runs the relevant approaches through
:func:`repro.bench.runner.run_approach` and returns a structured result
object that :mod:`repro.bench.reporting` can print as the rows/series the
paper reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import mean

from repro.bench.approaches import (
    FIGURE4_APPROACHES,
    FIGURE5_APPROACHES,
    make_approach,
)
from repro.bench.runner import ApproachResult, run_approach
from repro.bench.scales import ExperimentScale, get_scale
from repro.data.suite import BenchmarkSuite, build_benchmark_suite
from repro.workload.builder import Workload, WorkloadBuilder
from repro.workload.combinations import CombinationGenerator
from repro.workload.ranges import ClusteredRangeGenerator, UniformRangeGenerator


# --------------------------------------------------------------------------- #
# Shared helpers
# --------------------------------------------------------------------------- #


def build_suite(scale: ExperimentScale) -> BenchmarkSuite:
    """A fresh benchmark suite for one experiment run (deterministic per seed)."""
    return build_benchmark_suite(
        n_datasets=scale.n_datasets,
        objects_per_dataset=scale.objects_per_dataset,
        seed=scale.seed,
        buffer_pages=scale.buffer_pages,
        model=scale.disk_model(),
    )


def build_workload(
    suite: BenchmarkSuite,
    scale: ExperimentScale,
    *,
    ranges: str,
    ids_distribution: str,
    datasets_per_query: int,
    n_cluster_centers: int | None = None,
    seed_offset: int = 0,
    sigma_query_sides: float = 1.0,
    seed: int | None = None,
) -> Workload:
    """The workload for one figure panel.

    ``ranges`` is ``"clustered"`` or ``"uniform"``; clustered ranges are
    centred on the data generator's microcircuit centres, exactly as the
    paper's clustered queries target populated brain regions (Figure 3).

    ``seed`` makes the workload RNG seed explicit; when omitted it is
    derived deterministically from the scale preset as before
    (``scale.seed + 1000 + seed_offset``).  Pass an explicit value when a
    test or benchmark must be reproducible independently of the scale.
    """
    if seed is None:
        seed = scale.seed + 1000 + seed_offset
    if ranges == "clustered":
        range_generator = ClusteredRangeGenerator(
            universe=suite.universe,
            volume_fraction=scale.query_volume_fraction,
            seed=seed,
            n_cluster_centers=n_cluster_centers or scale.n_cluster_centers,
            cluster_centers=suite.generator.microcircuit_centers,
            sigma_query_sides=sigma_query_sides,
        )
    elif ranges == "uniform":
        range_generator = UniformRangeGenerator(
            universe=suite.universe,
            volume_fraction=scale.query_volume_fraction,
            seed=seed,
        )
    else:
        raise ValueError(f"unknown range distribution {ranges!r}")
    combination_generator = CombinationGenerator(
        dataset_ids=suite.catalog.dataset_ids(),
        datasets_per_query=datasets_per_query,
        distribution=ids_distribution,
        seed=seed + 7,
    )
    description = (
        f"ranges={ranges}, ids={ids_distribution}, k={datasets_per_query}, "
        f"scale={scale.name}"
    )
    return WorkloadBuilder(range_generator, combination_generator).build(
        scale.n_queries, description=description
    )


# --------------------------------------------------------------------------- #
# Figure 4 — total processing cost vs number of datasets queried
# --------------------------------------------------------------------------- #


@dataclass(frozen=True, slots=True)
class Figure4Cell:
    """One bar of Figure 4: one approach at one x-axis position.

    The bar is in simulated seconds; the wall clock of the same build and
    queries rides along (``*_wall_seconds``).
    """

    approach: str
    indexing_seconds: float
    querying_seconds: float
    indexing_wall_seconds: float = 0.0
    querying_wall_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        """Total workload processing time."""
        return self.indexing_seconds + self.querying_seconds


@dataclass
class Figure4Point:
    """One x-axis position of Figure 4 (a number of datasets queried)."""

    datasets_queried: int
    combinations_queried: int
    cells: dict[str, Figure4Cell] = field(default_factory=dict)
    odyssey_queries_within_grid_build: int | None = None

    def total(self, approach: str) -> float:
        """Total processing time of one approach at this point."""
        return self.cells[approach].total_seconds


@dataclass
class Figure4Result:
    """All points of one Figure 4 panel."""

    ids_distribution: str
    ranges: str
    scale: str
    n_queries: int
    approaches: tuple[str, ...]
    points: list[Figure4Point] = field(default_factory=list)

    def point(self, datasets_queried: int) -> Figure4Point:
        """Look up one x-axis position."""
        for point in self.points:
            if point.datasets_queried == datasets_queried:
                return point
        raise KeyError(f"no point for {datasets_queried} datasets queried")


def figure4(
    ids_distribution: str = "zipf",
    ranges: str = "clustered",
    scale: str | ExperimentScale = "small",
    datasets_queried: tuple[int, ...] = (1, 3, 5, 7, 9),
    approaches: tuple[str, ...] = FIGURE4_APPROACHES,
) -> Figure4Result:
    """Reproduce one panel of Figure 4.

    Panel (a): ``ids_distribution="zipf"``, clustered ranges.
    Panel (b): ``"heavy_hitter"``.  Panel (c): ``"self_similar"``.
    Panel (d): ``"uniform"`` with ``ranges="uniform"``.
    """
    scale = get_scale(scale)
    valid_ks = tuple(k for k in datasets_queried if 1 <= k <= scale.n_datasets)
    result = Figure4Result(
        ids_distribution=ids_distribution,
        ranges=ranges,
        scale=scale.name,
        n_queries=scale.n_queries,
        approaches=approaches,
    )
    master_suite = build_suite(scale)
    for k in valid_ks:
        workload = build_workload(
            master_suite,
            scale,
            ranges=ranges,
            ids_distribution=ids_distribution,
            datasets_per_query=k,
            seed_offset=k,
        )
        point = Figure4Point(
            datasets_queried=k,
            combinations_queried=workload.n_combinations_queried(),
        )
        grid_indexing_seconds: float | None = None
        odyssey_result: ApproachResult | None = None
        for approach_name in approaches:
            suite = master_suite.fork()
            approach = make_approach(approach_name, suite, scale)
            run = run_approach(approach, workload, suite.disk)
            point.cells[approach_name] = Figure4Cell(
                approach=approach_name,
                indexing_seconds=run.indexing_seconds,
                querying_seconds=run.querying_seconds,
                indexing_wall_seconds=run.indexing_wall_seconds,
                querying_wall_seconds=run.querying_wall_seconds,
            )
            if approach_name == "Grid-1fE":
                grid_indexing_seconds = run.indexing_seconds
            if approach_name == "Odyssey":
                odyssey_result = run
        if grid_indexing_seconds is not None and odyssey_result is not None:
            point.odyssey_queries_within_grid_build = odyssey_result.queries_answered_within(
                grid_indexing_seconds
            )
        result.points.append(point)
    return result


# --------------------------------------------------------------------------- #
# Figure 5a/5b — per-query response times over the query sequence
# --------------------------------------------------------------------------- #


@dataclass
class Figure5Series:
    """The per-query time series of one approach (simulated seconds).

    The wall clock of the build and of all queries rides along
    (``*_wall_seconds``).
    """

    approach: str
    indexing_seconds: float
    per_query_seconds: list[float]
    indexing_wall_seconds: float = 0.0
    querying_wall_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        """Total processing time (indexing plus all queries)."""
        return self.indexing_seconds + sum(self.per_query_seconds)

    def tail_mean(self, fraction: float = 0.2) -> float:
        """Mean per-query time over the last ``fraction`` of the sequence.

        Used to check convergence claims: Space Odyssey's tail should be
        close to the static indexes' steady-state query times.
        """
        count = max(1, int(len(self.per_query_seconds) * fraction))
        return mean(self.per_query_seconds[-count:])


@dataclass
class Figure5Result:
    """All series of one Figure 5 panel."""

    label: str
    ranges: str
    ids_distribution: str
    datasets_per_query: int
    scale: str
    series: dict[str, Figure5Series] = field(default_factory=dict)

    def get(self, approach: str) -> Figure5Series:
        """One approach's series."""
        return self.series[approach]


def _figure5_panel(
    label: str,
    ranges: str,
    ids_distribution: str,
    scale: str | ExperimentScale,
    approaches: tuple[str, ...],
    datasets_per_query: int = 5,
    n_cluster_centers: int | None = None,
) -> Figure5Result:
    scale = get_scale(scale)
    datasets_per_query = min(datasets_per_query, scale.n_datasets)
    master_suite = build_suite(scale)
    workload = build_workload(
        master_suite,
        scale,
        ranges=ranges,
        ids_distribution=ids_distribution,
        datasets_per_query=datasets_per_query,
        n_cluster_centers=n_cluster_centers,
        seed_offset=50,
    )
    result = Figure5Result(
        label=label,
        ranges=ranges,
        ids_distribution=ids_distribution,
        datasets_per_query=datasets_per_query,
        scale=scale.name,
    )
    for approach_name in approaches:
        suite = master_suite.fork()
        approach = make_approach(approach_name, suite, scale)
        run = run_approach(approach, workload, suite.disk)
        result.series[approach_name] = Figure5Series(
            approach=approach_name,
            indexing_seconds=run.indexing_seconds,
            per_query_seconds=run.per_query_seconds(),
            indexing_wall_seconds=run.indexing_wall_seconds,
            querying_wall_seconds=run.querying_wall_seconds,
        )
    return result


def figure5a(
    scale: str | ExperimentScale = "small",
    approaches: tuple[str, ...] = FIGURE5_APPROACHES,
) -> Figure5Result:
    """Figure 5a: clustered ranges, self-similar dataset ids, 5 datasets per query."""
    return _figure5_panel(
        label="fig5a",
        ranges="clustered",
        ids_distribution="self_similar",
        scale=scale,
        approaches=approaches,
    )


def figure5b(
    scale: str | ExperimentScale = "small",
    approaches: tuple[str, ...] = FIGURE5_APPROACHES,
) -> Figure5Result:
    """Figure 5b: uniform ranges, uniform dataset ids, 5 datasets per query."""
    return _figure5_panel(
        label="fig5b",
        ranges="uniform",
        ids_distribution="uniform",
        scale=scale,
        approaches=approaches,
    )


# --------------------------------------------------------------------------- #
# Figure 5c — effect of merging
# --------------------------------------------------------------------------- #


@dataclass
class Figure5cResult:
    """Odyssey with vs without merging, restricted to the popular combination."""

    scale: str
    popular_combination: tuple[int, ...]
    popular_query_count: int
    with_merging: list[float] = field(default_factory=list)
    without_merging: list[float] = field(default_factory=list)
    merges_performed: int = 0
    merge_files: int = 0

    @property
    def average_gain_percent(self) -> float:
        """Average per-query gain of merging, in percent (paper reports ~25 %)."""
        if not self.with_merging or not self.without_merging:
            return 0.0
        gains = [
            (without - with_) / without * 100.0
            for with_, without in zip(self.with_merging, self.without_merging)
            if without > 0
        ]
        return mean(gains) if gains else 0.0

    @property
    def total_gain_percent(self) -> float:
        """Gain on the summed time of the popular combination's queries."""
        total_without = sum(self.without_merging)
        total_with = sum(self.with_merging)
        if total_without <= 0:
            return 0.0
        return (total_without - total_with) / total_without * 100.0


def figure5c(
    scale: str | ExperimentScale = "small",
    datasets_per_query: int = 5,
) -> Figure5cResult:
    """Figure 5c: isolate the effect of merging partitions queried together.

    As in the paper, clustered queries use 5 (instead of 10) cluster centres
    so the popular combination's queries revisit the same areas, and only
    the queries requesting the most popular combination (under the Zipf
    distribution) are reported.
    """
    scale = get_scale(scale)
    datasets_per_query = min(datasets_per_query, scale.n_datasets)
    master_suite = build_suite(scale)
    # As in the paper, this experiment narrows the query workload so the
    # popular combination's queries revisit the same areas: 5 cluster
    # centres instead of 10, and tight query blobs around them.
    workload = build_workload(
        master_suite,
        scale,
        ranges="clustered",
        ids_distribution="zipf",
        datasets_per_query=datasets_per_query,
        n_cluster_centers=5,
        seed_offset=99,
        sigma_query_sides=0.5,
    )
    combination_counts: dict[frozenset[int], int] = {}
    for query in workload:
        combination_counts[query.combination] = combination_counts.get(query.combination, 0) + 1
    popular = max(combination_counts, key=combination_counts.get)
    popular_qids = {q.qid for q in workload if q.combination == popular}

    runs: dict[bool, list[float]] = {}
    merges_performed = 0
    merge_files = 0
    for merging in (True, False):
        suite = master_suite.fork()
        approach_name = "Odyssey" if merging else "Odyssey-NoMerge"
        approach = make_approach(approach_name, suite, scale)
        run = run_approach(approach, workload, suite.disk)
        runs[merging] = [
            timing.simulated_seconds
            for timing in run.query_timings
            if timing.qid in popular_qids
        ]
        if merging:
            merges_performed = approach.merger.merges_performed
            merge_files = len(approach.merge_directory)
    return Figure5cResult(
        scale=scale.name,
        popular_combination=tuple(sorted(popular)),
        popular_query_count=len(popular_qids),
        with_merging=runs[True],
        without_merging=runs[False],
        merges_performed=merges_performed,
        merge_files=merge_files,
    )
