"""Differential oracle: batched execution must be indistinguishable from
sequential execution.

For randomized workloads, two engines over byte-identical forks of the same
suite execute the same query sequence — one through ``query()`` per query,
one through ``query_batch()`` in chunks — and every observable must agree:

* byte-identical hits per query (the packed codec bytes of the result
  objects, order-insensitively);
* identical ``QueryReport``\\ s, field by field (``objects_examined`` is the
  one documented exception: the batch may examine coarser partitions);
* identical post-run adaptive state: partition trees (leaf keys, record
  counts, stored runs), merge directory contents, merger counters,
  statistics — and, strongest of all, byte-identical on-disk files.
"""

from __future__ import annotations

import pytest

from repro.bench.runner import generate_workload
from repro.core.config import OdysseyConfig
from repro.core.odyssey import SpaceOdyssey
from repro.data.spatial_object import spatial_object_codec
from repro.data.suite import BenchmarkSuite

from tests.scalar_reference import leaf_listing

#: QueryReport fields that must agree exactly between the two engines.
REPORT_FIELDS = (
    "query_index",
    "requested",
    "route",
    "initialized_datasets",
    "partitions_read",
    "partitions_from_merge",
    "results",
    "refinements",
    "merged",
    "merge_new_partitions",
    "evicted_merge_files",
)


def packed_hits(odyssey: SpaceOdyssey, hits) -> frozenset[bytes]:
    """The order-insensitive byte identity of one query answer."""
    codec = spatial_object_codec(odyssey.catalog.dimension)
    packed = sorted(codec.pack(obj) for obj in hits)
    assert len(set(packed)) == len(packed), "duplicate objects in a query answer"
    return frozenset(packed)


def adaptive_state(odyssey: SpaceOdyssey):
    """A comparable snapshot of everything the adaptive machinery mutated.

    The statistics are compared as the collector keeps them: per
    combination the count, the keys seen, the hot keys and the query
    volume, plus the logical clock the LRU stamps are taken from.
    """
    trees = {
        dataset_id: leaf_listing(tree) for dataset_id, tree in sorted(odyssey.trees.items())
    }
    merge_files = {}
    for info in odyssey.merge_directory.all_files():
        entries = {
            key: {
                dataset_id: (run.extents, run.n_records)
                for dataset_id, run in per_dataset.items()
            }
            for key, per_dataset in info.entries.items()
        }
        merge_files[tuple(sorted(info.combination))] = (
            info.file_name,
            entries,
            info.last_used,
        )
    combinations = {
        tuple(sorted(combo)): (
            stats.count,
            frozenset(stats.seen_keys),
            frozenset(stats.hot_keys),
            stats.total_query_volume,
        )
        for combo, stats in odyssey.statistics.combinations().items()
    }
    return (
        trees,
        merge_files,
        combinations,
        odyssey.statistics.logical_clock,
        odyssey.merger.merges_performed,
        odyssey.merger.evictions,
        odyssey.summary(),
    )


def disk_files(odyssey: SpaceOdyssey) -> dict[str, list[bytes]]:
    """Every on-disk file's raw pages (the ultimate byte-identity check)."""
    disk = odyssey.disk
    return {
        name: [disk.backend.read(name, page) for page in range(disk.num_pages(name))]
        for name in sorted(disk.list_files())
    }


def run_differential(
    suite: BenchmarkSuite,
    workload,
    config: OdysseyConfig,
    batch_size: int,
) -> SpaceOdyssey:
    """Run the workload both ways, assert total agreement, return the sequential engine."""
    sequential = SpaceOdyssey(suite.fork().catalog, config)
    seq_hits = []
    seq_reports = []
    for query in workload:
        seq_hits.append(sequential.query(query.box, query.dataset_ids))
        seq_reports.append(sequential.last_report)

    batched = SpaceOdyssey(suite.fork().catalog, config)
    batch_hits = []
    batch_reports = []
    queries = list(workload)
    for start in range(0, len(queries), batch_size):
        result = batched.query_batch(queries[start : start + batch_size])
        batch_hits.extend(result.results)
        batch_reports.extend(result.reports)

    for index, (expected, actual) in enumerate(zip(seq_hits, batch_hits)):
        assert len(actual) == len(expected), f"hit count differs for query {index}"
        assert packed_hits(batched, actual) == packed_hits(
            sequential, expected
        ), f"hit bytes differ for query {index}"
    for index, (expected, actual) in enumerate(zip(seq_reports, batch_reports)):
        for field in REPORT_FIELDS:
            assert getattr(actual, field) == getattr(
                expected, field
            ), f"report field {field!r} differs for query {index}"
    assert adaptive_state(batched) == adaptive_state(sequential)
    assert disk_files(batched) == disk_files(sequential)
    return sequential


@pytest.fixture(scope="module")
def differential_suite(master_suite: BenchmarkSuite) -> BenchmarkSuite:
    return master_suite


@pytest.mark.parametrize("batch_size", [1, 3, 7, 50])
@pytest.mark.parametrize("seed", [101, 202])
def test_uniform_workload_matches_sequential(differential_suite, batch_size, seed):
    workload = generate_workload(
        differential_suite.universe,
        differential_suite.catalog.dataset_ids(),
        30,
        seed=seed,
        datasets_per_query=3,
        # Windows large enough to revisit populated leaves, so keys turn hot.
        volume_fraction=5e-3,
        ids_distribution="zipf",
    )
    config = OdysseyConfig(merge_threshold=1)
    engine = run_differential(differential_suite, workload, config, batch_size)
    assert engine.summary().merges_performed > 0, "the workload never merged"


@pytest.mark.parametrize("batch_size", [4, 16])
def test_clustered_workload_with_heavy_merging(differential_suite, batch_size):
    workload = generate_workload(
        differential_suite.universe,
        differential_suite.catalog.dataset_ids(),
        40,
        seed=77,
        datasets_per_query=3,
        volume_fraction=5e-3,
        ranges="clustered",
        ids_distribution="heavy_hitter",
    )
    config = OdysseyConfig(
        merge_threshold=1,
        min_merge_combination=2,
    )
    engine = run_differential(differential_suite, workload, config, batch_size)
    assert engine.summary().merges_performed > 0, "the workload never merged"


@pytest.mark.parametrize("batch_size", [8])
def test_merge_evictions_replay_identically(differential_suite, batch_size):
    workload = generate_workload(
        differential_suite.universe,
        differential_suite.catalog.dataset_ids(),
        36,
        seed=55,
        datasets_per_query=3,
        volume_fraction=5e-3,
        ranges="clustered",
        ids_distribution="uniform",
    )
    config = OdysseyConfig(
        merge_threshold=1,
        min_merge_combination=2,
        merge_space_budget_pages=6,
    )
    engine = run_differential(differential_suite, workload, config, batch_size)
    assert engine.summary().merges_performed > 0, "the workload never merged"


def test_mixed_combination_sizes_and_duplicates(differential_suite):
    """Hand-built batch: mixed combinations, duplicate queries, empty windows."""
    from repro.geometry.box import Box

    universe = differential_suite.universe
    center = universe.center
    big = Box.cube(center, universe.side(0) * 0.2).clamp(universe)
    point = Box(center, center)  # degenerate zero-extent window
    off = Box.cube(universe.lo, universe.side(0) * 0.1).clamp(universe)
    queries = [
        (big, (0, 1, 2)),
        (big, (0, 1, 2)),  # duplicate
        (point, (3,)),
        (off, (0, 3)),
        (big, (0, 1, 2)),  # duplicate again, post-merge-trigger
        (point, (3,)),
    ]
    config = OdysseyConfig(merge_threshold=1)
    sequential = SpaceOdyssey(differential_suite.fork().catalog, config)
    expected = [sequential.query(box, ids) for box, ids in queries]
    batched = SpaceOdyssey(differential_suite.fork().catalog, config)
    result = batched.query_batch(queries)
    assert result.hit_counts() == [len(hits) for hits in expected]
    for actual, wanted in zip(result.results, expected):
        assert packed_hits(batched, actual) == packed_hits(sequential, wanted)
    assert adaptive_state(batched) == adaptive_state(sequential)
    assert disk_files(batched) == disk_files(sequential)
