"""Cost regression: a batch must never read more pages than sequential.

The batched engine reads every needed partition group at most once per
batch through the shared read set, and its replay phase performs exactly
the writes sequential execution would perform.  These tests pin that down
with the :class:`~repro.storage.disk.Disk` counters: for any workload and
any batch size, the batched run's ``pages_read`` is bounded by the
sequential run's, and overlapping workloads must show a strict saving.
"""

from __future__ import annotations

import pytest

from repro.bench.runner import generate_workload
from repro.core.config import OdysseyConfig
from repro.core.odyssey import SpaceOdyssey
from repro.geometry.box import Box
from repro.storage.cost_model import IOStats

from tests.oracle import check_merge_space, hot_workload


def _run_sequential(suite, workload, config) -> tuple[IOStats, SpaceOdyssey]:
    odyssey = SpaceOdyssey(suite.fork().catalog, config)
    for query in workload:
        odyssey.query(query.box, query.dataset_ids)
    return odyssey.disk.stats, odyssey


def _run_batched(suite, workload, config, batch_size) -> tuple[IOStats, SpaceOdyssey]:
    odyssey = SpaceOdyssey(suite.fork().catalog, config)
    queries = list(workload)
    for start in range(0, len(queries), batch_size):
        odyssey.query_batch(queries[start : start + batch_size])
    return odyssey.disk.stats, odyssey


MERGING_CONFIG = OdysseyConfig(merge_threshold=1)


@pytest.mark.parametrize("batch_size", [2, 5, 12, 64])
@pytest.mark.parametrize(
    "ranges,volume_fraction,seed",
    [
        ("uniform", 1e-3, 31),
        ("uniform", 5e-3, 32),
        ("clustered", 5e-3, 33),
    ],
)
def test_batch_never_reads_more_pages(
    master_suite, batch_size, ranges, volume_fraction, seed
):
    windows = list(
        generate_workload(
            master_suite.universe,
            master_suite.catalog.dataset_ids(),
            12,
            seed=seed,
            datasets_per_query=3,
            volume_fraction=volume_fraction,
            ranges=ranges,
            ids_distribution="zipf",
        )
    )
    # Every window is visited twice, so its keys turn hot and merge.
    workload = windows + windows
    seq_stats, seq = _run_sequential(master_suite, workload, MERGING_CONFIG)
    assert seq.summary().merges_performed > 0, "the workload never merged"
    batch_stats, _ = _run_batched(master_suite, workload, MERGING_CONFIG, batch_size)
    assert batch_stats.pages_read <= seq_stats.pages_read
    # Writes are replayed identically, so they must match exactly.
    assert batch_stats.pages_written == seq_stats.pages_written


def test_overlapping_batch_strictly_saves_pages(master_suite):
    """Repeating the same region in one batch must hit the shared read set."""
    universe = master_suite.universe
    region = Box.cube(universe.center, universe.side(0) * 0.15).clamp(universe)
    queries = [(region, (0, 1, 2))] * 6
    config = OdysseyConfig()  # default thresholds; no merging for |C|=3 yet (mt=2)
    seq = SpaceOdyssey(master_suite.fork().catalog, config)
    for box, ids in queries:
        seq.query(box, ids)
    batched = SpaceOdyssey(master_suite.fork().catalog, config)
    batched.query_batch(queries)
    assert batched.disk.stats.pages_read < seq.disk.stats.pages_read


@pytest.mark.parametrize("batch_size", [3, 10])
def test_batch_cost_bound_holds_under_a_tight_merge_budget(master_suite, batch_size):
    workload = hot_workload(master_suite, 30, seed=41)
    config = OdysseyConfig(
        merge_threshold=1,
        min_merge_combination=2,
        merge_space_budget_pages=5,
    )
    seq_stats, seq = _run_sequential(master_suite, workload, config)
    batch_stats, batched = _run_batched(master_suite, workload, config, batch_size)
    assert batch_stats.pages_read <= seq_stats.pages_read
    assert batched.summary() == seq.summary()
    check_merge_space(batched)
