"""Unit tests for the Merger component and the merge cost model."""

from __future__ import annotations

import pytest

from repro.core.adaptor import Adaptor
from repro.core.config import OdysseyConfig
from repro.core.cost import AdaptiveMergePolicy, MergeCostModel
from repro.core.merge import MergeDirectory
from repro.core.merger import Merger
from repro.core.statistics import StatisticsCollector
from repro.storage.cost_model import DiskModel

from tests.conftest import make_catalog


@pytest.fixture
def setup(disk, universe):
    """Catalog + initialised trees + merger wired together by hand."""
    catalog = make_catalog(disk, universe, n_datasets=3, count=300, seed=51)
    config = OdysseyConfig(
        partitions_per_level=8,
        merge_threshold=1,
        min_merge_combination=3,
        merge_partition_min_hits=1,
        merge_only_converged=False,
    )
    adaptor = Adaptor(config)
    trees = {}
    for dataset in catalog:
        tree = adaptor.create_tree(dataset)
        adaptor.initialize(tree)
        trees[dataset.dataset_id] = tree
    statistics = StatisticsCollector()
    directory = MergeDirectory()
    merger = Merger(disk, config, directory, statistics, dimension=3)
    return catalog, config, trees, statistics, directory, merger


def record_queries(statistics, trees, combination, keys, times=3):
    for _ in range(times):
        statistics.tick()
        statistics.record_query(
            combination, {ds: keys for ds in combination}, query_volume=1.0
        )


class TestMergerTriggers:
    def test_merges_after_threshold(self, setup):
        _, _, trees, statistics, directory, merger = setup
        combo = frozenset({0, 1, 2})
        keys = [next(iter(trees[0].leaves())).key]
        record_queries(statistics, trees, combo, keys, times=3)
        outcome = merger.maybe_merge(combo, trees)
        assert outcome.merged
        assert directory.get(combo) is not None
        assert merger.partitions_merged == len(keys) * 3  # one segment per dataset

    def test_below_threshold_skipped(self, setup):
        _, _, trees, statistics, directory, merger = setup
        combo = frozenset({0, 1, 2})
        keys = [next(iter(trees[0].leaves())).key]
        record_queries(statistics, trees, combo, keys, times=1)
        outcome = merger.maybe_merge(combo, trees)
        assert not outcome.merged
        assert outcome.skipped_reason == "below merge threshold"

    def test_small_combination_skipped(self, setup):
        _, _, trees, statistics, _, merger = setup
        combo = frozenset({0, 1})
        record_queries(statistics, trees, combo, [(0,)], times=5)
        outcome = merger.maybe_merge(combo, trees)
        assert not outcome.merged
        assert outcome.skipped_reason == "combination too small"

    def test_never_queried_combination(self, setup):
        _, _, trees, _, _, merger = setup
        outcome = merger.maybe_merge(frozenset({0, 1, 2}), trees)
        assert not outcome.merged

    def test_nothing_new_to_merge_is_noop(self, setup):
        _, _, trees, statistics, _, merger = setup
        combo = frozenset({0, 1, 2})
        keys = [next(iter(trees[0].leaves())).key]
        record_queries(statistics, trees, combo, keys, times=3)
        assert merger.maybe_merge(combo, trees).merged
        second = merger.maybe_merge(combo, trees)
        assert not second.merged
        assert second.skipped_reason == "nothing new to merge"

    def test_extension_with_new_partitions(self, setup):
        _, _, trees, statistics, directory, merger = setup
        combo = frozenset({0, 1, 2})
        leaves = list(trees[0].leaves())
        record_queries(statistics, trees, combo, [leaves[0].key], times=3)
        merger.maybe_merge(combo, trees)
        record_queries(statistics, trees, combo, [leaves[1].key], times=3)
        outcome = merger.maybe_merge(combo, trees)
        assert outcome.merged
        info = directory.get(combo)
        assert leaves[0].key in info.entries
        assert leaves[1].key in info.entries

    def test_merge_content_matches_originals(self, setup):
        _, _, trees, statistics, directory, merger = setup
        combo = frozenset({0, 1, 2})
        leaf = max(trees[0].leaves(), key=lambda n: n.n_objects)
        record_queries(statistics, trees, combo, [leaf.key], times=3)
        merger.maybe_merge(combo, trees)
        info = directory.get(combo)
        file = merger.merge_file(combo)
        for dataset_id in combo:
            original = {o.key() for o in trees[dataset_id].read_partition(trees[dataset_id].node(leaf.key))}
            copied = {o.key() for o in file.read_group(info.segment(leaf.key, dataset_id))}
            assert copied == original

    def test_key_missing_in_one_dataset_not_merged(self, setup):
        _, _, trees, statistics, directory, merger = setup
        combo = frozenset({0, 1, 2})
        # Refine the key in dataset 0 so its level differs from the others.
        adaptor = Adaptor(OdysseyConfig(partitions_per_level=8))
        leaf = max(trees[0].leaves(), key=lambda n: n.n_objects)
        key = leaf.key
        adaptor.refine(trees[0], leaf)
        record_queries(statistics, trees, combo, [key], times=3)
        outcome = merger.maybe_merge(combo, trees)
        assert not outcome.merged or key not in directory.get(combo).entries

    def test_merging_disabled(self, setup, disk):
        catalog, _, trees, statistics, directory, _ = setup
        config = OdysseyConfig(
            partitions_per_level=8, enable_merging=False, merge_partition_min_hits=1
        )
        merger = Merger(disk, config, directory, statistics, dimension=3)
        outcome = merger.maybe_merge(frozenset({0, 1, 2}), trees)
        assert outcome.skipped_reason == "merging disabled"


class TestBudget:
    def test_eviction_keeps_most_recent(self, setup, disk):
        catalog, _, trees, statistics, directory, _ = setup
        config = OdysseyConfig(
            partitions_per_level=8,
            merge_threshold=1,
            min_merge_combination=2,
            merge_partition_min_hits=1,
            merge_only_converged=False,
            merge_space_budget_pages=2,
        )
        merger = Merger(disk, config, directory, statistics, dimension=3)
        busiest = sorted(trees[0].leaves(), key=lambda n: n.n_objects, reverse=True)
        combo_a = frozenset({0, 1})
        combo_b = frozenset({1, 2})
        record_queries(statistics, trees, combo_a, [busiest[0].key], times=3)
        merger.maybe_merge(combo_a, trees)
        record_queries(statistics, trees, combo_b, [busiest[0].key], times=3)
        outcome = merger.maybe_merge(combo_b, trees)
        assert outcome.merged
        # The newly created file is protected; the older one is the victim.
        if merger.evictions:
            assert directory.get(combo_b) is not None
            assert directory.get(combo_a) is None


class TestCostModel:
    def test_estimate_scales_with_combination_size(self, setup):
        _, _, trees, _, _, _ = setup
        model = MergeCostModel(DiskModel())
        keys = {next(iter(trees[0].leaves())).key}
        small = model.estimate(frozenset({0, 1}), keys, trees)
        large = model.estimate(frozenset({0, 1, 2}), keys, trees)
        assert large.per_query_benefit_s > small.per_query_benefit_s

    def test_breakeven_positive(self, setup):
        _, _, trees, _, _, _ = setup
        model = MergeCostModel(DiskModel())
        keys = {leaf.key for leaf in trees[0].leaves()}
        estimate = model.estimate(frozenset({0, 1, 2}), keys, trees)
        assert estimate.merge_cost_s > 0
        assert estimate.worthwhile_after >= 1

    def test_adaptive_policy_waits_for_breakeven(self, setup):
        _, _, trees, _, _, _ = setup
        cost_model = MergeCostModel(
            DiskModel(seek_time_s=1e-6, transfer_rate_bytes_per_s=4096 * 10)
        )
        policy = AdaptiveMergePolicy(cost_model, static_threshold=2)
        keys = {leaf.key for leaf in trees[0].leaves() if leaf.n_objects > 0}
        combo = frozenset({0, 1, 2})
        # With an extremely slow disk and cheap seeks, the breakeven count is
        # large, so a small access count must not trigger merging.
        assert not policy.should_merge(combo, access_count=3, keys=keys, trees=trees)
        assert policy.should_merge(combo, access_count=10_000_000, keys=keys, trees=trees)

    def test_adaptive_policy_respects_static_minimum(self, setup):
        _, _, trees, _, _, _ = setup
        policy = AdaptiveMergePolicy(MergeCostModel(DiskModel()), static_threshold=5)
        assert not policy.should_merge(frozenset({0, 1, 2}), 5, set(), trees)
