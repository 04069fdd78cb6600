"""Unit tests for the Merger component."""

from __future__ import annotations

import hashlib
from dataclasses import replace

import pytest

from repro.core.adaptor import Adaptor
from repro.core.config import OdysseyConfig
from repro.core.merge import MergeDirectory, merge_file_name
from repro.core.merger import Merger, MergeOutcome
from repro.core.odyssey import SpaceOdyssey
from repro.core.statistics import StatisticsCollector
from repro.geometry.box import Box

from tests.conftest import make_catalog
from tests.oracle import make_suite, mixed_workload
from tests.scalar_reference import read_group, read_partition, reference_tree, row_of


@pytest.fixture
def setup(disk, universe):
    """Catalog + initialised trees + merger wired together by hand."""
    catalog = make_catalog(disk, universe, n_datasets=3, count=300, seed=51)
    config = OdysseyConfig(
        partitions_per_level=8,
        merge_threshold=1,
        min_merge_combination=3,
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
    # Queries as large as the universe: every first-level leaf is converged
    # for them, so the merger's convergence test never holds a key back.
    volume = next(iter(trees.values())).universe.volume()
    for _ in range(times):
        statistics.record_query(combination, set(keys), query_volume=volume)


class TestMergerTriggers:
    def test_merges_after_threshold(self, setup):
        _, _, trees, statistics, directory, merger = setup
        combo = frozenset({0, 1, 2})
        keys = [next(iter(reference_tree(trees[0]).leaves())).key]
        record_queries(statistics, trees, combo, keys, times=3)
        outcome = merger.maybe_merge(combo, trees)
        assert outcome.merged
        assert directory.get(combo).n_partitions == len(keys)

    def test_below_threshold_skipped(self, setup):
        _, _, trees, statistics, directory, merger = setup
        combo = frozenset({0, 1, 2})
        keys = [next(iter(reference_tree(trees[0]).leaves())).key]
        record_queries(statistics, trees, combo, keys, times=1)
        assert merger.maybe_merge(combo, trees) == MergeOutcome()
        assert combo not in directory

    @pytest.mark.parametrize("threshold", [1, 2, 5])
    def test_static_threshold_is_the_trigger(self, setup, disk, threshold):
        """A combination merges on its ``mt + 1``-th retrieval, not before."""
        _, config, trees, statistics, directory, _ = setup
        merger = Merger(
            disk, replace(config, merge_threshold=threshold), directory, statistics, dimension=3
        )
        combo = frozenset({0, 1, 2})
        keys = [next(iter(reference_tree(trees[0]).leaves())).key]
        record_queries(statistics, trees, combo, keys, times=threshold)
        if threshold:
            assert merger.maybe_merge(combo, trees) == MergeOutcome()
            assert combo not in directory
        record_queries(statistics, trees, combo, keys, times=1)
        assert merger.maybe_merge(combo, trees).merged
        assert directory.get(combo).n_partitions == len(keys)

    def test_threshold_zero_waits_for_a_hot_key(self, setup, disk):
        """At ``mt = 0`` the first retrieval triggers the merger, but no key
        is hot until a second query of the combination retrieved it."""
        _, config, trees, statistics, directory, _ = setup
        merger = Merger(
            disk, replace(config, merge_threshold=0), directory, statistics, dimension=3
        )
        combo = frozenset({0, 1, 2})
        keys = [next(iter(reference_tree(trees[0]).leaves())).key]
        record_queries(statistics, trees, combo, keys, times=1)
        assert merger.maybe_merge(combo, trees) == MergeOutcome()
        assert combo not in directory
        record_queries(statistics, trees, combo, keys, times=1)
        assert merger.maybe_merge(combo, trees).merged
        assert directory.get(combo).n_partitions == len(keys)

    def test_threshold_zero_runs_exactly_as_threshold_one(self):
        """``mt = 0`` is accepted (journals may carry it) and acts as
        ``max(mt, 1)``: on a seeded workload that merges, ``mt`` 0 and 1
        give equal ``summary()``, reports and page bytes."""
        suite = make_suite(41)
        queries = mixed_workload(suite, 41, n_triples=24, n_pairs=16)
        runs = []
        for threshold in (0, 1):
            config = OdysseyConfig(
                partitions_per_level=8, refinement_threshold=2.0, merge_threshold=threshold
            )
            engine = SpaceOdyssey(suite.fork().catalog, config)
            reports = []
            for box, ids in queries * 2:
                engine.query(box, ids)
                reports.append(engine.last_report)
            backend = engine.disk.backend
            pages = {
                name: hashlib.sha256(
                    b"".join(backend.read(name, page) for page in range(backend.num_pages(name)))
                ).hexdigest()
                for name in backend.list_files()
            }
            runs.append((engine.summary(), reports, pages))
        assert sum(report.merged for report in runs[1][1]) > 0, "the workload never merged"
        assert runs[0] == runs[1]

    def test_small_combination_skipped(self, setup):
        _, _, trees, statistics, directory, merger = setup
        combo = frozenset({0, 1})
        record_queries(statistics, trees, combo, [(0,)], times=5)
        assert merger.maybe_merge(combo, trees) == MergeOutcome()
        assert len(directory) == 0

    def test_never_queried_combination(self, setup):
        _, _, trees, _, _, merger = setup
        outcome = merger.maybe_merge(frozenset({0, 1, 2}), trees)
        assert not outcome.merged

    def test_nothing_new_to_merge_is_noop(self, setup, disk):
        _, _, trees, statistics, directory, merger = setup
        combo = frozenset({0, 1, 2})
        keys = [next(iter(reference_tree(trees[0]).leaves())).key]
        record_queries(statistics, trees, combo, keys, times=3)
        assert merger.maybe_merge(combo, trees).merged
        pages = disk.num_pages(merge_file_name(combo))
        assert merger.maybe_merge(combo, trees) == MergeOutcome()
        assert directory.get(combo).n_partitions == len(keys)
        assert disk.num_pages(merge_file_name(combo)) == pages

    def test_extension_with_new_partitions(self, setup):
        _, _, trees, statistics, directory, merger = setup
        combo = frozenset({0, 1, 2})
        leaves = list(reference_tree(trees[0]).leaves())
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
        leaf = max(reference_tree(trees[0]).leaves(), key=lambda n: n.n_objects)
        record_queries(statistics, trees, combo, [leaf.key], times=3)
        merger.maybe_merge(combo, trees)
        info = directory.get(combo)
        file = merger.merge_file(combo)
        for dataset_id in combo:
            tree = trees[dataset_id]
            original = {o.key() for o in read_partition(tree, reference_tree(tree).node(leaf.key))}
            copied = {o.key() for o in read_group(file, info.segment(leaf.key, dataset_id))}
            assert copied == original

    def test_key_missing_in_one_dataset_not_merged(self, setup):
        _, _, trees, statistics, directory, merger = setup
        combo = frozenset({0, 1, 2})
        # Refine the key in dataset 0 so its level differs from the others.
        adaptor = Adaptor(OdysseyConfig(partitions_per_level=8))
        leaf = max(reference_tree(trees[0]).leaves(), key=lambda n: n.n_objects)
        key = leaf.key
        adaptor.refine(trees[0], row_of(trees[0], key))
        record_queries(statistics, trees, combo, [key], times=3)
        outcome = merger.maybe_merge(combo, trees)
        assert not outcome.merged or key not in directory.get(combo).entries

    def test_a_zero_budget_refuses_before_deriving_a_key(self, setup, disk, monkeypatch):
        _, _, trees, statistics, directory, _ = setup
        config = OdysseyConfig(partitions_per_level=8).without_merging()
        merger = Merger(disk, config, directory, statistics, dimension=3)
        combo = frozenset({0, 1, 2})
        record_queries(statistics, trees, combo, sorted(trees[0].occupied_runs))

        def derived(*_args):
            raise AssertionError("a full budget derived the qualifying keys")

        monkeypatch.setattr(merger, "_qualifying_keys", derived)
        assert merger.maybe_merge(combo, trees) == MergeOutcome()
        assert len(directory) == 0


class TestBudget:
    def test_keys_past_the_budget_are_refused_in_key_order(self, setup, disk):
        _, _, trees, statistics, directory, _ = setup
        config = OdysseyConfig(
            partitions_per_level=8,
            merge_threshold=1,
            min_merge_combination=2,
            merge_space_budget_pages=3,
        )
        merger = Merger(disk, config, directory, statistics, dimension=3)
        keys = sorted(set.intersection(*(set(tree.occupied_runs) for tree in trees.values())))
        assert all(tree.occupied_runs[key].n_pages == 1 for tree in trees.values() for key in keys)
        combo_a, combo_b = frozenset({0, 1}), frozenset({1, 2})
        # Two qualifying keys of two pages each: the first fits, the second not.
        record_queries(statistics, trees, combo_a, keys[:2])
        outcome = merger.maybe_merge(combo_a, trees)
        assert (outcome.merged, outcome.new_partitions) == (True, 1)
        assert list(directory.get(combo_a).entries) == keys[:1]
        # One page is left: nothing of another combination fits.
        record_queries(statistics, trees, combo_b, keys[:1])
        assert merger.maybe_merge(combo_b, trees) == MergeOutcome()
        assert combo_b not in directory and not disk.file_exists(merge_file_name(combo_b))
        assert directory.total_pages() == disk.num_pages(merge_file_name(combo_a)) == 2


class TestConvergedRule:
    def test_a_key_the_adaptor_keeps_is_merged_at_rt_3(self, disk):
        """The merger's converged test is the negation of the Adaptor's rule.

        Every level-1 region of this universe has volume ``v`` =
        50.00000000000001 and the query has volume ``q`` =
        16.666666666666668: ``v / q`` rounds to exactly 3.0, so the Adaptor
        does not refine at ``rt = 3``, while ``3 * q`` rounds below ``v``, so
        the former ``v <= rt * average`` test refused the copy as well — the
        region was neither refined nor merged.
        """
        v, q = 50.00000000000001, 16.666666666666668
        assert v / q == 3.0 and not v <= 3.0 * q
        universe = Box((0.0, 0.0, 0.0), (2.0, 2.0, 2 * v))
        catalog = make_catalog(disk, universe, n_datasets=3, count=120, seed=3)
        config = OdysseyConfig(
            partitions_per_level=8,
            refinement_threshold=3.0,
            merge_threshold=1,
        )
        engine = SpaceOdyssey(catalog, config)
        query = Box((0.0, 0.0, 0.0), (1.0, 1.0, q))
        assert query.volume() == q
        for _ in range(2):
            engine.query(query, [0, 1, 2])
        tree = engine.trees[0]
        assert tree.depth == 1, "a region was refined"
        assert tree.volume((0,)) == v
        info = engine.merge_directory.get(frozenset({0, 1, 2}))
        assert info is not None and (0,) in info.entries
