"""Reference models for the engine's write-time bookkeeping.

The engine keeps four read-side summaries *incrementally* — each is
updated where the state it describes changes, so no query re-derives it
from history:

* the merger's candidate keys: set algebra over the collector's hot-key
  sets and the trees' leaf-key sets;
* every tree's :class:`~repro.core.partition.LeafSnapshot`, spliced by
  each refinement;
* the per-tree epoch capture (``runs`` / ``run_by_key``), read from
  summaries spliced alongside the snapshot;
* the frozen merge directory, which re-copies only re-registered infos,
  and the directory's running page count.

This module owns the *from-scratch* versions the engine used to run on
every query — the stack walk over the whole tree, the rescan of a
combination's whole key history, the full deep copy — and asserts, after
every query of seeded random workloads, that each incremental summary
equals its reference.  The references deliberately read only primary
state (node objects, ``key_hits``, the live infos), never a summary.

A quick grid of configurations runs in tier-1; ``REPRO_FUZZ_ITERATIONS=N``
adds N randomly derived scenarios (CI's deep-oracles job sets 25).
"""

from __future__ import annotations

import itertools
import os
import random

import numpy as np
import pytest

from repro.bench.runner import generate_workload
from repro.core import partition as partition_module
from repro.core.config import OdysseyConfig
from repro.core.odyssey import SpaceOdyssey
from repro.core.partition import PartitionNode, PartitionTree
from repro.data.suite import build_benchmark_suite
from repro.geometry.vectorized import boxes_to_arrays
from repro.storage.cost_model import DiskModel

DEEP_ITERATIONS = int(os.environ.get("REPRO_FUZZ_ITERATIONS", "0"))


# ---------------------------------------------------------------------- #
# Reference models (the engine's former per-query derivations)
# ---------------------------------------------------------------------- #


def reference_leaves_in_search_order(tree: PartitionTree) -> list[PartitionNode]:
    """All leaves in the visitation order of ``leaves_overlapping``.

    The same explicit stack as the scalar walk, without the overlap filter.
    """
    order: list[PartitionNode] = []
    stack: list[PartitionNode] = list(tree._root_children or [])
    while stack:
        node = stack.pop()
        if node.is_leaf:
            order.append(node)
        else:
            stack.extend(node.children or [])
    return order


def reference_has_leaf(tree: PartitionTree, key) -> bool:
    node = tree._nodes.get(key)
    return node is not None and node.is_leaf


def reference_qualifying_keys(config, combination, stats, trees) -> set:
    """The merger's candidate keys, rescanning the combination's key history."""
    min_hits = config.merge_partition_min_hits
    avg_query_volume = stats.average_query_volume()
    qualifying = set()
    for key in stats.all_partition_keys():
        if stats.key_hits.get(key, 0) < min_hits:
            continue
        if not all(
            dataset_id in trees and reference_has_leaf(trees[dataset_id], key)
            for dataset_id in combination
        ):
            continue
        if config.merge_only_converged and avg_query_volume > 0:
            node = trees[next(iter(combination))].node(key)
            if node.volume() > config.refinement_threshold * avg_query_volume:
                continue
        qualifying.add(key)
    return qualifying


def reference_directory(directory) -> dict:
    """A full deep copy of everything a frozen directory must preserve.

    ``last_used`` is left out: LRU order is a concern of the live
    directory alone, and a frozen info keeps the value of its own copy.
    """
    return {
        info.combination: (
            info.file_name,
            info.created_at,
            {key: dict(per_dataset) for key, per_dataset in info.entries.items()},
            sum(run.n_pages for per in info.entries.values() for run in per.values()),
        )
        for info in directory.all_files()
    }


# ---------------------------------------------------------------------- #
# The checks, run after every query
# ---------------------------------------------------------------------- #


def check_tree(tree: PartitionTree, tag: str = "") -> None:
    """Every summary of one tree against the walk over its nodes."""
    leaves = reference_leaves_in_search_order(tree)
    snapshot = tree.leaf_snapshot()
    assert snapshot.version == tree.version, tag
    assert len(snapshot.leaves) == len(leaves), tag
    assert all(a is b for a, b in zip(snapshot.leaves, leaves)), tag
    lo, hi = boxes_to_arrays([leaf.box for leaf in leaves], dimension=tree.universe.dimension)
    assert np.array_equal(snapshot.lo, lo) and np.array_equal(snapshot.hi, hi), tag
    # One layout, fixed where the snapshot is spliced: (n, d) column-major,
    # so the overlap kernels' per-axis slices are contiguous.
    for corners in (snapshot.lo, snapshot.hi):
        assert corners.shape == lo.shape and corners.dtype == np.float64, tag
        assert corners.flags.f_contiguous, tag
        assert all(corners[:, axis].flags.c_contiguous for axis in range(lo.shape[1])), tag
    keys = {leaf.key for leaf in leaves}
    assert tree.leaf_keys == keys, tag
    assert tree.n_partitions == len(leaves), tag
    assert all(tree.has_leaf(key) == (key in keys) for key in tree._nodes), tag
    capture = tree.epoch_snapshot()
    assert capture.version == tree.version and capture.snapshot is snapshot, tag
    assert capture.runs == tuple(leaf.run for leaf in leaves), tag
    assert capture.run_by_key == {leaf.key: leaf.run for leaf in leaves}, tag


class BookkeepingChecker:
    """Asserts every incremental summary of one engine against its reference.

    Also remembers each frozen directory it has seen together with a deep
    copy taken at that moment, so a later in-place ``add_segment`` on a
    live info that leaked into an older frozen copy is caught.
    """

    def __init__(self, engine: SpaceOdyssey, tag: str) -> None:
        self.engine = engine
        self.tag = tag
        self._frozen_seen: list[tuple[object, dict]] = []
        self.candidates_seen = 0

    def check(self) -> None:
        engine, tag = self.engine, self.tag
        trees = engine.trees
        for tree in trees.values():
            check_tree(tree, tag)
        config = engine.config
        merger = engine.merger
        for combination, stats in engine.statistics.combinations().items():
            assert stats.hot_keys == {
                key
                for key, hits in stats.key_hits.items()
                if hits >= config.merge_partition_min_hits
            }, tag
            candidates = merger._qualifying_keys(combination, stats, trees)
            assert candidates == reference_qualifying_keys(
                config, combination, stats, trees
            ), f"{tag}: candidates of {sorted(combination)}"
            self.candidates_seen += len(candidates)
        directory = engine.merge_directory
        reference = reference_directory(directory)
        assert directory.total_pages() == sum(entry[3] for entry in reference.values()), tag
        for info in directory.all_files():
            assert info.total_pages == reference[info.combination][3], tag
        frozen = directory.freeze()
        assert frozen.version == directory.version, tag
        assert [info.combination for info in frozen.all_files()] == list(reference), tag
        assert reference_directory(frozen) == reference, tag
        assert frozen.total_pages() == directory.total_pages(), tag
        for info in frozen.all_files():
            assert info is not directory.get(info.combination), tag
        self._frozen_seen.append((frozen, reference))
        for older, content in self._frozen_seen:
            assert reference_directory(older) == content, f"{tag}: a frozen copy changed"
        epoch = engine.epochs.current
        assert reference_directory(epoch.directory) == reference, tag
        assert set(epoch.merge_files) == set(reference), tag
        for dataset_id, tree in trees.items():
            capture = epoch.trees[dataset_id]
            leaves = reference_leaves_in_search_order(tree)
            assert capture.version == tree.version, tag
            assert capture.snapshot is tree.leaf_snapshot(), tag
            assert capture.runs == tuple(leaf.run for leaf in leaves), tag
            assert capture.run_by_key == {leaf.key: leaf.run for leaf in leaves}, tag


# ---------------------------------------------------------------------- #
# Scenarios
# ---------------------------------------------------------------------- #


def make_suite(seed: int, n_datasets: int = 4, objects: int = 350):
    return build_benchmark_suite(
        n_datasets=n_datasets,
        objects_per_dataset=objects,
        seed=seed,
        buffer_pages=64,
        model=DiskModel(seek_time_s=1e-4),
    )


def mixed_workload(suite, seed: int, n_triples: int, n_pairs: int, dataset_ids=None):
    """Zipf triples on clustered ranges interleaved with uniform pairs."""
    ids = list(dataset_ids if dataset_ids is not None else suite.catalog.dataset_ids())
    triples = list(
        generate_workload(
            suite.universe,
            ids,
            n_triples,
            seed=seed,
            volume_fraction=2e-2,
            datasets_per_query=3,
            ranges="clustered",
            ids_distribution="zipf",
            # Three populated hot spots, so regions are revisited and merged.
            cluster_centers=suite.generator.microcircuit_centers[:3],
        )
    )
    pairs = list(
        generate_workload(
            suite.universe,
            ids,
            n_pairs,
            seed=seed + 17,
            volume_fraction=2e-2,
            datasets_per_query=2,
            ranges="uniform",
            ids_distribution="uniform",
        )
    )
    queries = [(query.box, tuple(query.dataset_ids)) for query in triples + pairs]
    random.Random(seed).shuffle(queries)
    return queries


def run_checked(
    engine: SpaceOdyssey, queries, tag: str, batch_every: int = 0
) -> BookkeepingChecker:
    """Run ``queries`` one by one (or in small batches), checking after each step."""
    checker = BookkeepingChecker(engine, tag)
    checker.check()
    if batch_every:
        for start in range(0, len(queries), batch_every):
            chunk = queries[start : start + batch_every]
            engine.query_batch(chunk, snapshot=(start // batch_every) % 2 == 1)
            checker.check()
    else:
        for box, ids in queries:
            engine.query(box, ids)
            checker.check()
    return checker


GRID = list(itertools.product((1, 2), (1, 2), (True, False), (True, False)))


@pytest.mark.parametrize("levels,min_hits,converged,adaptive", GRID)
def test_summaries_equal_references_after_every_query(
    levels, min_hits, converged, adaptive, monkeypatch
):
    seed = 100 + GRID.index((levels, min_hits, converged, adaptive))
    suite = make_suite(seed)
    config = OdysseyConfig(
        partitions_per_level=8,
        refinement_threshold=2.0,
        refine_levels_per_query=levels,
        merge_threshold=1,
        merge_partition_min_hits=min_hits,
        merge_only_converged=converged,
        adaptive_merge_threshold=adaptive,
    )
    engine = SpaceOdyssey(suite.catalog, config)
    policy_calls = []
    if adaptive:
        # The policy must be handed exactly the reference key set.
        policy = engine.merger._adaptive_policy
        should_merge = policy.should_merge

        def checked_should_merge(combination, access_count, keys, trees):
            stats = engine.statistics.combination_stats(combination)
            assert keys == reference_qualifying_keys(config, combination, stats, trees)
            policy_calls.append(len(keys))
            return should_merge(combination, access_count, keys, trees)

        monkeypatch.setattr(policy, "should_merge", checked_should_merge)
    queries = mixed_workload(suite, seed, n_triples=32, n_pairs=8)
    checker = run_checked(engine, queries, f"bookkeeping seed {seed} {config}")
    summary = engine.summary()
    assert summary.total_partitions > 4 * 8, "the scenario never refined"
    assert checker.candidates_seen > 0, "every candidate set was empty"
    if adaptive:
        assert sum(policy_calls) > 0, "the adaptive policy never saw a key"
    else:
        assert summary.merges_performed > 0, "the scenario never merged"


def test_tight_budget_forces_evictions_and_remerges():
    """Evicted keys are unmerged again, and frozen copies survive the eviction."""
    seed = 7
    suite = make_suite(seed)
    config = OdysseyConfig(
        partitions_per_level=8,
        refinement_threshold=2.0,
        merge_threshold=1,
        merge_partition_min_hits=1,
        merge_only_converged=False,
        merge_space_budget_pages=4,
    )
    engine = SpaceOdyssey(suite.catalog, config)
    queries = mixed_workload(suite, seed, n_triples=40, n_pairs=4)
    merged_again = 0
    checker = BookkeepingChecker(engine, f"bookkeeping budget seed {seed}")
    evicted: set = set()
    for box, ids in queries:
        engine.query(box, ids)
        checker.check()
        report = engine.last_report
        if report.merged and frozenset(ids) in evicted:
            merged_again += 1
        if report.evicted_merge_files:
            evicted = {
                combination
                for combination in engine.statistics.combinations()
                if len(combination) >= 3 and combination not in engine.merge_directory
            }
    assert engine.summary().merge_evictions > 0, "the budget never forced an eviction"
    assert merged_again > 0, "no evicted combination was merged again"


def test_member_dataset_first_touched_late():
    """A combination's member that joins late starts from its own first-level leaves."""
    seed = 23
    suite = make_suite(seed)
    config = OdysseyConfig(
        partitions_per_level=8,
        refinement_threshold=2.0,
        merge_threshold=1,
        merge_partition_min_hits=1,
        merge_only_converged=False,
    )
    engine = SpaceOdyssey(suite.catalog, config)
    early = mixed_workload(suite, seed, n_triples=18, n_pairs=4, dataset_ids=[0, 1, 2])
    late = mixed_workload(suite, seed + 1, n_triples=18, n_pairs=4)
    assert 3 not in {d for _, ids in early for d in ids}
    assert any(3 in ids for _, ids in late)
    run_checked(engine, early + late, f"bookkeeping late-member seed {seed}")
    assert 3 in engine.trees


def test_batched_and_snapshot_paths_keep_the_summaries():
    seed = 41
    suite = make_suite(seed)
    config = OdysseyConfig(
        partitions_per_level=8,
        refinement_threshold=2.0,
        refine_levels_per_query=2,
        merge_threshold=1,
        merge_partition_min_hits=1,
        merge_space_budget_pages=6,
    )
    engine = SpaceOdyssey(suite.catalog, config)
    queries = mixed_workload(suite, seed, n_triples=30, n_pairs=6)
    run_checked(engine, queries, f"bookkeeping batched seed {seed}", batch_every=5)


def test_frozen_info_ignores_later_add_segment():
    """The unit-level statement of the freeze contract."""
    from repro.core.merge import MergeDirectory, MergeFileInfo, merge_file_name
    from repro.storage.pagedfile import PageExtent, StoredRun

    def run(start: int, pages: int) -> StoredRun:
        return StoredRun(extents=(PageExtent(start, pages),), n_records=pages)

    combo, other = frozenset({1, 2, 3}), frozenset({4, 5, 6})
    directory = MergeDirectory()
    live = MergeFileInfo(combination=combo, file_name=merge_file_name(combo))
    live.add_segment((0,), 1, run(0, 2))
    directory.register(live)
    untouched = MergeFileInfo(combination=other, file_name=merge_file_name(other))
    untouched.add_segment((5,), 4, run(9, 1))
    directory.register(untouched)
    first = directory.freeze()
    live.add_segment((0,), 2, run(2, 3))  # same key: the inner mapping must not be shared
    live.add_segment((1,), 1, run(5, 1))
    assert first.get(combo).entries == {(0,): {1: run(0, 2)}}
    assert first.get(combo).total_pages == 2 and first.total_pages() == 3
    directory.register(live)
    second = directory.freeze()
    assert second.get(combo).entries == live.entries and second.get(combo) is not live
    assert second.get(combo).total_pages == 6 == live.total_pages
    assert second.total_pages() == 7 == directory.total_pages()
    # Only the re-registered info was copied again.
    assert second.get(other) is first.get(other)
    assert second.get(combo) is not first.get(combo)
    assert first.get(combo).entries == {(0,): {1: run(0, 2)}}
    directory.remove(combo)
    assert directory.total_pages() == 1
    assert combo not in directory.freeze() and combo in second


def test_no_full_rebuild_after_initialisation(monkeypatch):
    """Structural guard: once a tree exists, nothing walks or re-stacks all of it.

    The from-scratch snapshot build lives only in this file.  In the
    engine, the one place leaf boxes become arrays is the splice, ``ppl``
    boxes at a time; a call with more is somebody re-deriving the snapshot
    from the whole tree.
    """
    seed = 59
    suite = make_suite(seed)
    config = OdysseyConfig(
        partitions_per_level=8,
        refinement_threshold=2.0,
        merge_threshold=1,
        merge_partition_min_hits=1,
    )
    engine = SpaceOdyssey(suite.catalog, config)
    assert not hasattr(PartitionTree, "_leaves_in_search_order")

    def guarded(boxes, dimension=None):
        if len(boxes) > config.partitions_per_level:
            raise AssertionError(f"{len(boxes)} leaf boxes re-stacked at once")
        return boxes_to_arrays(boxes, dimension)

    monkeypatch.setattr(partition_module, "boxes_to_arrays", guarded)
    snapshots = {}
    for box, ids in mixed_workload(suite, seed, n_triples=30, n_pairs=10):
        engine.query(box, ids)  # sequential path: window tests go through intersect_mask
        for dataset_id, tree in engine.trees.items():
            version, snapshot = snapshots.get(dataset_id, (None, None))
            if version == tree.version:
                assert tree.leaf_snapshot() is snapshot
            snapshots[dataset_id] = (tree.version, tree.leaf_snapshot())
    assert engine.summary().total_partitions > 4 * 8


# ---------------------------------------------------------------------- #
# Deep mode
# ---------------------------------------------------------------------- #


def run_random_scenario(seed: int) -> None:
    rng = random.Random(seed)
    suite = make_suite(
        rng.randint(0, 2**31), n_datasets=rng.randint(3, 5), objects=rng.randint(150, 450)
    )
    config = OdysseyConfig(
        partitions_per_level=8,
        refinement_threshold=rng.choice((2.0, 4.0)),
        refine_levels_per_query=rng.choice((1, 2)),
        merge_threshold=rng.choice((1, 2)),
        min_merge_combination=rng.choice((2, 3)),
        merge_partition_min_hits=rng.choice((1, 2)),
        merge_only_converged=rng.choice((True, False)),
        adaptive_merge_threshold=rng.random() < 0.3,
        merge_space_budget_pages=rng.choice((None, 4, 12)),
    )
    engine = SpaceOdyssey(suite.catalog, config)
    queries = mixed_workload(
        suite, rng.randint(0, 2**31), n_triples=rng.randint(15, 35), n_pairs=rng.randint(1, 10)
    )
    tag = f"bookkeeping deep seed {seed} {config}"
    run_checked(engine, queries, tag, batch_every=rng.choice((0, 0, 3, 7)))


@pytest.mark.slow
@pytest.mark.skipif(not DEEP_ITERATIONS, reason="set REPRO_FUZZ_ITERATIONS=N for deep mode")
@pytest.mark.parametrize("seed", range(1000, 1000 + DEEP_ITERATIONS))
def test_summaries_equal_references_deep(seed):
    run_random_scenario(seed)
