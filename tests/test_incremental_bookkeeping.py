"""Reference models for the engine's write-time bookkeeping.

The engine keeps four read-side summaries *incrementally* — each is
updated where the state it describes changes, so no query re-derives it
from history:

* the collector's seen and hot keys per combination, each query's keys
  (the partitions it read) folded in as set algebra;
* the merger's candidate keys: set algebra over the collector's hot-key
  sets and the trees' leaf-key sets;
* every tree's leaf table (:class:`~repro.core.partition.LeafSnapshot`),
  appended to by each refinement, with its key summaries (the leaf-key
  set and the runs of occupied leaves by key);
* the per-tree epoch capture, a frozen copy of the table of its moment;
* the frozen merge directory, which re-copies only re-registered infos,
  and the directory's running page count.

This module owns the *from-scratch* versions — a node tree derived from
a tree's key and run summaries and the search-ordered table rebuilt from
them (``tests/scalar_reference.py``), a count
of how many queries of a combination read each key (derived here, as
each query's writer half begins, from the leaves of the node trees its
extended window overlaps that hold records) and the rescan of that
history, the full deep copy — and
asserts, after every query of seeded random workloads, that each
incremental summary equals its reference.  The node tree is built from
the key summaries, so it checks the table's columns for consistency with
them, not the leaf set itself; that set is checked independently by
``tests/test_properties.py::TestSpliceProperties`` (the engine against a
node-by-node refinement) and the engine oracle
``tests/test_engine_fuzz.py`` (answers, adaptive state and page bytes
against the scalar engine).  The other references read only
primary state (the recorded keys, the live infos), never a table column.

A quick grid of configurations runs in tier-1; ``REPRO_FUZZ_ITERATIONS=N``
adds N randomly derived scenarios (CI's deep-oracles job sets 25).
"""

from __future__ import annotations

import itertools
import os
import random
from collections import Counter
from dataclasses import replace

import pytest

from repro.core import partition as partition_module
from repro.core.config import OdysseyConfig
from repro.core.odyssey import SpaceOdyssey
from repro.core.partition import PartitionTree

from tests.oracle import (
    after_retired_draws, check_frozen_copy, check_merge_space, check_tree, make_suite,
    mixed_workload,
)
from tests.scalar_reference import leaves_overlapping, reference_tree

DEEP_ITERATIONS = int(os.environ.get("REPRO_FUZZ_ITERATIONS", "0"))


# ---------------------------------------------------------------------- #
# Reference models (the engine's former per-query derivations)
# ---------------------------------------------------------------------- #


#: How many queries of a combination must retrieve a key before it is hot.
HOT_KEY_MIN_HITS = 2


def reference_hot_keys(key_hits: Counter) -> set:
    """The hot keys, from the per-key count of queries that retrieved them."""
    return {key for key, hits in key_hits.items() if hits >= HOT_KEY_MIN_HITS}


def reference_qualifying_keys(config, combination, stats, key_hits, trees) -> set:
    """The merger's candidate keys, rescanning the combination's key history.

    ``key_hits`` counts, per key, the queries of the combination that
    read it.  A hot key is kept unless the Adaptor would refine it
    for the combination's average query: ``volume / average > rt``, on
    the region of the reference tree.
    """
    avg_query_volume = stats.average_query_volume()
    if not all(dataset_id in trees for dataset_id in combination):
        return set()
    references = {dataset_id: reference_tree(trees[dataset_id]) for dataset_id in combination}
    qualifying = set()
    for key in reference_hot_keys(key_hits):
        if not all(reference.has_leaf(key) for reference in references.values()):
            continue
        if avg_query_volume > 0:
            node = references[next(iter(combination))].node(key)
            if node.volume() / avg_query_volume > config.refinement_threshold:
                continue
        qualifying.add(key)
    return qualifying


def reference_directory(directory) -> dict:
    """A full deep copy of everything a frozen directory must preserve."""
    return {
        info.combination: (
            info.file_name,
            {key: dict(per_dataset) for key, per_dataset in info.entries.items()},
            sum(run.n_pages for per in info.entries.values() for run in per.values()),
        )
        for info in directory.all_files()
    }


# ---------------------------------------------------------------------- #
# The checks, run after every query
# ---------------------------------------------------------------------- #


class BookkeepingChecker:
    """Asserts every incremental summary of one engine against its reference.

    Derives the keys every query reads — the leaves its extended window
    overlaps that hold records, from node trees built as its writer half
    begins — and counts per combination how many queries read each key
    (the reference for the collector's seen and hot keys).  Also remembers each frozen
    directory it has seen together with a deep copy taken at that moment,
    so a later in-place ``add_segment`` on a live info that leaked into an
    older frozen copy is caught.
    """

    def __init__(self, engine: SpaceOdyssey, tag: str) -> None:
        self.engine = engine
        self.tag = tag
        self._frozen_seen: list[tuple[object, dict]] = []
        self.candidates_seen = 0
        self.key_hits: dict[frozenset, Counter] = {}
        processor = engine._processor
        commit_query = processor.commit_query

        def committing(box, requested, *args, **kwargs):
            read = set()
            for dataset_id in requested:
                tree = engine.trees[dataset_id]
                window = box.expand(tree.max_extent).clamp(tree.universe)
                leaves = leaves_overlapping(reference_tree(tree), window)
                read.update(leaf.key for leaf in leaves if leaf.n_objects)
            self.key_hits.setdefault(frozenset(requested), Counter()).update(read)
            return commit_query(box, requested, *args, **kwargs)

        processor.commit_query = committing

    def check(self) -> None:
        engine, tag = self.engine, self.tag
        trees = engine.trees
        for tree in trees.values():
            check_tree(tree, tag)
        config = engine.config
        merger = engine.merger
        combinations = engine.statistics.combinations()
        assert combinations.keys() == self.key_hits.keys(), tag
        for combination, stats in combinations.items():
            key_hits = self.key_hits[combination]
            assert stats.seen_keys == set(key_hits), tag
            assert stats.hot_keys == reference_hot_keys(key_hits), tag
            candidates = merger._qualifying_keys(combination, stats, trees)
            assert candidates == reference_qualifying_keys(
                config, combination, stats, key_hits, trees
            ), f"{tag}: candidates of {sorted(combination)}"
            self.candidates_seen += len(candidates)
        directory = engine.merge_directory
        check_merge_space(engine, tag)
        reference = reference_directory(directory)
        assert directory.total_pages() == sum(entry[2] for entry in reference.values()), tag
        for info in directory.all_files():
            assert info.total_pages == reference[info.combination][2], tag
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
            check_frozen_copy(epoch.trees[dataset_id].snapshot, tree.leaf_snapshot(), tag)


# ---------------------------------------------------------------------- #
# Scenarios
# ---------------------------------------------------------------------- #


def start_epochs(engine: SpaceOdyssey, query) -> None:
    """Run ``query`` as a snapshot read: the engine's epochs, which the
    checker compares with the live state, start with the first one."""
    engine.query_batch([query], snapshot=True)


def run_checked(
    engine: SpaceOdyssey, queries, tag: str, batch_every: int = 0
) -> BookkeepingChecker:
    """Run ``queries`` one by one (or in small batches), checking after each step.

    The first query is a snapshot read, so every check covers the epochs.
    """
    checker = BookkeepingChecker(engine, tag)
    start_epochs(engine, queries[0])
    checker.check()
    queries = queries[1:]
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


#: ``(rt, mt, seed)``: four seeded workloads per threshold pair (the seeds
#: the grid ran when it also crossed the retired merge-policy settings).
GRID = [
    (threshold, merge_threshold, 100 + 4 * cell + offset)
    for cell, (threshold, merge_threshold) in enumerate(itertools.product((2.0, 4.0), (1, 2)))
    for offset in range(4)
]


@pytest.mark.parametrize("threshold,merge_threshold,seed", GRID)
def test_summaries_equal_references_after_every_query(threshold, merge_threshold, seed):
    suite = make_suite(seed)
    config = OdysseyConfig(
        partitions_per_level=8,
        refinement_threshold=threshold,
        merge_threshold=merge_threshold,
    )
    engine = SpaceOdyssey(suite.catalog, config)
    queries = mixed_workload(suite, seed, n_triples=32, n_pairs=8)
    checker = run_checked(engine, queries, f"bookkeeping seed {seed} {config}")
    summary = engine.summary()
    assert summary.total_partitions > 4 * 8, "the scenario never refined"
    assert checker.candidates_seen > 0, "every candidate set was empty"
    assert summary.merges_performed > 0, "the scenario never merged"


def test_tight_budget_refuses_holds_and_keeps_frozen_copies():
    """A tight budget skips the copies past it, the merge files stay within
    it after every query, and every frozen copy keeps its content."""
    seed = 8  # two combinations turn hot, so both compete for the budget
    suite = make_suite(seed)
    unbounded = SpaceOdyssey(
        suite.fork().catalog,
        OdysseyConfig(partitions_per_level=8, refinement_threshold=2.0, merge_threshold=1),
    )
    config = replace(unbounded.config, merge_space_budget_pages=4)
    engine = SpaceOdyssey(suite.catalog, config)
    queries = mixed_workload(suite, seed, n_triples=40, n_pairs=4)
    outcomes, maybe_merge = [], engine.merger.maybe_merge
    engine.merger.maybe_merge = lambda *args: outcomes.append(maybe_merge(*args)) or outcomes[-1]
    run_checked(engine, queries, f"bookkeeping budget seed {seed}")
    assert engine.summary().merges_performed > 0, "nothing fit the budget"
    assert 0 < engine.merge_directory.total_pages() <= 4
    # The same queries without a budget copy more partitions: it refused some.
    for box, ids in queries:
        unbounded.query(box, ids)
    copied = sum(info.n_partitions for info in unbounded.merge_directory.all_files())
    assert sum(o.new_partitions for o in outcomes) < copied, "the budget never refused"


def test_member_dataset_first_touched_late():
    """A combination's member that joins late starts from its own first-level leaves."""
    seed = 23
    suite = make_suite(seed)
    config = OdysseyConfig(
        partitions_per_level=8,
        refinement_threshold=2.0,
        merge_threshold=1,
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
        merge_threshold=1,
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


def test_no_full_rebuild_after_initialisation():
    """Structural guard: once a tree exists, nothing walks or re-stacks all of it.

    The from-scratch table builds live only in the tests.  In the engine,
    the one place leaf boxes become arrays is the append, ``ppl`` rows at
    a time from the parent's grid edges; the partition module does not
    even import the ``Box``-to-array bridge, so nothing there can
    re-derive the table from the whole tree.
    """
    seed = 59
    suite = make_suite(seed)
    config = OdysseyConfig(
        partitions_per_level=8,
        refinement_threshold=2.0,
        merge_threshold=1,
    )
    engine = SpaceOdyssey(suite.catalog, config)
    assert not hasattr(PartitionTree, "_leaves_in_search_order")
    assert not hasattr(partition_module, "boxes_to_arrays")
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
        merge_threshold=rng.choice((1, 2)),
        min_merge_combination=rng.choice((2, 3)),
        merge_space_budget_pages=after_retired_draws(rng).choice((None, 4, 12)),
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
