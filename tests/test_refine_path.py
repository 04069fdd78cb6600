"""Structural guard for the refinement path: work per split, counted, not timed.

One refinement costs what it moves — the parent's records and the children
that receive some — plus a fixed number of ``ppl``-sized array operations:
one ``grid_child_indices`` call, one stable sort, pages encoded only for
children that hold records, one run built per such child (the empty ones
share a single run), at most one bulk ``append_run``, and no candidate
filtering for a refinement level the budget will never run.  A per-child
mask, an encode per child *slot* or a run object per empty child is a
regression these counts catch without a stopwatch.

The module also keeps the code this path replaced as its reference models
(ROADMAP ground rule iv) — the mask-per-child assignment and the
``concatenate`` + ``asfortranarray`` snapshot splice — and compares the
engine with them on every refinement of seeded cold-start runs on Zipf
triples.  A quick grid runs in tier-1; ``REPRO_FUZZ_ITERATIONS=N`` adds N
randomly derived scenarios (CI's deep-oracles job sets 25).
"""

from __future__ import annotations

import os
import random
from collections import Counter

import numpy as np
import pytest

from repro.bench.runner import generate_workload
from repro.core import partition as partition_module
from repro.core.adaptor import Adaptor
from repro.core.config import OdysseyConfig
from repro.core.odyssey import SpaceOdyssey
from repro.core.partition import LeafSnapshot, PartitionNode, PartitionTree
from repro.geometry.box import Box
from repro.geometry.vectorized import boxes_to_arrays, grid_child_indices
from repro.storage import codec as codec_module
from repro.storage import pagedfile as pagedfile_module
from repro.storage.disk import Disk
from repro.storage.pagedfile import StoredRun

from tests.test_incremental_bookkeeping import check_tree, make_suite

DEEP_ITERATIONS = int(os.environ.get("REPRO_FUZZ_ITERATIONS", "0"))


# ---------------------------------------------------------------------- #
# Reference models (the code the refinement path replaced)
# ---------------------------------------------------------------------- #


def reference_assign_array(
    parent_box: Box, records: np.ndarray, splits: int, ppl: int
) -> list[np.ndarray]:
    """The former assignment: one boolean mask over the records per child slot."""
    if not len(records):
        return [records[:0] for _ in range(ppl)]
    centers = (records["lo"] + records["hi"]) / 2.0
    indices = grid_child_indices(centers, parent_box.lo, parent_box.hi, splits)
    return [records[indices == child] for child in range(ppl)]


def reference_splice(
    old: LeafSnapshot, start: int, stop: int, children: list[PartitionNode]
) -> tuple[tuple[PartitionNode, ...], np.ndarray, np.ndarray]:
    """The former splice: corners read back from the child boxes, two copies each."""
    leaves = children[::-1]  # the search stack pops the last child first
    lo, hi = boxes_to_arrays([leaf.box for leaf in leaves])
    return (
        old.leaves[:start] + tuple(leaves) + old.leaves[stop:],
        np.asfortranarray(np.concatenate((old.lo[:start], lo, old.lo[stop:]))),
        np.asfortranarray(np.concatenate((old.hi[:start], hi, old.hi[stop:]))),
    )


# ---------------------------------------------------------------------- #
# Counting
# ---------------------------------------------------------------------- #


class RefineGuard:
    """Counts the refinement path's calls and checks every split as it happens."""

    def __init__(self, monkeypatch) -> None:
        self.counts: Counter = Counter()
        self.refinements = 0
        self.initializations = 0
        self.empty_children = 0
        self.overflowed = 0
        self.second_level_filters = 0
        self.outcomes: list[tuple[int, int]] = []  # (levels refined, children filtered) per call
        self._in_maybe_refine = 0
        self._patch = monkeypatch.setattr
        self._count(partition_module, "grid_child_indices", "grid")
        self._count(pagedfile_module, "paginate_array", "groups_encoded")
        self._count(codec_module, "encode_page_array", "pages_encoded")
        self._count(StoredRun, "__post_init__", "runs_built")
        self._count(Disk, "append_run", "append_run")
        self._count(Disk, "write_page", "write_page")
        self._wrap(PartitionTree, "assign_array_to_children", self._assign)
        self._wrap(Adaptor, "refine", self._refine)
        self._wrap(Adaptor, "initialize", self._initialize)
        self._wrap(Adaptor, "maybe_refine", self._maybe_refine)
        self._wrap(Box, "intersects", self._intersects)

    def _wrap(self, owner, name, replacement) -> None:
        original = getattr(owner, name)
        self._patch(owner, name, lambda *args, **kwargs: replacement(original, *args, **kwargs))

    def _count(self, owner, name, label) -> None:
        def counted(original, *args, **kwargs):
            self.counts[label] += 1
            return original(*args, **kwargs)

        self._wrap(owner, name, counted)

    # -- the wrapped calls -------------------------------------------------- #

    def _assign(self, original, tree, parent_box, records):
        groups = original(tree, parent_box, records)
        expected = reference_assign_array(
            parent_box, records, tree.splits_per_dim, tree.partitions_per_level
        )
        assert len(groups) == len(expected)
        for group, reference in zip(groups, expected):
            assert group.dtype == reference.dtype
            assert group.tobytes() == reference.tobytes()
            assert not group.flags.writeable
        return groups

    def _occupancy(self, tree, children) -> tuple[int, int]:
        occupied = [child for child in children if child.n_objects]
        self.empty_children += len(children) - len(occupied)
        # Every empty child owns the one shared run.
        assert len({id(child.run) for child in children if not child.n_objects}) <= 1
        return len(occupied), sum(tree.file.pages_needed(c.n_objects) for c in occupied)

    def _split_costs(self, tree, children, before: Counter, tag: str) -> None:
        spent = self.counts - before
        occupied, pages = self._occupancy(tree, children)
        columnar = spent["grid"] > 0
        if columnar:
            assert spent["grid"] == 1, tag
            assert spent["groups_encoded"] == occupied, tag
            assert spent["pages_encoded"] == pages, tag
        assert spent["runs_built"] <= occupied + 1, tag
        assert spent["append_run"] <= 1, tag
        assert spent["write_page"] <= pages, tag
        self.overflowed += spent["append_run"]

    def _refine(self, original, adaptor, tree, node):
        tag = f"refine {tree.dataset.name} {node.key}"
        old = tree.leaf_snapshot()
        slot = old.leaves.index(node)
        before = Counter(self.counts)
        children = original(adaptor, tree, node)
        self.refinements += 1
        self._split_costs(tree, children, before, tag)
        leaves, lo, hi = reference_splice(old, slot, slot + 1, children)
        new = tree.leaf_snapshot()
        assert new.version == old.version + 1, tag
        assert new.leaves == leaves, tag
        for spliced, reference in ((new.lo, lo), (new.hi, hi)):
            assert np.array_equal(spliced, reference), tag
            assert spliced.flags.f_contiguous and spliced.dtype == reference.dtype, tag
        check_tree(tree, tag)
        return children

    def _initialize(self, original, adaptor, tree):
        before = Counter(self.counts)
        original(adaptor, tree)
        self.initializations += 1
        children = [tree.node((index,)) for index in range(tree.partitions_per_level)]
        self._split_costs(tree, children, before, f"initialize {tree.dataset.name}")
        check_tree(tree)

    def _maybe_refine(self, original, adaptor, tree, node, query):
        filtered = self.second_level_filters
        self._in_maybe_refine += 1
        try:
            outcome = original(adaptor, tree, node, query)
        finally:
            self._in_maybe_refine -= 1
        self.outcomes.append((outcome.levels, self.second_level_filters - filtered))
        return outcome

    def _intersects(self, original, box, other):
        if self._in_maybe_refine:
            self.second_level_filters += 1
        return original(box, other)


@pytest.fixture
def guard(monkeypatch) -> RefineGuard:
    return RefineGuard(monkeypatch)


def cold_start(seed: int, *, ppl: int, levels: int, columnar: bool, n_triples: int = 28):
    """A fresh engine and a seeded sequence of Zipf triples on clustered ranges.

    Windows are sized so that partitions of the first ``levels`` levels are
    well above the refinement threshold whatever ``ppl`` is.
    """
    volume_fraction = 0.16 / ppl**levels
    suite = make_suite(seed)
    config = OdysseyConfig(
        partitions_per_level=ppl,
        refinement_threshold=2.0,
        refine_levels_per_query=levels,
        merge_threshold=1,
        columnar=columnar,
    )
    triples = generate_workload(
        suite.universe,
        list(suite.catalog.dataset_ids()),
        n_triples,
        seed=seed,
        volume_fraction=volume_fraction,
        datasets_per_query=3,
        ranges="clustered",
        ids_distribution="zipf",
        # Three populated hot spots, so regions are revisited, refined and merged.
        cluster_centers=suite.generator.microcircuit_centers[:3],
    )
    queries = [(query.box, tuple(query.dataset_ids)) for query in triples]
    return SpaceOdyssey(suite.catalog, config), queries


# ---------------------------------------------------------------------- #
# The guard
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("ppl", [8, 64])
def test_a_refinement_costs_what_it_moves(guard, ppl):
    """Per split: one kernel, encodes and runs per *occupied* child, <= 1 append."""
    engine, queries = cold_start(61 + ppl, ppl=ppl, levels=1, columnar=True)
    for box, ids in queries:
        engine.query(box, ids)
    assert guard.initializations == len(engine.trees)
    assert guard.refinements >= 8, "the scenario hardly refined"
    assert guard.empty_children > guard.refinements, "no empty children: nothing to skip"
    assert guard.overflowed > 0, "no split ever appended overflow pages"
    assert guard.second_level_filters == 0, "maybe_refine filtered candidates for a level it never runs"
    assert engine.summary().merges_performed > 0, "the scenario never merged"


@pytest.mark.parametrize("columnar", [True, False], ids=["columnar", "scalar"])
def test_multi_level_refinement_still_filters_by_the_query(guard, columnar):
    """A budget of two levels: the first split's children are filtered, the second's never."""
    ppl = 8
    engine, queries = cold_start(67, ppl=ppl, levels=2, columnar=columnar)
    for box, ids in queries:
        engine.query(box, ids)
    for levels, filtered in guard.outcomes:
        assert filtered == (ppl if levels else 0)
    assert any(levels == 2 for levels, _ in guard.outcomes), "no query refined two levels"


@pytest.mark.parametrize("iteration", range(DEEP_ITERATIONS))
def test_deep_refine_guard(guard, iteration):
    """Deep mode: randomly derived cold starts, every split checked as above."""
    rng = random.Random(9_000 + iteration)
    levels = rng.choice([1, 1, 2, 3])
    engine, queries = cold_start(
        rng.randrange(10_000),
        ppl=rng.choice([8, 64]),
        levels=levels,
        columnar=rng.random() < 0.8,
        n_triples=rng.randrange(16, 48),
    )
    for box, ids in queries:
        engine.query(box, ids)
    assert guard.refinements > 0
    if levels == 1:
        assert guard.second_level_filters == 0
