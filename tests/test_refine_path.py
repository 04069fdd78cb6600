"""Structural guard for the refinement path: work per split, counted, not timed.

One refinement costs what it moves — the parent's records and the children
that receive some — plus a fixed number of ``ppl``-sized array operations:
one ``grid_child_indices`` call, one stable sort, one dtype lookup for the
write, pages encoded only for children that hold records, one run built
per such child (the empty ones share a single run), at most one bulk
``append_run``, a row of the leaf table and no object for an empty child
(at most two boxes per split, both the parent's).  A per-child mask, an
encode per child *slot*, a box or run object per empty child is a
regression these counts catch without a stopwatch.  The table only grows:
a split appends exactly ``ppl`` rows, retires its parent's row and leaves
every other row as it was, the columns are reallocated O(log rows) times
over a cold start, and a pinned epoch's table does not change.

The module also keeps the code this path replaced as its reference models
(ROADMAP ground rule iv) — the mask-per-child assignment, and the
children's corners read back from their boxes — and compares the engine
with them on every refinement of seeded cold-start runs on Zipf triples;
after every split the whole table is checked against the node tree and
the former search-ordered table (``tests/oracle.py::check_tree``).  A
quick grid runs in tier-1; ``REPRO_FUZZ_ITERATIONS=N`` adds N randomly
derived scenarios (CI's deep-oracles job sets 25).
"""

from __future__ import annotations

import math
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
from repro.core.partition import PartitionTree
from repro.geometry.box import Box
from repro.geometry.vectorized import boxes_to_arrays, grid_child_indices
from repro.storage import codec as codec_module
from repro.storage import pagedfile as pagedfile_module
from repro.storage.disk import Disk
from repro.storage.pagedfile import _EMPTY_RUN, PagedFile, StoredRun

from tests.oracle import TABLE_COLUMNS, check_tree, make_suite
from tests.scalar_reference import ScalarAdaptor, ScalarOdyssey, child_box, reference_assign_array

DEEP_ITERATIONS = int(os.environ.get("REPRO_FUZZ_ITERATIONS", "0"))


# ---------------------------------------------------------------------- #
# Reference models (the code the refinement path replaced)
# ---------------------------------------------------------------------- #


def reference_child_corners(parent: Box, splits: int, ppl: int) -> tuple[np.ndarray, np.ndarray]:
    """The children's corners read back from their boxes, the last child first."""
    return boxes_to_arrays([child_box(parent, index, splits) for index in reversed(range(ppl))])


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
        self.candidate_filters = 0
        self.outcomes: list[tuple[bool, int, int]] = []  # (refined, splits, filters) per call
        self.grows: Counter = Counter()  # column reallocations per dataset
        self._in_maybe_refine = 0
        self._patch = monkeypatch.setattr
        self._count(partition_module, "grid_child_indices", "grid")
        self._count(pagedfile_module, "paginate_array", "groups_encoded")
        self._count(PagedFile, "_paginate", "encode_entries")
        self._count(PagedFile, "_encode_group_array", "slot_encode_entries")
        self._in_write = 0
        self._wrap(PagedFile, "_require_dtype", self._dtype_lookup)
        self._wrap(PagedFile, "write_groups_array", self._write_groups)
        self._count(codec_module, "encode_page_array", "pages_encoded")
        self._count(StoredRun, "__post_init__", "runs_built")
        self._count(Box, "__post_init__", "boxes_built")
        self._count(Box, "_trusted", "boxes_built")
        self._count(Disk, "append_run", "append_run")
        self._count(Disk, "write_page", "write_page")
        self._wrap(PartitionTree, "assign_array_to_children", self._assign)
        for adaptor_class in (Adaptor, ScalarAdaptor):
            self._wrap(adaptor_class, "refine", self._refine)
            self._wrap(adaptor_class, "initialize", self._initialize)
            self._wrap(adaptor_class, "maybe_refine", self._maybe_refine)
        self._wrap(Box, "intersects", self._intersects)
        self._wrap(partition_module, "intersect_mask", self._filter_rows)
        self._wrap(PartitionTree, "_grow", self._grow)

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

    def _dtype_lookup(self, original, file):
        if self._in_write:
            self.counts["write_dtype_checks"] += 1
        return original(file)

    def _write_groups(self, original, file, *args, **kwargs):
        self._in_write += 1
        try:
            return original(file, *args, **kwargs)
        finally:
            self._in_write -= 1

    def _occupancy(self, tree, runs) -> tuple[int, int]:
        occupied = [run for run in runs if run.n_records]
        self.empty_children += len(runs) - len(occupied)
        # Every empty child owns the one shared run.
        assert len({id(run) for run in runs if not run.n_records}) <= 1
        return len(occupied), sum(tree.file.pages_needed(run.n_records) for run in occupied)

    def _split_costs(self, tree, runs, before: Counter, tag: str) -> None:
        spent = self.counts - before
        occupied, pages = self._occupancy(tree, runs)
        if spent["grid"]:  # the engine's sorted split (the reference loops)
            assert spent["grid"] == 1, tag
            assert spent["groups_encoded"] == spent["encode_entries"] == occupied, tag
            assert spent["slot_encode_entries"] == 0, tag
            assert spent["pages_encoded"] == pages, tag
            # One dtype lookup for the write of all the children.
            assert spent["write_dtype_checks"] == 1, tag
            # The parent's box, for the assignment and for the grid edges.
            assert spent["boxes_built"] <= 2, tag
        assert spent["runs_built"] <= occupied + 1, tag
        assert spent["append_run"] <= 1, tag
        assert spent["write_page"] <= pages, tag
        self.overflowed += spent["append_run"]

    def _refine(self, original, adaptor, tree, leaf):
        if not isinstance(tree, PartitionTree):  # the reference's node tree
            before = Counter(self.counts)
            children = original(adaptor, tree, leaf)
            self.refinements += 1
            self._split_costs(tree, [child.run for child in children], before, f"refine {leaf.key}")
            return children
        old = tree.leaf_snapshot()
        n, parent = len(old), old.keys[leaf]
        tag = f"refine {tree.dataset.name} {parent}"
        ppl = tree.partitions_per_level
        lo, hi = reference_child_corners(old.box(leaf), tree.splits_per_dim, ppl)
        keys, runs = list(old.keys), list(old.runs)
        columns = {column: getattr(old, column).copy() for column in TABLE_COLUMNS}
        before = Counter(self.counts)
        result = original(adaptor, tree, leaf)
        new = tree.leaf_snapshot()
        self.refinements += 1
        self._split_costs(tree, new.runs[n:], before, tag)
        assert new.version == old.version + 1, tag
        # Exactly ppl new rows, the last child first, with the children's corners.
        assert len(new) == n + ppl, tag
        assert new.keys == keys + [parent + (index,) for index in reversed(range(ppl))], tag
        assert np.array_equal(new.lo[n:], lo) and np.array_equal(new.hi[n:], hi), tag
        # One retirement: the parent's row, in place.
        assert new.runs[leaf] is _EMPTY_RUN and new.n_records[leaf] == 0, tag
        assert np.isposinf(new.lo[leaf]).all() and np.isneginf(new.hi[leaf]).all(), tag
        assert parent not in tree.leaf_keys, tag
        # Every other existing row is as it was, in every column.
        others = np.delete(np.arange(n), leaf)
        assert [new.runs[row] for row in others.tolist()] == runs[:leaf] + runs[leaf + 1 :], tag
        for column, values in columns.items():
            assert np.array_equal(getattr(new, column)[others], values[others]), tag
        for column in ("level", "volume"):
            assert getattr(new, column)[leaf] == columns[column][leaf], tag
        check_tree(tree, tag)
        return result

    def _initialize(self, original, adaptor, tree):
        before = Counter(self.counts)
        original(adaptor, tree)
        self.initializations += 1
        if isinstance(tree, PartitionTree):
            self._split_costs(tree, tree.leaf_snapshot().runs, before, "initialize")
            check_tree(tree)
        else:
            self._split_costs(tree, [node.run for node in tree.roots()], before, "initialize")

    def _maybe_refine(self, original, adaptor, tree, leaf, query):
        refinements, filtered = self.refinements, self.candidate_filters
        self._in_maybe_refine += 1
        try:
            outcome = original(adaptor, tree, leaf, query)
        finally:
            self._in_maybe_refine -= 1
        self.outcomes.append(
            (
                outcome.refined,
                self.refinements - refinements,
                self.candidate_filters - filtered,
            )
        )
        return outcome

    def _intersects(self, original, box, other):
        if self._in_maybe_refine:
            self.candidate_filters += 1
        return original(box, other)

    def _grow(self, original, tree, rows):
        self.grows[tree.dataset.name] += 1
        return original(tree, rows)

    def _filter_rows(self, original, lo, hi, los, his):
        if self._in_maybe_refine:
            self.candidate_filters += len(los)
        return original(lo, hi, los, his)


@pytest.fixture
def guard(monkeypatch) -> RefineGuard:
    return RefineGuard(monkeypatch)


def cold_start(seed: int, *, ppl: int, scalar: bool, n_triples: int = 28, levels: int = 1):
    """A fresh engine (or the reference) and seeded Zipf triples on clustered ranges.

    Windows are sized so that partitions of the first ``levels`` levels are
    well above the refinement threshold whatever ``ppl`` is.
    """
    volume_fraction = 0.16 / ppl**levels
    suite = make_suite(seed)
    config = OdysseyConfig(
        partitions_per_level=ppl,
        refinement_threshold=2.0,
        merge_threshold=1,
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
    return (ScalarOdyssey if scalar else SpaceOdyssey)(suite.catalog, config), queries


# ---------------------------------------------------------------------- #
# The guard
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("ppl", [8, 64])
def test_a_refinement_costs_what_it_moves(guard, ppl):
    """Per split: one kernel, encodes and runs per *occupied* child, <= 1 append."""
    # At ppl = 64 the first merge comes after the 32nd triple.
    engine, queries = cold_start(61 + ppl, ppl=ppl, scalar=False, n_triples=40)
    for box, ids in queries:
        engine.query(box, ids)
    assert guard.initializations == len(engine.trees)
    assert guard.refinements >= 8, "the scenario hardly refined"
    assert guard.empty_children > guard.refinements, "no empty children: nothing to skip"
    assert guard.overflowed > 0, "no split ever appended overflow pages"
    assert guard.candidate_filters == 0, "maybe_refine filtered candidates for a level it never runs"
    assert engine.summary().merges_performed > 0, "the scenario never merged"
    assert not hasattr(partition_module, "PartitionNode"), "leaves are rows, not node objects"
    # The columns double when full: O(log rows) reallocations per tree.
    for tree in engine.trees.values():
        grows = guard.grows[tree.dataset.name]
        assert 1 <= grows <= 1 + math.ceil(math.log2(len(tree.leaf_snapshot()) / ppl))
    assert max(guard.grows.values()) >= 3, "no tree grew past its first doublings"


def test_a_pinned_epoch_keeps_its_table():
    """A split retires a live row in place; an epoch pinned before it reads its
    own frozen copy, row for row as it was captured, and so do later captures."""
    engine, queries = cold_start(71, ppl=8, scalar=False)
    engine.query_batch([queries[0]], snapshot=True)  # starts the epochs
    pinned = engine.epochs.pin()
    tables = {dataset_id: capture.snapshot for dataset_id, capture in pinned.trees.items()}
    frozen = {
        dataset_id: (
            list(table.keys), list(table.runs), [getattr(table, c).copy() for c in TABLE_COLUMNS]
        )
        for dataset_id, table in tables.items()
    }
    for box, ids in queries[1:]:
        engine.query(box, ids)
    refined = [d for d, table in tables.items() if engine.trees[d].version > table.version]
    assert refined, "no pinned tree was refined afterwards"
    for dataset_id, table in tables.items():
        keys, runs, columns = frozen[dataset_id]
        assert table.keys == keys and table.runs == runs
        assert all(np.array_equal(getattr(table, c), v) for c, v in zip(TABLE_COLUMNS, columns))
        current = engine.epochs.current.trees[dataset_id].snapshot
        assert current.version == engine.trees[dataset_id].version
    engine.epochs.unpin(pinned)


@pytest.mark.parametrize("scalar", [False, True], ids=["columnar", "scalar"])
def test_a_refining_query_splits_one_level(guard, scalar):
    """Each ``maybe_refine`` call splits its leaf once or not at all, and
    never looks for candidates among the children it made, though the
    windows are small enough for those children to qualify too."""
    engine, queries = cold_start(67, ppl=8, scalar=scalar, levels=2)
    for box, ids in queries:
        engine.query(box, ids)
    assert any(refined for refined, _, _ in guard.outcomes), "no query refined"
    for refined, splits, filtered in guard.outcomes:
        assert splits == int(refined)
        assert filtered == 0


@pytest.mark.parametrize("iteration", range(DEEP_ITERATIONS))
def test_deep_refine_guard(guard, iteration):
    """Deep mode: randomly derived cold starts, every split checked as above."""
    rng = random.Random(9_000 + iteration)
    engine, queries = cold_start(
        rng.randrange(10_000),
        ppl=rng.choice([8, 64]),
        scalar=rng.random() >= 0.8,
        n_triples=rng.randrange(16, 48),
    )
    for box, ids in queries:
        engine.query(box, ids)
    assert guard.refinements > 0
    assert guard.candidate_filters == 0
