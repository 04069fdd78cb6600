"""Unit tests for the incremental partition tree and the Adaptor."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.adaptor import Adaptor
from repro.core.config import OdysseyConfig
from repro.core.partition import PartitionTree, partition_file_name
from repro.geometry.box import Box
from repro.storage.disk import Disk
from repro.storage.pagedfile import _EMPTY_RUN

from tests.conftest import make_dataset
from tests.scalar_reference import (
    ScalarAdaptor,
    leaves_overlapping,
    read_group,
    read_partition,
    reference_tree,
    search_order,
)


def fullest_row(tree: PartitionTree) -> int:
    """The first row holding the most records."""
    return int(np.argmax(tree.leaf_snapshot().n_records))


def row_objects(tree: PartitionTree, row: int) -> list:
    run = tree.leaf_snapshot().runs[row]
    return read_group(tree.file, run) if run.n_records else []


def refine_overlapped(adaptor, tree, query: Box) -> list[bool]:
    """Offer every leaf the query overlaps to ``maybe_refine``, in search order.

    An engine tree goes by rows, put in key order, descending (a split
    moves no row); a reference tree by its nodes.
    """
    if not isinstance(tree, PartitionTree):
        outcomes = [adaptor.maybe_refine(tree, node, query) for node in leaves_overlapping(tree, query)]
    else:
        keys = tree.leaf_snapshot().keys
        rows = tree.leaves_overlapping_vectorized(query).tolist()
        outcomes = [
            adaptor.maybe_refine(tree, row, query)
            for row in sorted(rows, key=keys.__getitem__, reverse=True)
        ]
    return [outcome.refined for outcome in outcomes]


@pytest.fixture
def config() -> OdysseyConfig:
    return OdysseyConfig(partitions_per_level=8, refinement_threshold=4.0)


@pytest.fixture
def adaptor(config) -> Adaptor:
    return Adaptor(config)


@pytest.fixture
def dataset(disk, universe):
    return make_dataset(disk, universe, dataset_id=0, count=600, seed=17)


@pytest.fixture
def tree(adaptor, dataset) -> PartitionTree:
    tree = adaptor.create_tree(dataset)
    adaptor.initialize(tree)
    return tree


class TestInitialization:
    def test_uninitialised_tree(self, adaptor, dataset):
        tree = adaptor.create_tree(dataset)
        assert not tree.is_initialized
        assert tree.n_partitions == 0
        with pytest.raises(RuntimeError):
            tree.leaves_overlapping_vectorized(dataset.universe)

    def test_first_level_created(self, tree, config):
        assert tree.is_initialized
        assert tree.n_partitions == config.partitions_per_level
        assert tree.depth == 1
        assert tree.partitions_per_level == 8
        assert tree.splits_per_dim == 2

    def test_all_objects_assigned_exactly_once(self, tree, dataset):
        assert tree.n_objects == dataset.n_objects
        assert tree.total_stored_objects() == dataset.n_objects

    def test_objects_in_correct_partitions(self, tree):
        for leaf in reference_tree(tree).leaves():
            for obj in read_partition(tree, leaf):
                assert leaf.box.contains_point(obj.center)

    def test_partitions_cover_universe(self, adaptor, tree, universe):
        adaptor.refine(tree, fullest_row(tree))
        table = tree.leaf_snapshot()
        rows = search_order(tree)
        assert Box.bounding([table.box(row) for row in rows]) == universe
        assert table.volume[rows].sum() == pytest.approx(universe.volume())

    def test_max_extent_positive(self, tree):
        assert all(extent > 0 for extent in tree.max_extent)

    def test_double_initialization_fails(self, adaptor, tree):
        with pytest.raises(RuntimeError):
            adaptor.initialize(tree)

    def test_initialization_scans_raw_file_once(self, adaptor, dataset, disk):
        tree = adaptor.create_tree(dataset)
        disk.reset_head()
        before = disk.stats_snapshot()
        adaptor.initialize(tree)
        delta = disk.stats.delta_since(before)
        assert delta.pages_read >= dataset.size_pages()
        assert delta.pages_written >= dataset.size_pages() - 1

    def test_partition_file_name_convention(self):
        assert partition_file_name("x") == "odyssey/x.partitions"


class TestSearch:
    def test_leaves_overlapping_small_query(self, adaptor, tree):
        query = Box.cube((25.0, 25.0, 25.0), 10.0)
        adaptor.refine(tree, tree.leaves_overlapping_vectorized(query)[0])
        table = tree.leaf_snapshot()
        rows = tree.leaves_overlapping_vectorized(query).tolist()
        assert rows
        assert sorted((table.keys[row] for row in rows), reverse=True) == [
            leaf.key for leaf in leaves_overlapping(tree, query)
        ]
        assert all(table.box(row).intersects(query) for row in rows)

    def test_leaves_overlapping_universe_returns_all(self, adaptor, tree, universe):
        adaptor.refine(tree, fullest_row(tree))
        rows = tree.leaves_overlapping_vectorized(universe)
        assert len(rows) == tree.n_partitions
        assert sorted(rows.tolist()) == sorted(search_order(tree))

    def test_key_lookup(self, tree):
        table = tree.leaf_snapshot()
        key = table.keys[0]
        assert key in tree.leaf_keys
        assert tree.volume(key) == table.volume[0] == table.box(0).volume()
        assert (99, 99) not in tree.leaf_keys
        with pytest.raises(ValueError):
            tree.read_partition_array((99, 99))


#: The rows a first split of the 8 first-level leaves appends.
CHILDREN = slice(8, 16)


class TestRefinement:
    def test_refine_splits_leaf_into_children(self, adaptor, tree):
        row = fullest_row(tree)
        parent = tree.leaf_snapshot().keys[row]
        n_before = int(tree.leaf_snapshot().n_records[row])
        adaptor.refine(tree, row)
        table = tree.leaf_snapshot()
        assert table.keys[CHILDREN] == [parent + (i,) for i in reversed(range(8))]
        assert parent not in tree.leaf_keys
        assert int(table.n_records[CHILDREN].sum()) == n_before
        assert tree.depth == 2

    def test_refine_preserves_objects(self, adaptor, tree):
        row = fullest_row(tree)
        before = {o.key() for o in row_objects(tree, row)}
        adaptor.refine(tree, row)
        children = range(CHILDREN.start, CHILDREN.stop)
        after = {o.key() for child in children for o in row_objects(tree, child)}
        assert after == before
        assert row_objects(tree, row) == []  # the retired row holds nothing

    def test_refine_assigns_children_by_center(self, adaptor, tree):
        row = fullest_row(tree)
        adaptor.refine(tree, row)
        table = tree.leaf_snapshot()
        for child in range(CHILDREN.start, CHILDREN.stop):
            for obj in row_objects(tree, child):
                assert table.box(child).contains_point(obj.center)

    def test_refine_reuses_pages_in_place(self, adaptor, tree):
        row = fullest_row(tree)
        pages_before = tree.file.num_pages()
        parent_pages = set(tree.leaf_snapshot().runs[row].page_numbers())
        adaptor.refine(tree, row)
        runs = tree.leaf_snapshot().runs[CHILDREN]
        child_pages = {page for run in runs for page in run.page_numbers()}
        # The parent's pages are reused by the children (in-place update).
        assert parent_pages & child_pages
        # The file grows by at most the extra pages needed for per-child slack.
        assert tree.file.num_pages() >= pages_before

    def test_refine_appends_children_and_retires_the_parent(self, adaptor, tree):
        row = fullest_row(tree)
        old = tree.leaf_snapshot()
        keys, runs = list(old.keys), list(old.runs)
        columns = [column.copy() for column in (old.n_records, old.level, old.lo, old.hi)]
        adaptor.refine(tree, row)
        new = tree.leaf_snapshot()
        assert len(new) == len(old) + 8
        assert new.keys[: len(old)] == keys  # no row moves
        others = [index for index in range(len(old)) if index != row]
        assert [new.runs[index] for index in others] == [runs[index] for index in others]
        for column, before in zip((new.n_records, new.level, new.lo, new.hi), columns):
            assert np.array_equal(column[others], before[others])
        # The parent's row is retired: no overlap test selects an empty box.
        assert new.runs[row] is _EMPTY_RUN and new.n_records[row] == 0
        assert np.isposinf(new.lo[row]).all() and np.isneginf(new.hi[row]).all()
        assert new.level[row] == 1 and new.volume[row] == old.volume[row]
        assert row not in tree.leaves_overlapping_vectorized(tree.universe).tolist()
        assert tree.n_partitions == len(old) + 7

    def test_total_objects_invariant_after_many_refinements(self, adaptor, tree, dataset):
        for _ in range(3):
            row = fullest_row(tree)
            if tree.leaf_snapshot().n_records[row] == 0:
                break
            adaptor.refine(tree, row)
        assert tree.total_stored_objects() == dataset.n_objects


class TestMaybeRefine:
    def test_refines_when_ratio_exceeds_threshold(self, adaptor, tree):
        row = fullest_row(tree)
        box = tree.leaf_snapshot().box(row)
        tiny_query = Box.cube(box.center, box.side(0) / 10.0)
        outcome = adaptor.maybe_refine(tree, row, tiny_query)
        assert outcome.refined
        assert tree.depth == 2  # one level per query, however small the query

    def test_does_not_refine_below_threshold(self, adaptor, tree):
        row = fullest_row(tree)
        box = tree.leaf_snapshot().box(row)
        big_query = Box.cube(box.center, box.side(0))
        outcome = adaptor.maybe_refine(tree, row, big_query)
        assert not outcome.refined
        assert outcome.reason == "below refinement threshold"

    def test_does_not_refine_empty_partition(self, adaptor, config, disk, universe):
        # A dataset whose objects all sit in one corner leaves most
        # partitions empty.
        from tests.conftest import make_object
        from repro.data.dataset import Dataset

        objects = [make_object(i, 0, (1.0, 1.0, 1.0), extent=0.5) for i in range(10)]
        dataset = Dataset.create(disk, 0, "corner_ds", objects, universe)
        tree = adaptor.create_tree(dataset)
        adaptor.initialize(tree)
        empty_row = int(np.flatnonzero(tree.leaf_snapshot().n_records == 0)[0])
        outcome = adaptor.maybe_refine(tree, empty_row, Box.cube((90.0, 90.0, 90.0), 1.0))
        assert not outcome.refined
        assert outcome.reason == "empty partition"

    def test_respects_max_depth(self, dataset):
        # ``max_depth`` is a safety bound against runaway refinement on
        # degenerate data (e.g. coincident centres), not a tuning knob: no
        # figure or ablation sets it.
        config =OdysseyConfig(partitions_per_level=8, max_depth=1)
        adaptor = Adaptor(config)
        tree = adaptor.create_tree(dataset)
        adaptor.initialize(tree)
        row = fullest_row(tree)
        outcome = adaptor.maybe_refine(
            tree, row, Box.cube(tree.leaf_snapshot().box(row).center, 0.01)
        )
        assert not outcome.refined
        assert outcome.reason == "max depth reached"

    def test_the_next_level_waits_for_the_next_query(self, adaptor, tree):
        row = fullest_row(tree)
        tiny_query = Box.cube(tree.leaf_snapshot().box(row).center, 0.01)
        assert adaptor.maybe_refine(tree, row, tiny_query).refined
        assert tree.depth == 2
        # The children would qualify too; each is split by a later call.
        child = int(np.flatnonzero(tree.leaf_snapshot().level == 2)[0])
        assert adaptor.maybe_refine(tree, child, tiny_query).refined
        assert tree.depth == 3

    def test_zero_volume_query_does_not_refine(self, adaptor, tree):
        row = fullest_row(tree)
        center = tree.leaf_snapshot().box(row).center
        outcome = adaptor.maybe_refine(tree, row, Box(center, center))
        assert not outcome.refined
        assert outcome.reason == "below refinement threshold"

    @pytest.mark.parametrize("threshold", [4.0, 1000.0])
    def test_one_level_per_query_matches_the_reference(self, universe, model, threshold):
        """Same splits, order and bytes as the per-node rule of the reference.

        The engine goes by rows, put in key order, descending; the
        reference by the nodes of
        ``tests/scalar_reference.py``.  Two engines over identical data must
        refine the same partitions in the same order, reuse the same pages
        and end with byte-identical partition files.  The higher threshold
        leaves some overlapped leaves below it.
        """
        config = OdysseyConfig(partitions_per_level=8, refinement_threshold=threshold)
        state = []
        for adaptor in (Adaptor(config), ScalarAdaptor(config)):
            disk = Disk(model=model, buffer_pages=0)
            tree = adaptor.create_tree(
                make_dataset(disk, universe, dataset_id=0, count=600, seed=17)
            )
            adaptor.initialize(tree)
            order, outcomes = [], []

            def recording_refine(tree, leaf, order=order, refine=adaptor.refine):
                if isinstance(tree, PartitionTree):
                    order.append(tree.leaf_snapshot().keys[leaf])
                else:
                    order.append(leaf.key)
                return refine(tree, leaf)

            adaptor.refine = recording_refine
            for corner in (False, True, False):
                # Inside the fullest leaf, then across the eight leaves that
                # meet at the universe's centre, then the fullest leaf again.
                fullest = max(reference_tree(tree).leaves(), key=lambda n: (n.n_objects, n.key))
                center = universe.center if corner else fullest.box.center
                query = Box.cube(center, 4.0 if corner else 0.5)
                outcomes.extend(refine_overlapped(adaptor, tree, query))
            name = partition_file_name(tree.dataset.name)
            pages = b"".join(disk.backend.read(name, page) for page in range(disk.num_pages(name)))
            state.append(
                (
                    outcomes,
                    order,
                    [(leaf.key, leaf.run) for leaf in reference_tree(tree).leaves()],
                    hashlib.sha256(pages).hexdigest(),
                )
            )
            assert outcomes[0] and len(outcomes) >= 10
            assert tree.depth >= 3
            assert tree.total_stored_objects() == tree.dataset.n_objects
        assert state[0] == state[1]
