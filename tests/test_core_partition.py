"""Unit tests for the incremental partition tree and the Adaptor."""

from __future__ import annotations

import hashlib

import pytest

from repro.core.adaptor import Adaptor, RefinementOutcome
from repro.core.config import OdysseyConfig
from repro.core.partition import PartitionTree, partition_file_name
from repro.geometry.box import Box
from repro.storage.disk import Disk

from tests.conftest import make_dataset


def reference_maybe_refine(adaptor: Adaptor, tree, node, query: Box) -> RefinementOutcome:
    """The former ``Adaptor.maybe_refine`` loop: candidates filtered after every level."""
    config = adaptor.config
    if (
        not node.is_leaf
        or node.n_objects == 0
        or node.level >= config.max_depth
        or not adaptor.should_refine(node, query)
    ):
        return RefinementOutcome(refined=False)
    levels = 0
    current = [node]
    while levels < config.refine_levels_per_query:
        next_round = []
        for leaf in current:
            if (
                leaf.is_leaf
                and leaf.n_objects
                and leaf.level < config.max_depth
                and adaptor.should_refine(leaf, query)
            ):
                next_round.extend(adaptor.refine(tree, leaf))
        if not next_round:
            break
        levels += 1
        current = [child for child in next_round if child.box.intersects(query)]
    return RefinementOutcome(refined=levels > 0, levels=levels)


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
            tree.leaves_overlapping(dataset.universe)

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
        for leaf in tree.leaves():
            for obj in tree.read_partition(leaf):
                assert leaf.box.contains_point(obj.center)

    def test_partitions_cover_universe(self, tree, universe):
        leaves = list(tree.leaves())
        assert Box.bounding([leaf.box for leaf in leaves]) == universe
        total = sum(leaf.box.volume() for leaf in leaves)
        assert total == pytest.approx(universe.volume())

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
    def test_leaves_overlapping_small_query(self, tree):
        query = Box.cube((25.0, 25.0, 25.0), 10.0)
        leaves = tree.leaves_overlapping(query)
        assert leaves
        assert all(leaf.box.intersects(query) for leaf in leaves)

    def test_leaves_overlapping_universe_returns_all(self, tree, universe):
        assert len(tree.leaves_overlapping(universe)) == tree.n_partitions

    def test_node_lookup(self, tree):
        leaf = next(tree.leaves())
        assert tree.node(leaf.key) is leaf
        assert tree.has_leaf(leaf.key)
        with pytest.raises(KeyError):
            tree.node((99, 99))

    def test_describe(self, tree):
        summary = tree.describe()
        assert summary["n_objects"] == tree.n_objects
        assert summary["n_partitions"] == tree.n_partitions
        assert summary["depth"] == 1


class TestRefinement:
    def test_refine_splits_leaf_into_children(self, adaptor, tree):
        leaf = max(tree.leaves(), key=lambda node: node.n_objects)
        n_before = leaf.n_objects
        children = adaptor.refine(tree, leaf)
        assert len(children) == tree.partitions_per_level
        assert not leaf.is_leaf
        assert sum(child.n_objects for child in children) == n_before
        assert tree.depth == 2

    def test_refine_preserves_objects(self, adaptor, tree):
        leaf = max(tree.leaves(), key=lambda node: node.n_objects)
        before = {o.key() for o in tree.read_partition(leaf)}
        children = adaptor.refine(tree, leaf)
        after = {o.key() for child in children for o in tree.read_partition(child)}
        assert after == before

    def test_refine_assigns_children_by_center(self, adaptor, tree):
        leaf = max(tree.leaves(), key=lambda node: node.n_objects)
        children = adaptor.refine(tree, leaf)
        for child in children:
            for obj in tree.read_partition(child):
                assert child.box.contains_point(obj.center)

    def test_refine_reuses_pages_in_place(self, adaptor, tree):
        leaf = max(tree.leaves(), key=lambda node: node.n_objects)
        pages_before = tree.file.num_pages()
        parent_pages = set(leaf.run.page_numbers())
        children = adaptor.refine(tree, leaf)
        child_pages = {p for child in children if child.run for p in child.run.page_numbers()}
        # The parent's pages are reused by the children (in-place update).
        assert parent_pages & child_pages
        # The file grows by at most the extra pages needed for per-child slack.
        assert tree.file.num_pages() >= pages_before

    def test_refine_non_leaf_fails(self, adaptor, tree):
        leaf = max(tree.leaves(), key=lambda node: node.n_objects)
        adaptor.refine(tree, leaf)
        with pytest.raises(ValueError):
            adaptor.refine(tree, leaf)

    def test_total_objects_invariant_after_many_refinements(self, adaptor, tree, dataset):
        for _ in range(3):
            leaf = max(tree.leaves(), key=lambda node: node.n_objects)
            if leaf.n_objects == 0:
                break
            adaptor.refine(tree, leaf)
        assert tree.total_stored_objects() == dataset.n_objects


class TestMaybeRefine:
    def test_refines_when_ratio_exceeds_threshold(self, adaptor, tree):
        leaf = max(tree.leaves(), key=lambda node: node.n_objects)
        tiny_query = Box.cube(leaf.box.center, leaf.box.side(0) / 10.0)
        outcome = adaptor.maybe_refine(tree, leaf, tiny_query)
        assert outcome.refined
        assert outcome.levels == 1

    def test_does_not_refine_below_threshold(self, adaptor, tree):
        leaf = max(tree.leaves(), key=lambda node: node.n_objects)
        big_query = Box.cube(leaf.box.center, leaf.box.side(0))
        outcome = adaptor.maybe_refine(tree, leaf, big_query)
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
        empty_leaf = next(leaf for leaf in tree.leaves() if leaf.n_objects == 0)
        outcome = adaptor.maybe_refine(tree, empty_leaf, Box.cube((90.0, 90.0, 90.0), 1.0))
        assert not outcome.refined
        assert outcome.reason == "empty partition"

    def test_respects_max_depth(self, dataset):
        config = OdysseyConfig(partitions_per_level=8, max_depth=1)
        adaptor = Adaptor(config)
        tree = adaptor.create_tree(dataset)
        adaptor.initialize(tree)
        leaf = max(tree.leaves(), key=lambda node: node.n_objects)
        outcome = adaptor.maybe_refine(tree, leaf, Box.cube(leaf.box.center, 0.01))
        assert not outcome.refined
        assert outcome.reason == "max depth reached"

    def test_multiple_levels_per_query(self, dataset):
        config = OdysseyConfig(partitions_per_level=8, refine_levels_per_query=2)
        adaptor = Adaptor(config)
        tree = adaptor.create_tree(dataset)
        adaptor.initialize(tree)
        leaf = max(tree.leaves(), key=lambda node: node.n_objects)
        outcome = adaptor.maybe_refine(tree, leaf, Box.cube(leaf.box.center, 0.5))
        assert outcome.refined
        assert outcome.levels == 2
        assert tree.depth == 3

    @pytest.mark.parametrize("columnar", [True, False], ids=["columnar", "scalar"])
    @pytest.mark.parametrize("levels", [2, 3])
    def test_multiple_levels_match_the_reference_loop(self, universe, model, levels, columnar):
        """Several levels in one query: same splits, order and bytes as the reference loop.

        ``maybe_refine`` stops before choosing candidates for a level its
        budget will never run; the reference filters after every level, the
        last included.  Two engines over identical data must refine the
        same partitions in the same order, reuse the same pages and end
        with byte-identical partition files.
        """
        config = OdysseyConfig(
            partitions_per_level=8, refine_levels_per_query=levels, columnar=columnar
        )
        state = []
        for refine_some in (Adaptor.maybe_refine, reference_maybe_refine):
            disk = Disk(model=model, buffer_pages=0)
            adaptor = Adaptor(config)
            tree = adaptor.create_tree(
                make_dataset(disk, universe, dataset_id=0, count=600, seed=17)
            )
            adaptor.initialize(tree)
            order, outcomes = [], []

            def recording_refine(tree, node, order=order, refine=adaptor.refine):
                order.append(node.key)
                return refine(tree, node)

            adaptor.refine = recording_refine
            for corner in (False, True, False):
                # Inside the fullest leaf, then across the eight leaves that
                # meet at the universe's centre, then the fullest leaf again.
                fullest = max(tree.leaves(), key=lambda node: node.n_objects)
                center = universe.center if corner else fullest.box.center
                query = Box.cube(center, 4.0 if corner else 0.5)
                for node in tree.leaves_overlapping(query):
                    outcome = refine_some(adaptor, tree, node, query)
                    outcomes.append((outcome.refined, outcome.levels))
            name = partition_file_name(tree.dataset.name)
            pages = b"".join(disk.backend.read(name, page) for page in range(disk.num_pages(name)))
            state.append(
                (
                    outcomes,
                    order,
                    [(leaf.key, leaf.run) for leaf in tree.leaf_snapshot().leaves],
                    hashlib.sha256(pages).hexdigest(),
                )
            )
            assert outcomes[0] == (True, levels) and len(outcomes) >= 10
            assert tree.depth >= levels + 1
            assert tree.total_stored_objects() == tree.dataset.n_objects
        assert state[0] == state[1]

    def test_refinement_disabled(self, dataset):
        config = OdysseyConfig(partitions_per_level=8, refine_levels_per_query=0)
        adaptor = Adaptor(config)
        tree = adaptor.create_tree(dataset)
        adaptor.initialize(tree)
        leaf = max(tree.leaves(), key=lambda node: node.n_objects)
        outcome = adaptor.maybe_refine(tree, leaf, Box.cube(leaf.box.center, 0.01))
        assert not outcome.refined
