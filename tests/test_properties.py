"""Property-based tests (Hypothesis) for core data structures and invariants.

These cover the invariants DESIGN.md commits to:

* geometric identities of :class:`Box`;
* binary codec round-trips;
* PagedFile group writes never lose or duplicate records, with or without
  in-place page reuse;
* every index (Grid, R-tree, FLAT, Space Odyssey) answers exactly like the
  brute-force oracle on randomly generated data and query sequences;
* the partition tree never loses objects across arbitrary refinement, and
  its spliced leaf snapshot, leaf-key set and run summaries equal a fresh
  walk after any refinement sequence;
* the sorted split of a partition's records equals the mask-per-child
  split it replaced and the scalar assignment, for centres on cell edges,
  outside the parent, all in one child, and a zero-width axis — and its
  groups are read-only views;
* the vectorized box-intersection kernels agree with the scalar
  :meth:`Box.intersects` on random boxes, including degenerate
  zero-extent ones;
* batched execution answers exactly like the brute-force oracle for
  random batches mixing combinations, duplicate queries and empty
  (zero-extent) windows;
* the epoch (MVCC) layer's pin/unpin/publish discipline: a pinned epoch
  is never freed, epoch ids grow strictly monotonically, and a freshly
  published epoch's tree captures equal the live trees at capture time.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.flat import FLATIndex
from repro.baselines.grid import GridIndex
from repro.baselines.interface import result_keys
from repro.baselines.rtree import STRRTree
from repro.core.adaptor import Adaptor
from repro.core.config import OdysseyConfig
from repro.core.odyssey import SpaceOdyssey
from repro.data.dataset import Dataset, DatasetCatalog
from repro.data.spatial_object import SpatialObject, spatial_object_codec
from repro.geometry.box import Box
from repro.core.partition import PartitionTree
from repro.geometry.vectorized import boxes_to_arrays, intersect_mask, intersect_matrix
from repro.storage.codec import FixedRecordCodec
from repro.storage.cost_model import DiskModel
from repro.storage.disk import Disk
from repro.storage.pagedfile import PagedFile

from tests.test_incremental_bookkeeping import check_tree
from tests.test_refine_path import reference_assign_array

UNIVERSE = Box((0.0, 0.0, 0.0), (100.0, 100.0, 100.0))

coordinates = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)
extents = st.floats(min_value=0.01, max_value=10.0, allow_nan=False)
#: Side lengths that may collapse to zero (degenerate boxes).
degenerate_extents = st.floats(min_value=0.0, max_value=10.0, allow_nan=False)


@st.composite
def boxes(draw, dimension: int = 3) -> Box:
    center = [draw(coordinates) for _ in range(dimension)]
    sides = [draw(extents) for _ in range(dimension)]
    return Box.from_center(center, sides).clamp(UNIVERSE)


@st.composite
def maybe_degenerate_boxes(draw, dimension: int = 3) -> Box:
    """Boxes whose sides may be exactly zero (points, slabs, lines)."""
    center = [draw(coordinates) for _ in range(dimension)]
    sides = [draw(degenerate_extents) for _ in range(dimension)]
    return Box.from_center(center, sides).clamp(UNIVERSE)


@st.composite
def spatial_objects(draw, dataset_id: int = 0) -> SpatialObject:
    oid = draw(st.integers(min_value=0, max_value=2**40))
    return SpatialObject(oid=oid, dataset_id=dataset_id, box=draw(boxes()))


def object_lists(min_size=0, max_size=120):
    return st.lists(spatial_objects(), min_size=min_size, max_size=max_size)


class TestBoxProperties:
    @given(boxes(), boxes())
    def test_intersection_symmetry(self, a: Box, b: Box):
        assert a.intersects(b) == b.intersects(a)

    @given(boxes(), boxes())
    def test_intersection_volume_never_exceeds_operands(self, a: Box, b: Box):
        overlap = a.intersection(b)
        if overlap is None:
            assert not a.intersects(b)
        else:
            assert overlap.volume() <= min(a.volume(), b.volume()) + 1e-9
            assert a.intersects(b)

    @given(boxes(), boxes())
    def test_union_contains_both(self, a: Box, b: Box):
        union = a.union(b)
        assert union.contains_box(a)
        assert union.contains_box(b)

    @given(boxes(), st.floats(min_value=0.0, max_value=5.0, allow_nan=False))
    def test_expand_then_clamp_contains_original_clamped(self, box: Box, amount: float):
        expanded = box.expand(amount).clamp(UNIVERSE)
        assert expanded.contains_box(box.clamp(UNIVERSE))

    @given(boxes(), st.integers(min_value=1, max_value=4))
    def test_split_grid_partitions_volume(self, box: Box, cells: int):
        children = box.split_grid(cells)
        assert len(children) == cells**3
        assert sum(child.volume() for child in children) == pytest.approx(
            box.volume(), rel=1e-6, abs=1e-9
        )

    @given(
        st.one_of(boxes(), maybe_degenerate_boxes()),
        st.lists(st.integers(min_value=1, max_value=4), min_size=3, max_size=3),
    )
    def test_split_grid_children_equal_validated_reference(self, box: Box, counts):
        """The trusted constructor builds, bit for bit, what validation would accept."""
        reference = []
        for coords in itertools.product(*(range(c) for c in counts)):
            lo, hi = [], []
            for axis, cell in enumerate(coords):
                step = box.side(axis) / counts[axis]
                lo.append(box.lo[axis] + cell * step)
                hi.append(box.lo[axis] + (cell + 1) * step)
                if cell == counts[axis] - 1:
                    hi[axis] = box.hi[axis]  # the last cell snaps to the bound
            reference.append(Box(tuple(lo), tuple(hi)))  # validated
        assert box.split_grid(counts) == reference

    @given(st.one_of(boxes(), maybe_degenerate_boxes()), st.integers(min_value=1, max_value=4))
    def test_grid_edges_are_the_corners_of_the_children(self, box: Box, cells: int):
        """Row-major products of the per-axis edges: the floats of ``split_grid``."""
        lows, highs = box.grid_edges(cells)
        children = box.split_grid(cells)
        assert [child.lo for child in children] == list(itertools.product(*lows))
        assert [child.hi for child in children] == list(itertools.product(*highs))

    @given(boxes(), boxes(), st.integers(min_value=1, max_value=5))
    def test_grid_cells_overlapping_is_superset_of_exact(
        self, box: Box, query: Box, cells: int
    ):
        exact = {
            index
            for index, child in enumerate(box.split_grid(cells))
            if child.intersects(query)
        }
        listed = set(box.grid_cells_overlapping(query, cells))
        assert exact <= listed


class TestCodecProperties:
    @given(spatial_objects())
    def test_spatial_object_roundtrip(self, obj: SpatialObject):
        codec = spatial_object_codec(3)
        assert codec.unpack(codec.pack(obj)) == obj

    @given(st.lists(st.integers(min_value=-(2**62), max_value=2**62), max_size=300))
    def test_paged_file_roundtrip(self, records: list[int]):
        codec = FixedRecordCodec("<q", lambda v: (v,), lambda f: f[0])
        disk = Disk(model=DiskModel(), buffer_pages=0)
        file: PagedFile[int] = PagedFile(disk, "prop.dat", codec)
        run = file.append_group(records)
        assert sorted(file.read_group(run)) == sorted(records)


def degenerate_spatial_objects():
    """Objects whose boxes may collapse to points, lines or slabs."""

    @st.composite
    def _build(draw) -> SpatialObject:
        oid = draw(st.integers(min_value=0, max_value=2**40))
        did = draw(st.integers(min_value=0, max_value=7))
        return SpatialObject(
            oid=oid, dataset_id=did, box=draw(maybe_degenerate_boxes())
        )

    return _build()


class TestArrayCodecProperties:
    """The array surface must be byte- and value-identical to the scalar codec.

    Covers empty groups, partial pages (group sizes around the 63-records
    page capacity) and degenerate zero-extent boxes.
    """

    @given(st.lists(degenerate_spatial_objects(), max_size=160))
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_array_read_matches_scalar_read(self, objects):
        disk = Disk(model=DiskModel(), buffer_pages=0)
        file = PagedFile(disk, "prop_arr.dat", spatial_object_codec(3))
        run = file.append_group(objects)
        records = file.read_group_array(run)
        codec = file.codec
        assert len(records) == len(objects)
        assert records.tobytes() == b"".join(codec.pack(obj) for obj in objects)
        assert file.read_group(run) == objects

    @given(
        st.lists(
            st.lists(degenerate_spatial_objects(), max_size=80),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_array_writes_are_byte_identical_to_scalar_writes(self, groups):
        codec = spatial_object_codec(3)
        scalar_disk = Disk(model=DiskModel(), buffer_pages=0)
        array_disk = Disk(model=DiskModel(), buffer_pages=0)
        scalar_file = PagedFile(scalar_disk, "prop_w.dat", codec)
        array_file = PagedFile(array_disk, "prop_w.dat", codec)
        parent = scalar_file.append_group(list(range_objects(120)))
        array_parent = array_file.append_group(list(range_objects(120)))
        assert parent == array_parent
        scalar_runs = scalar_file.write_groups(groups, reuse=parent.extents)
        staging = PagedFile(
            Disk(model=DiskModel(), buffer_pages=0), "staging.dat", codec
        )
        array_groups = [
            staging.read_group_array(staging.append_group(group)) for group in groups
        ]
        array_runs = array_file.write_groups_array(array_groups, reuse=parent.extents)
        assert scalar_runs == array_runs
        assert [
            scalar_disk.backend.read("prop_w.dat", page)
            for page in range(scalar_disk.num_pages("prop_w.dat"))
        ] == [
            array_disk.backend.read("prop_w.dat", page)
            for page in range(array_disk.num_pages("prop_w.dat"))
        ]

    @given(st.lists(degenerate_spatial_objects(), max_size=100))
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_scan_arrays_sees_every_record(self, objects):
        disk = Disk(model=DiskModel(), buffer_pages=0)
        file = PagedFile(disk, "prop_scan.dat", spatial_object_codec(3))
        file.append_group(objects[: len(objects) // 2])
        file.append_group(objects[len(objects) // 2 :])
        total = sum(len(chunk) for chunk in file.scan_arrays(chunk_pages=1))
        assert total == len(objects)


def range_objects(count: int):
    """Deterministic small objects for write-path comparisons."""
    for oid in range(count):
        center = (float(oid % 10) * 10.0 + 1.0,) * 3
        yield SpatialObject(oid=oid, dataset_id=0, box=Box.cube(center, 1.0))


class TestWriteGroupsProperties:
    @given(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=10**9), max_size=80),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
    def test_groups_roundtrip_with_reuse(self, groups: list[list[int]]):
        codec = FixedRecordCodec("<q", lambda v: (v,), lambda f: f[0])
        disk = Disk(model=DiskModel(), buffer_pages=0)
        file: PagedFile[int] = PagedFile(disk, "prop2.dat", codec)
        parent = file.append_group(list(range(500)))
        runs = file.write_groups(groups, reuse=parent.extents)
        assert len(runs) == len(groups)
        for group, run in zip(groups, runs):
            assert sorted(file.read_group(run)) == sorted(group)
        # No two groups share a page.
        seen: set[int] = set()
        for run in runs:
            pages = set(run.page_numbers())
            assert pages.isdisjoint(seen)
            seen |= pages


def _brute_force(objects: list[SpatialObject], query: Box) -> set[tuple[int, int]]:
    return {o.key() for o in objects if o.intersects(query)}


class TestIndexCorrectnessProperties:
    @given(object_lists(min_size=1), st.lists(boxes(), min_size=1, max_size=5))
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_grid_matches_bruteforce(self, objects, queries):
        objects = _dedupe(objects)
        disk = Disk(model=DiskModel(), buffer_pages=0)
        dataset = Dataset.create(disk, 0, "prop_grid", objects, UNIVERSE)
        index = GridIndex(disk, "prop_grid_idx", UNIVERSE, cells_per_dim=3)
        index.build([dataset])
        for query in queries:
            assert result_keys(index.query(query)) == _brute_force(objects, query)

    @given(object_lists(min_size=1), st.lists(boxes(), min_size=1, max_size=5))
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_rtree_matches_bruteforce(self, objects, queries):
        objects = _dedupe(objects)
        disk = Disk(model=DiskModel(), buffer_pages=0)
        dataset = Dataset.create(disk, 0, "prop_rtree", objects, UNIVERSE)
        index = STRRTree(disk, "prop_rtree_idx", UNIVERSE)
        index.build([dataset])
        for query in queries:
            assert result_keys(index.query(query)) == _brute_force(objects, query)

    @given(object_lists(min_size=1), st.lists(boxes(), min_size=1, max_size=5))
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_flat_matches_bruteforce(self, objects, queries):
        objects = _dedupe(objects)
        disk = Disk(model=DiskModel(), buffer_pages=0)
        dataset = Dataset.create(disk, 0, "prop_flat", objects, UNIVERSE)
        index = FLATIndex(disk, "prop_flat_idx", UNIVERSE)
        index.build([dataset])
        for query in queries:
            assert result_keys(index.query(query)) == _brute_force(objects, query)

    @given(
        st.lists(object_lists(min_size=1, max_size=60), min_size=2, max_size=3),
        st.lists(boxes(), min_size=2, max_size=6),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_odyssey_matches_bruteforce_over_query_sequence(
        self, per_dataset_objects, queries, rng
    ):
        disk = Disk(model=DiskModel(), buffer_pages=0)
        datasets = []
        all_objects: dict[int, list[SpatialObject]] = {}
        for dataset_id, objects in enumerate(per_dataset_objects):
            objects = [
                SpatialObject(oid=o.oid, dataset_id=dataset_id, box=o.box)
                for o in _dedupe(objects)
            ]
            all_objects[dataset_id] = objects
            datasets.append(
                Dataset.create(disk, dataset_id, f"prop_ody_{dataset_id}", objects, UNIVERSE)
            )
        catalog = DatasetCatalog(datasets)
        odyssey = SpaceOdyssey(
            catalog,
            OdysseyConfig(
                partitions_per_level=8,
                merge_threshold=1,
                min_merge_combination=2,
                merge_partition_min_hits=1,
                merge_only_converged=False,
            ),
        )
        ids = list(all_objects)
        for query in queries:
            requested = rng.sample(ids, k=rng.randint(1, len(ids)))
            expected = set()
            for dataset_id in requested:
                expected |= _brute_force(all_objects[dataset_id], query)
            assert result_keys(odyssey.query(query, requested)) == expected


class TestPartitionTreeProperties:
    @given(object_lists(min_size=1, max_size=150), st.lists(boxes(), min_size=1, max_size=6))
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_refinement_never_loses_objects(self, objects, queries):
        objects = _dedupe(objects)
        disk = Disk(model=DiskModel(), buffer_pages=0)
        dataset = Dataset.create(disk, 0, "prop_tree", objects, UNIVERSE)
        config = OdysseyConfig(partitions_per_level=8)
        adaptor = Adaptor(config)
        tree = adaptor.create_tree(dataset)
        adaptor.initialize(tree)
        for query in queries:
            for leaf in tree.leaves_overlapping(query):
                adaptor.maybe_refine(tree, leaf, query)
        assert tree.total_stored_objects() == len(objects)
        # Every object is stored in the leaf whose region contains its centre.
        for leaf in tree.leaves():
            for obj in tree.read_partition(leaf):
                assert leaf.box.contains_point(obj.center)

    @given(
        object_lists(min_size=1, max_size=80),
        st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=7),
    )
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_spliced_snapshot_equals_the_walk(self, objects, picks):
        """Any refinement sequence: the spliced summaries equal a fresh walk.

        Each pick refines one current leaf (empty ones included), chosen by
        position in search order, so splices land at the head, the tail
        and inside earlier splices.
        """
        objects = _dedupe(objects)
        disk = Disk(model=DiskModel(), buffer_pages=0)
        dataset = Dataset.create(disk, 0, "prop_splice", objects, UNIVERSE)
        adaptor = Adaptor(OdysseyConfig(partitions_per_level=8))
        tree = adaptor.create_tree(dataset)
        adaptor.initialize(tree)
        check_tree(tree)
        for pick in picks:
            leaves = tree.leaf_snapshot().leaves
            adaptor.refine(tree, leaves[pick % len(leaves)])
            check_tree(tree)
        assert tree.total_stored_objects() == len(objects)


@st.composite
def split_cases(draw):
    """``(splits, parent box, objects)`` aimed at the child grid's boundaries.

    The parent may have a zero-width axis; a centre coordinate is an exact
    cell edge, a point anywhere inside, or a point outside the parent
    (clamped to the border cell); one mode puts every record in one child
    and one draws no record at all.
    """
    splits = draw(st.sampled_from([2, 3, 4]))
    lo = tuple(draw(st.floats(min_value=-50.0, max_value=50.0)) for _ in range(3))
    sides = [draw(st.sampled_from([0.0, 1.0, 7.5, 33.3])) for _ in range(3)]
    parent = Box(lo, tuple(low + side for low, side in zip(lo, sides)))
    lows, highs = parent.grid_edges(splits)
    mode = draw(st.sampled_from(["mixed", "mixed", "one child", "empty"]))
    n = 0 if mode == "empty" else draw(st.integers(min_value=1, max_value=70))
    corner = tuple(draw(st.sampled_from(edges)) for edges in lows)
    objects = []
    for oid in range(n):
        if mode == "one child":
            center = corner
        else:
            center = tuple(
                draw(
                    st.one_of(
                        st.sampled_from(lows[axis] + highs[axis]),
                        st.floats(
                            min_value=lo[axis] - 5.0, max_value=lo[axis] + sides[axis] + 5.0
                        ),
                    )
                )
                for axis in range(3)
            )
        half = draw(st.sampled_from([0.0, 0.25, 1.0]))
        box = Box(tuple(c - half for c in center), tuple(c + half for c in center))
        objects.append(SpatialObject(oid=oid, dataset_id=0, box=box))
    return splits, parent, objects


class TestSortedSplitProperties:
    """One kernel, one stable sort, one bincount == a mask per child == the scalar loop."""

    @given(split_cases())
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_sorted_split_equals_mask_split_and_scalar_assignment(self, case):
        splits, parent, objects = case
        disk = Disk(model=DiskModel(), buffer_pages=0)
        # The tree only lends its split factor; the records never touch its dataset.
        tree = PartitionTree(Dataset.create(disk, 0, "prop_split", [], UNIVERSE), splits)
        staging = PagedFile(disk, "prop_split_staging.dat", spatial_object_codec(3))
        records = staging.read_group_array(staging.append_group(objects))
        groups = tree.assign_array_to_children(parent, records)
        assert len(groups) == splits**3
        assert sum(len(group) for group in groups) == len(objects)
        masked = reference_assign_array(parent, records, splits, splits**3)
        scalar = tree.assign_to_children(parent, objects)
        for group, by_mask, by_loop in zip(groups, masked, scalar):
            assert group.dtype == records.dtype
            assert group.tobytes() == by_mask.tobytes()
            assert group["oid"].tolist() == [obj.oid for obj in by_loop]
            # Children are read-only views of one reordered array.
            assert not group.flags.writeable and not group.flags.owndata
            with pytest.raises(ValueError):
                group["oid"] = 0
            with pytest.raises(ValueError):
                group.setflags(write=True)


def reference_mask(lo, hi, los, his) -> np.ndarray:
    """The kernel's former expression: a reduce over the length-``d`` axis."""
    return ((lo <= his) & (los <= hi)).all(axis=1)


def reference_matrix(a_lo, a_hi, b_lo, b_hi) -> np.ndarray:
    """``intersect_matrix``'s former expression (reduce over ``d``)."""
    overlap = (a_lo[:, None, :] <= b_hi[None, :, :]) & (b_lo[None, :, :] <= a_hi[:, None, :])
    return overlap.all(axis=2)


def corner_layouts(family: list[Box], dimension: int):
    """The same corners as C-ordered, column-major and strided record fields."""
    lo, hi = boxes_to_arrays(family, dimension=dimension)
    records = np.zeros(len(family), dtype=spatial_object_codec(dimension).dtype)
    records["lo"], records["hi"] = lo, hi
    return {
        "c": (lo, hi),
        "column-major": (np.asfortranarray(lo), np.asfortranarray(hi)),
        "record fields": (
            records["lo"].reshape(-1, dimension),
            records["hi"].reshape(-1, dimension),
        ),
    }


@st.composite
def kernel_cases(draw):
    """``(d, windows, candidates)``: d in 1..4, m in {0, 1, 32}, n in {0, 1, many}.

    Sides may be zero, and a few corners are snapped onto another box's
    corner so that touching boxes (equal coordinates) actually occur.
    """
    dimension = draw(st.integers(min_value=1, max_value=4))
    m = draw(st.sampled_from([0, 1, 32]))
    n = draw(st.sampled_from([0, 1, draw(st.integers(min_value=2, max_value=40))]))
    family = []
    for _ in range(m + n):
        lo = tuple(draw(coordinates) for _ in range(dimension))
        family.append(Box(lo, tuple(low + draw(degenerate_extents) for low in lo)))
    for _ in range(draw(st.integers(min_value=0, max_value=4)) if len(family) > 1 else 0):
        i = draw(st.integers(min_value=0, max_value=len(family) - 1))
        j = draw(st.integers(min_value=0, max_value=len(family) - 1))
        side = family[i].extents
        lo = family[j].hi  # box i starts exactly where box j ends
        family[i] = Box(lo, tuple(low + extent for low, extent in zip(lo, side)))
    return dimension, family[:m], family[m:]


class TestVectorizedKernelProperties:
    """The NumPy kernels must agree with scalar Box.intersects exactly."""

    @given(maybe_degenerate_boxes(), st.lists(maybe_degenerate_boxes(), max_size=30))
    def test_intersect_mask_matches_scalar(self, query: Box, others: list[Box]):
        los, his = boxes_to_arrays(others, dimension=3)
        mask = intersect_mask(
            np.asarray(query.lo), np.asarray(query.hi), los, his
        )
        assert mask.shape == (len(others),)
        assert mask.tolist() == [query.intersects(other) for other in others]

    @given(
        st.lists(maybe_degenerate_boxes(), max_size=8),
        st.lists(maybe_degenerate_boxes(), max_size=8),
    )
    def test_intersect_matrix_matches_scalar(self, left: list[Box], right: list[Box]):
        a_lo, a_hi = boxes_to_arrays(left, dimension=3)
        b_lo, b_hi = boxes_to_arrays(right, dimension=3)
        matrix = intersect_matrix(a_lo, a_hi, b_lo, b_hi)
        assert matrix.shape == (len(left), len(right))
        for i, a in enumerate(left):
            for j, b in enumerate(right):
                assert matrix[i, j] == a.intersects(b)

    @given(st.lists(maybe_degenerate_boxes(), min_size=1, max_size=12))
    def test_matrix_and_mask_are_consistent(self, family: list[Box]):
        lo, hi = boxes_to_arrays(family, dimension=3)
        matrix = intersect_matrix(lo, hi, lo, hi)
        assert (matrix == matrix.T).all(), "intersection must be symmetric"
        assert matrix.diagonal().all(), "every box intersects itself"
        for i, box in enumerate(family):
            row = intersect_mask(np.asarray(box.lo), np.asarray(box.hi), lo, hi)
            assert (row == matrix[i]).all()

    @given(kernel_cases())
    @settings(max_examples=60, deadline=None)
    def test_kernels_agree_with_scalar_and_reduce_reference_in_every_layout(self, case):
        """Long-axis accumulation == scalar predicate == the old reduce over ``d``.

        On C-ordered, column-major and strided structured-field inputs;
        the window may be given as arrays or as the box's own tuples.
        """
        dimension, windows, candidates = case
        scalar = [[w.intersects(c) for c in candidates] for w in windows]
        q_lo, q_hi = boxes_to_arrays(windows, dimension=dimension)
        for name, (los, his) in corner_layouts(candidates, dimension).items():
            matrix = intersect_matrix(q_lo, q_hi, los, his)
            assert matrix.dtype == np.bool_ and matrix.shape == (len(windows), len(candidates)), name
            assert matrix.tolist() == scalar, name
            assert np.array_equal(matrix, reference_matrix(q_lo, q_hi, los, his)), name
            for i, window in enumerate(windows):
                for lo, hi in ((q_lo[i], q_hi[i]), (window.lo, window.hi)):
                    mask = intersect_mask(lo, hi, los, his)
                    assert mask.dtype == np.bool_ and mask.shape == (len(candidates),), name
                    assert mask.tolist() == scalar[i], name
                assert np.array_equal(mask, reference_mask(q_lo[i], q_hi[i], los, his)), name


class TestBatchProperties:
    """query_batch must answer exactly like the brute-force oracle."""

    @given(
        st.lists(object_lists(min_size=1, max_size=60), min_size=2, max_size=3),
        st.lists(st.one_of(boxes(), maybe_degenerate_boxes()), min_size=2, max_size=6),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_batch_matches_bruteforce(self, per_dataset_objects, windows, rng):
        disk = Disk(model=DiskModel(), buffer_pages=0)
        all_objects: dict[int, list[SpatialObject]] = {}
        datasets = []
        for dataset_id, objects in enumerate(per_dataset_objects):
            objects = [
                SpatialObject(oid=o.oid, dataset_id=dataset_id, box=o.box)
                for o in _dedupe(objects)
            ]
            all_objects[dataset_id] = objects
            datasets.append(
                Dataset.create(disk, dataset_id, f"prop_batch_{dataset_id}", objects, UNIVERSE)
            )
        odyssey = SpaceOdyssey(
            DatasetCatalog(datasets),
            OdysseyConfig(
                partitions_per_level=8,
                merge_threshold=1,
                min_merge_combination=2,
                merge_partition_min_hits=1,
                merge_only_converged=False,
            ),
        )
        ids = list(all_objects)
        queries: list[tuple[Box, list[int]]] = []
        for window in windows:
            # Mixed combinations; ~1 in 3 queries duplicates its predecessor
            # so the shared read set and replay both see repeats.
            if queries and rng.random() < 0.34:
                queries.append(queries[-1])
            else:
                requested = rng.sample(ids, k=rng.randint(1, len(ids)))
                queries.append((window, requested))
        result = odyssey.query_batch(queries)
        assert len(result) == len(queries)
        for (window, requested), hits, report in zip(
            queries, result.results, result.reports
        ):
            expected = set()
            for dataset_id in requested:
                expected |= _brute_force(all_objects[dataset_id], window)
            assert result_keys(hits) == expected
            assert report.results == len(hits)

    @given(
        object_lists(min_size=1, max_size=80),
        st.lists(st.one_of(boxes(), maybe_degenerate_boxes()), min_size=1, max_size=5),
        st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_chunked_batches_match_one_engine_run_sequentially(
        self, objects, windows, batch_size
    ):
        """Splitting a stream into batches must not change any answer."""
        objects = _dedupe(objects)

        def fresh_engine() -> SpaceOdyssey:
            disk = Disk(model=DiskModel(), buffer_pages=0)
            dataset = Dataset.create(disk, 0, "prop_chunk", objects, UNIVERSE)
            return SpaceOdyssey(
                DatasetCatalog([dataset]), OdysseyConfig(partitions_per_level=8)
            )

        queries = [(window, [0]) for window in windows]
        sequential = fresh_engine()
        expected = [
            result_keys(sequential.query(window, ids)) for window, ids in queries
        ]
        batched = fresh_engine()
        actual: list[set] = []
        for start in range(0, len(queries), batch_size):
            chunk = queries[start : start + batch_size]
            actual.extend(
                result_keys(hits) for hits in batched.query_batch(chunk).results
            )
        assert actual == expected
        assert batched.summary() == sequential.summary()


class TestEpochProperties:
    """Invariants of the epoch-snapshot (MVCC) layer under random op mixes."""

    @given(
        object_lists(min_size=1, max_size=60),
        st.lists(st.sampled_from(("query", "pin", "unpin")), min_size=1, max_size=30),
        st.lists(boxes(), min_size=1, max_size=8),
    )
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_pin_unpin_publish_invariants(self, objects, ops, windows):
        objects = _dedupe(objects)
        disk = Disk(model=DiskModel(), buffer_pages=0)
        dataset = Dataset.create(disk, 0, "prop_epoch", objects, UNIVERSE)
        engine = SpaceOdyssey(
            DatasetCatalog([dataset]),
            OdysseyConfig(partitions_per_level=8, refinement_threshold=2.0),
        )
        manager = engine.epochs
        pins = []
        last_id = manager.current.epoch_id
        window_index = 0
        for op in ops:
            if op == "query":
                window = windows[window_index % len(windows)]
                window_index += 1
                engine.query(window, [0])
                current = manager.current
                # Epoch ids grow strictly monotonically across publishes.
                assert current.epoch_id > last_id
                last_id = current.epoch_id
                # The fresh capture equals the live tree at capture time.
                tree = engine.trees[0]
                capture = current.trees[0]
                assert capture.version == tree.version
                assert capture.runs == tuple(
                    leaf.run for leaf in tree.leaf_snapshot().leaves
                )
            elif op == "pin":
                pins.append(manager.pin())
            elif pins:
                manager.unpin(pins.pop())
            # A pinned epoch is never freed: every pin stays reachable on
            # the chain, whatever got published or released around it.
            alive = set()
            epoch = manager._head
            while epoch is not None:
                alive.add(id(epoch))
                epoch = epoch.next
            for pin in pins:
                assert id(pin) in alive, "a pinned epoch was pruned"
            assert manager.pinned_total() == len(pins)
        while pins:
            manager.unpin(pins.pop())
        assert manager.chain_length() == 1
        assert manager.pinned_total() == 0
        assert manager.retained_total() == 0


def _dedupe(objects: list[SpatialObject]) -> list[SpatialObject]:
    """Ensure unique oids (generated oids may collide)."""
    return [
        SpatialObject(oid=index, dataset_id=obj.dataset_id, box=obj.box)
        for index, obj in enumerate(objects)
    ]
