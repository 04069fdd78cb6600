"""Property-based tests (Hypothesis) for core data structures and invariants.

These cover the engine's invariants:

* geometric identities of :class:`Box`;
* the read path's unchecked builders equal the checked ones they replaced:
  the sequential and the batch extended windows are the floats of
  ``Box.expand(...).clamp(...)`` bit for bit, and ``SpatialObject``'s own
  ``__init__`` and ``Box._trusted`` behave like the generated ``__init__``
  and the checking constructor (equality, hash, repr, frozenness,
  ``dataclasses`` helpers, pickling);
* binary codec round-trips;
* PagedFile group writes never lose or duplicate records, with or without
  in-place page reuse;
* every index (Grid, R-tree, FLAT, Space Odyssey) answers exactly like the
  brute-force oracle on randomly generated data and query sequences;
* the partition tree never loses objects across arbitrary refinement, and
  every column of its spliced leaf table, its leaf-key set and its
  occupied-runs map equal the node tree of ``tests/scalar_reference.py``
  after any sequence of splits and refining queries (2-D and 3-D, ``ppl``
  4, 8 and 64, one level per query, a zero-width axis), with
  byte-identical partition files;
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

import dataclasses
import inspect
import itertools
import os
import pickle
import random
import struct
from dataclasses import make_dataclass
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.baselines.flat import FLATIndex
from repro.baselines.grid import GridIndex
from repro.baselines.interface import result_keys
from repro.baselines.rtree import STRRTree
from repro.core.adaptor import Adaptor
from repro.core.batch import _extended_windows
from repro.core.config import OdysseyConfig
from repro.core.odyssey import SpaceOdyssey
from repro.data.dataset import Dataset, DatasetCatalog
from repro.data.spatial_object import SpatialObject, spatial_object_codec
from repro.geometry.box import Box
from repro.core.partition import PartitionTree
from repro.core.query_processor import _extended_window
from repro.geometry.vectorized import boxes_to_arrays, intersect_mask, intersect_matrix
from repro.storage.codec import FixedRecordCodec
from repro.storage.cost_model import DiskModel
from repro.storage.disk import Disk
from repro.storage.pagedfile import PagedFile

from tests.conftest import make_random_objects
from tests.oracle import check_frozen_copy, check_tree
from tests.scalar_reference import (
    ScalarAdaptor,
    assign_to_children,
    leaf_listing,
    leaves_overlapping,
    read_group,
    read_partition,
    reference_assign_array,
    reference_tree,
    search_order,
    write_groups,
)

UNIVERSE = Box((0.0, 0.0, 0.0), (100.0, 100.0, 100.0))
#: Deep mode (CI's deep-oracles job sets 25) draws more splice cases.
DEEP_ITERATIONS = int(os.environ.get("REPRO_FUZZ_ITERATIONS", "0"))

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
    # The query's low corner lies on a cell edge that the division
    # (0.995 - 0.985) / 0.03 * 3 rounds past.
    @example(
        Box((0.985, 0.0, 0.0), (1.015, 0.5, 0.5)),
        Box((0.995, 0.0, 0.0), (1.005, 0.5, 0.5)),
        3,
    )
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


#: Finite window coordinates, often a signed zero or a small integer so corners coincide.
window_coordinate = st.sampled_from([0.0, -0.0, 1.0, -1.0]) | st.floats(
    -1e6, 1e6, allow_nan=False
)
window_length = st.sampled_from([0.0, -0.0, 0.5, 1.0]) | st.floats(0.0, 1e6)


@st.composite
def window_cases(draw):
    """Universes (degenerate slabs allowed), extents (zeros allowed) and windows spilling past."""
    dimension = draw(st.integers(1, 3))
    u_lo = draw(st.tuples(*[window_coordinate] * dimension))
    u_side = draw(st.tuples(*[window_length] * dimension))
    universe = Box(u_lo, tuple(a + b for a, b in zip(u_lo, u_side)))
    extent = draw(st.tuples(*[window_length] * dimension))
    boxes = []
    for _ in range(draw(st.integers(1, 5))):
        corner = window_coordinate | st.sampled_from(u_lo + universe.hi)
        lo = draw(st.tuples(*[corner] * dimension))
        side = draw(st.tuples(*[window_length] * dimension))
        boxes.append(Box(lo, tuple(a + b for a, b in zip(lo, side))))
    return SimpleNamespace(max_extent=extent, universe=universe), boxes


def signed_zero_window_case():
    """Window corners that equal the universe's up to the sign of zero."""
    universe = Box((0.0, -0.0), (-0.0, 0.0))
    boxes = [Box((-0.0, 0.0), (0.0, -0.0)), Box((-1.0, -0.0), (-0.0, 2.0))]
    return SimpleNamespace(max_extent=(0.0, -0.0), universe=universe), boxes


def packed(corner) -> list[bytes]:
    """A corner's floats as their IEEE bytes, so that -0.0 and 0.0 differ."""
    return [struct.pack("<d", value) for value in corner]


#: The generated frozen ``__init__`` that :class:`SpatialObject`'s own
#: replaced, kept as the reference model (same name, so reprs compare).
GeneratedSpatialObject = make_dataclass(
    "SpatialObject", [("oid", int), ("dataset_id", int), ("box", Box)], frozen=True, slots=True
)


class TestTrustedConstructionProperties:
    """The read path's unchecked builders equal the checked ones they replaced."""

    @settings(max_examples=200, deadline=None)
    @given(window_cases())
    @example(signed_zero_window_case())
    def test_scalar_and_array_windows_equal_the_box_reference_bit_for_bit(self, case):
        """Windows partly or wholly outside the universe, zero extents, degenerate boxes."""
        tree, windows = case
        # The batch gathers each window's tree bounds into rows of their own.
        bounds = np.array(
            [(tree.max_extent, tree.universe.lo, tree.universe.hi)] * len(windows),
            dtype=np.float64,
        )
        lo, hi = _extended_windows(
            bounds[:, 0],
            bounds[:, 1],
            bounds[:, 2],
            np.array([window.lo for window in windows], dtype=np.float64),
            np.array([window.hi for window in windows], dtype=np.float64),
        )
        assert lo.shape == hi.shape == (len(windows), tree.universe.dimension)
        for row, window in enumerate(windows):
            expected = window.expand(tree.max_extent).clamp(tree.universe)
            scalar = _extended_window(tree, window)
            assert type(scalar) is Box
            assert packed(scalar.lo) == packed(expected.lo)
            assert packed(scalar.hi) == packed(expected.hi)
            assert packed(lo[row].tolist()) == packed(expected.lo)
            assert packed(hi[row].tolist()) == packed(expected.hi)

    @given(
        st.integers(-(2**63), 2**63 - 1),
        st.integers(0, 2**31),
        maybe_degenerate_boxes(),
        st.integers(-(2**63), 2**63 - 1),
    )
    def test_spatial_object_init_matches_the_generated_one(self, oid, dataset_id, box, other):
        obj = SpatialObject(oid, dataset_id, box)
        reference = GeneratedSpatialObject(oid, dataset_id, box)
        assert obj == SpatialObject(oid=oid, dataset_id=dataset_id, box=box)
        assert (obj == SpatialObject(other, dataset_id, box)) == (
            reference == GeneratedSpatialObject(other, dataset_id, box)
        )
        assert hash(obj) == hash(reference)
        assert repr(obj) == repr(reference)
        assert list(inspect.signature(SpatialObject).parameters) == list(
            inspect.signature(GeneratedSpatialObject).parameters
        )
        assert [f.name for f in dataclasses.fields(obj)] == [
            f.name for f in dataclasses.fields(reference)
        ]
        assert dataclasses.asdict(obj) == dataclasses.asdict(reference)
        moved = dataclasses.replace(obj, oid=other)
        assert type(moved) is SpatialObject
        assert repr(moved) == repr(dataclasses.replace(reference, oid=other))
        for instance in (obj, reference):
            for name in ("oid", "dataset_id", "box"):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(instance, name, getattr(instance, name))
        restored = pickle.loads(pickle.dumps(obj))
        assert type(restored) is SpatialObject
        assert restored == obj and repr(restored) == repr(obj)

    @given(maybe_degenerate_boxes(), maybe_degenerate_boxes())
    def test_trusted_box_matches_the_checked_constructor(self, box, other):
        trusted = Box._trusted(box.lo, box.hi)
        checked = Box(box.lo, box.hi)
        assert type(trusted) is Box
        assert trusted == checked
        assert (trusted == other) == (checked == other)
        assert hash(trusted) == hash(checked)
        assert repr(trusted) == repr(checked)
        assert dataclasses.asdict(trusted) == dataclasses.asdict(checked)

        def replaced(instance):
            try:
                return dataclasses.replace(instance, hi=other.hi)
            except ValueError as exc:  # the checked constructor refuses the corners
                return str(exc)

        assert replaced(trusted) == replaced(checked)
        for name in ("lo", "hi"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(trusted, name, getattr(trusted, name))
        restored = pickle.loads(pickle.dumps(trusted))
        assert type(restored) is Box
        assert restored == checked and packed(restored.lo) == packed(checked.lo)


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
        assert sorted(read_group(file, run)) == sorted(records)


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
        assert read_group(file, run) == objects

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
        scalar_runs = write_groups(scalar_file, groups, reuse=parent.extents)
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
        codec = FixedRecordCodec("<q", lambda v: (v,), lambda f: f[0], dtype=np.dtype("<i8"))
        disk = Disk(model=DiskModel(), buffer_pages=0)
        file: PagedFile[int] = PagedFile(disk, "prop2.dat", codec)
        parent = file.append_group(list(range(500)))
        arrays = [np.array(group, dtype="<i8") for group in groups]
        runs = file.write_groups_array(arrays, reuse=parent.extents)
        assert len(runs) == len(groups)
        for group, run in zip(groups, runs):
            assert file.read_group_array(run).tolist() == group
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

    def test_odyssey_matches_bruteforce_over_query_sequence(self):
        merges: list[int] = []

        @given(
            st.lists(object_lists(min_size=1, max_size=60), min_size=2, max_size=3),
            st.lists(boxes(), min_size=2, max_size=6),
            st.randoms(use_true_random=False),
        )
        # Always one sequence that merges: objects packed around the centre,
        # and a window over them that two datasets request together.
        @example(
            per_dataset_objects=[_lattice(dataset_id) for dataset_id in (0, 1)],
            queries=[Box.from_center((50.0,) * 3, (10.0,) * 3)] * 2,
            rng=_rng_requesting_every_dataset(2),
        )
        @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
        def check(per_dataset_objects, queries, rng):
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
                ),
            )
            ids = list(all_objects)
            for query in queries:
                requested = rng.sample(ids, k=rng.randint(1, len(ids)))
                expected = set()
                for dataset_id in requested:
                    expected |= _brute_force(all_objects[dataset_id], query)
                # Each window four times: its leaves take up to two queries
                # to refine to its volume and two more to turn hot.
                for _ in range(4):
                    assert result_keys(odyssey.query(query, requested)) == expected
            merges.append(odyssey.summary().merges_performed)

        check()
        assert sum(merges) > 0, "no query sequence merged"


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
            keys = tree.leaf_snapshot().keys
            rows = tree.leaves_overlapping_vectorized(query).tolist()
            for row in sorted(rows, key=keys.__getitem__, reverse=True):
                adaptor.maybe_refine(tree, row, query)
        assert tree.total_stored_objects() == len(objects)
        # Every object is stored in the leaf whose region contains its centre.
        for leaf in reference_tree(tree).leaves():
            for obj in read_partition(tree, leaf):
                assert leaf.box.contains_point(obj.center)

    @given(
        object_lists(min_size=1, max_size=80),
        st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=7),
    )
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_spliced_snapshot_equals_the_walk(self, objects, picks):
        """Any refinement sequence: the appended table and summaries equal a fresh walk.

        Each pick refines one current leaf (empty ones included), chosen by
        position in search order, so splits land at the head, the tail
        and inside earlier splits of the walk.
        """
        objects = _dedupe(objects)
        disk = Disk(model=DiskModel(), buffer_pages=0)
        dataset = Dataset.create(disk, 0, "prop_splice", objects, UNIVERSE)
        adaptor = Adaptor(OdysseyConfig(partitions_per_level=8))
        tree = adaptor.create_tree(dataset)
        adaptor.initialize(tree)
        check_tree(tree)
        for pick in picks:
            rows = search_order(tree)
            adaptor.refine(tree, rows[pick % len(rows)])
            check_tree(tree)
        assert tree.total_stored_objects() == len(objects)


@st.composite
def splice_cases(draw):
    """A tree shape and a sequence of splits and queries.

    2-D or 3-D, ``ppl`` 4, 8 or 64, and possibly one zero-width axis
    (every volume is then zero, so only direct splits change the tree).  A step is a direct split of the
    picked row (empty ones included) or a query window around a picked
    record's centre, sized as a fraction of the universe.
    """
    dimension, ppl = draw(st.sampled_from([(2, 4), (2, 64), (3, 8), (3, 64)]))
    lo, hi = [0.0] * dimension, [100.0] * dimension
    if draw(st.sampled_from([False, False, True])):
        axis = draw(st.integers(0, dimension - 1))
        lo[axis] = hi[axis] = 50.0
    fractions = st.sampled_from([0.01, 0.04, 0.1, 0.3])
    steps = st.tuples(st.booleans(), st.integers(0, 10_000), fractions)
    return (
        Box(tuple(lo), tuple(hi)),
        ppl,
        draw(st.integers(1, 200)),
        draw(st.integers(0, 2**16)),
        draw(st.lists(steps, min_size=1, max_size=6)),
    )


class TestSpliceProperties:
    @given(splice_cases())
    @settings(
        max_examples=40 + 8 * DEEP_ITERATIONS,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_the_table_equals_the_node_tree_after_every_step(self, case):
        """Splits and queries: the table equals the reference node tree, bytes included.

        The engine splits rows and offers a query's candidates in search
        order (key order, descending: rows never move); the reference
        (``ScalarAdaptor``) does the same on node objects.  After every
        step the table has only grown (every earlier row keeps its key),
        its live rows in search order equal the node tree derived from the
        engine's keys and the former search-ordered table rebuilt by
        replaying every split (``check_tree``: volumes bit for bit), the
        two trees list the same leaves with the same runs, and the
        partition files are byte-identical at the end.
        """
        universe, ppl, count, seed, steps = case
        config = OdysseyConfig(partitions_per_level=ppl, refinement_threshold=2.0)
        trees = []
        for adaptor in (Adaptor(config), ScalarAdaptor(config)):
            disk = Disk(model=DiskModel(), buffer_pages=0)
            objects = make_random_objects(universe, count, seed=seed)
            tree = adaptor.create_tree(Dataset.create(disk, 0, "splice", objects, universe))
            adaptor.initialize(tree)
            trees.append((adaptor, tree, disk))
        (engine, tree, disk), (scalar, reference, reference_disk) = trees
        centres = [obj.center for obj in objects]
        for split, pick, fraction in steps:
            keys = list(tree.leaf_snapshot().keys)
            if split:
                rows = search_order(tree)
                row = rows[pick % len(rows)]
                engine.refine(tree, row)
                scalar.refine(reference, reference.node(keys[row]))
            else:
                sides = [side * fraction for side in universe.extents]
                window = Box.from_center(centres[pick % count], sides).clamp(universe)
                table = tree.leaf_snapshot()
                (rows,) = table.occupied([tree.leaves_overlapping_vectorized(window)])
                chosen = engine.candidates(table, rows, window.volume())
                for row in sorted(chosen, key=keys.__getitem__, reverse=True):
                    engine.maybe_refine(tree, row, window)
                for node in leaves_overlapping(reference, window):
                    scalar.maybe_refine(reference, node, window)
            assert tree.leaf_snapshot().keys[: len(keys)] == keys
            check_tree(tree)
            assert leaf_listing(tree) == leaf_listing(reference)
        assert tree.total_stored_objects() == count
        name = tree.file.name
        assert [disk.backend.read(name, page) for page in range(disk.num_pages(name))] == [
            reference_disk.backend.read(name, page)
            for page in range(reference_disk.num_pages(name))
        ]


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
        scalar = assign_to_children(tree, parent, objects)
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

    def test_batch_matches_bruteforce(self):
        merges: list[int] = []

        @given(
            st.lists(object_lists(min_size=1, max_size=60), min_size=2, max_size=3),
            st.lists(st.one_of(boxes(), maybe_degenerate_boxes()), min_size=2, max_size=6),
            st.randoms(use_true_random=False),
        )
        # Always one batch that merges: one window over objects packed
        # around the centre, six times, and a seed whose draws request both
        # datasets in four of them.
        @example(
            per_dataset_objects=[_lattice(dataset_id) for dataset_id in (0, 1)],
            windows=[Box.from_center((50.0,) * 3, (10.0,) * 3)] * 6,
            rng=_rng_requesting_every_dataset(2),
        )
        @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
        def check(per_dataset_objects, windows, rng):
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
            merges.append(odyssey.summary().merges_performed)

        check()
        assert sum(merges) > 0, "no batch merged"


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
        assert engine.epochs is None
        engine.query_batch([(windows[0], [0])], snapshot=True)  # starts the epochs
        manager = engine.epochs
        pins = []
        last_id = manager.current.epoch_id
        window_index = 1
        for op in ops:
            if op == "query":
                window = windows[window_index % len(windows)]
                window_index += 1
                engine.query(window, [0])
                current = manager.current
                # Epoch ids grow strictly monotonically across publishes.
                assert current.epoch_id > last_id
                last_id = current.epoch_id
                # The fresh capture is a frozen copy of the live table.
                check_frozen_copy(current.trees[0].snapshot, engine.trees[0].leaf_snapshot())
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
            assert manager.gauges()["pinned_readers"] == len(pins)
        while pins:
            manager.unpin(pins.pop())
        gauges = manager.gauges()
        assert gauges["live_epochs"] == 1
        assert gauges["pinned_readers"] == 0
        assert gauges["retained_pages"] == 0


def _lattice(dataset_id: int, side: int = 3) -> list[SpatialObject]:
    """``side**3`` unit objects on a lattice around the universe's centre."""
    return [
        SpatialObject(
            oid=index,
            dataset_id=dataset_id,
            box=Box.from_center((46.0 + 4 * i, 46.0 + 4 * j, 46.0 + 4 * k), (1.0,) * 3),
        )
        for index, (i, j, k) in enumerate(itertools.product(range(side), repeat=3))
    ]


def _rng_requesting_every_dataset(n_datasets: int) -> random.Random:
    """A seeded RNG whose first ``sample(ids, randint(1, n))`` takes every id."""
    seed = 0
    while True:
        rng = random.Random(seed)
        if rng.randint(1, n_datasets) == n_datasets:
            return random.Random(seed)
        seed += 1


def _dedupe(objects: list[SpatialObject]) -> list[SpatialObject]:
    """Ensure unique oids (generated oids may collide)."""
    return [
        SpatialObject(oid=index, dataset_id=obj.dataset_id, box=obj.box)
        for index, obj in enumerate(objects)
    ]
