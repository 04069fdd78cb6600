"""Unit tests for the Box primitive."""

from __future__ import annotations

import math

import pytest

from repro.geometry.box import Box
from repro.geometry.vectorized import grid_child_indices


class TestConstruction:
    def test_basic_box(self):
        box = Box((0.0, 0.0), (2.0, 3.0))
        assert box.dimension == 2
        assert box.volume() == 6.0
        assert box.center == (1.0, 1.5)
        assert box.extents == (2.0, 3.0)

    def test_from_corners_casts_to_float(self):
        box = Box.from_corners([0, 1, 2], [1, 2, 3])
        assert box.lo == (0.0, 1.0, 2.0)
        assert box.hi == (1.0, 2.0, 3.0)

    def test_from_center(self):
        box = Box.from_center((5.0, 5.0), (2.0, 4.0))
        assert box.lo == (4.0, 3.0)
        assert box.hi == (6.0, 7.0)

    def test_cube(self):
        box = Box.cube((1.0, 1.0, 1.0), 2.0)
        assert box.volume() == pytest.approx(8.0)

    def test_unit(self):
        assert Box.unit(3).volume() == 1.0
        with pytest.raises(ValueError):
            Box.unit(0)

    def test_rejects_mismatched_corners(self):
        with pytest.raises(ValueError):
            Box((0.0,), (1.0, 2.0))

    def test_rejects_inverted_box(self):
        with pytest.raises(ValueError):
            Box((1.0, 0.0), (0.0, 1.0))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            Box((math.nan,), (1.0,))

    def test_rejects_zero_dimensional(self):
        with pytest.raises(ValueError):
            Box((), ())

    def test_bounding(self):
        boxes = [Box((0.0, 0.0), (1.0, 1.0)), Box((2.0, -1.0), (3.0, 0.5))]
        bound = Box.bounding(boxes)
        assert bound.lo == (0.0, -1.0)
        assert bound.hi == (3.0, 1.0)

    def test_bounding_empty_raises(self):
        with pytest.raises(ValueError):
            Box.bounding([])

    def test_degenerate_detection(self):
        assert Box((0.0, 0.0), (0.0, 1.0)).is_degenerate()
        assert not Box((0.0, 0.0), (1.0, 1.0)).is_degenerate()


class TestPredicates:
    def test_intersects_overlapping(self):
        a = Box((0.0, 0.0), (2.0, 2.0))
        b = Box((1.0, 1.0), (3.0, 3.0))
        assert a.intersects(b)
        assert b.intersects(a)

    def test_intersects_touching_is_true(self):
        a = Box((0.0, 0.0), (1.0, 1.0))
        b = Box((1.0, 0.0), (2.0, 1.0))
        assert a.intersects(b)

    def test_intersects_disjoint_is_false(self):
        a = Box((0.0, 0.0), (1.0, 1.0))
        b = Box((1.5, 1.5), (2.0, 2.0))
        assert not a.intersects(b)

    def test_intersects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            Box((0.0,), (1.0,)).intersects(Box((0.0, 0.0), (1.0, 1.0)))

    def test_contains_point(self):
        box = Box((0.0, 0.0), (1.0, 1.0))
        assert box.contains_point((0.5, 0.5))
        assert box.contains_point((0.0, 1.0))  # boundary is inside
        assert not box.contains_point((1.1, 0.5))

    def test_contains_box(self):
        outer = Box((0.0, 0.0), (10.0, 10.0))
        inner = Box((1.0, 1.0), (2.0, 2.0))
        assert outer.contains_box(inner)
        assert not inner.contains_box(outer)


class TestDerivedBoxes:
    def test_intersection(self):
        a = Box((0.0, 0.0), (2.0, 2.0))
        b = Box((1.0, 1.0), (3.0, 3.0))
        overlap = a.intersection(b)
        assert overlap == Box((1.0, 1.0), (2.0, 2.0))

    def test_intersection_disjoint_is_none(self):
        a = Box((0.0, 0.0), (1.0, 1.0))
        b = Box((2.0, 2.0), (3.0, 3.0))
        assert a.intersection(b) is None

    def test_union(self):
        a = Box((0.0, 0.0), (1.0, 1.0))
        b = Box((2.0, 2.0), (3.0, 3.0))
        assert a.union(b) == Box((0.0, 0.0), (3.0, 3.0))

    def test_expand_scalar(self):
        box = Box((1.0, 1.0), (2.0, 2.0)).expand(0.5)
        assert box == Box((0.5, 0.5), (2.5, 2.5))

    def test_expand_per_dimension(self):
        box = Box((1.0, 1.0), (2.0, 2.0)).expand((0.0, 1.0))
        assert box == Box((1.0, 0.0), (2.0, 3.0))

    def test_expand_rejects_negative(self):
        with pytest.raises(ValueError):
            Box((0.0,), (1.0,)).expand(-1.0)

    def test_clamp(self):
        universe = Box((0.0, 0.0), (10.0, 10.0))
        box = Box((-5.0, 5.0), (3.0, 20.0)).clamp(universe)
        assert box == Box((0.0, 5.0), (3.0, 10.0))

    def test_clamp_fully_outside_yields_degenerate_slab(self):
        universe = Box((0.0,), (10.0,))
        box = Box((20.0,), (30.0,)).clamp(universe)
        assert box.lo == (10.0,)
        assert box.hi == (10.0,)

    def test_translate(self):
        box = Box((0.0, 0.0), (1.0, 1.0)).translate((2.0, 3.0))
        assert box == Box((2.0, 3.0), (3.0, 4.0))


class TestGridSplitting:
    def test_split_grid_covers_parent_exactly(self):
        box = Box((0.0, 0.0), (4.0, 4.0))
        children = box.split_grid(2)
        assert len(children) == 4
        assert sum(child.volume() for child in children) == pytest.approx(box.volume())
        assert Box.bounding(children) == box

    def test_split_grid_counts_per_dimension(self):
        box = Box((0.0, 0.0), (4.0, 9.0))
        children = box.split_grid((2, 3))
        assert len(children) == 6

    def test_split_grid_rejects_bad_counts(self):
        box = Box((0.0, 0.0), (1.0, 1.0))
        with pytest.raises(ValueError):
            box.split_grid(0)
        with pytest.raises(ValueError):
            box.split_grid((2, 2, 2))

    def test_child_index_consistent_with_split(self):
        box = Box((0.0, 0.0, 0.0), (8.0, 8.0, 8.0))
        children = box.split_grid(2)
        centers = [child.center for child in children]
        assert grid_child_indices(centers, box.lo, box.hi, 2).tolist() == list(range(8))
        assert grid_child_indices(centers, box.lo, box.hi, (2, 2, 2)).tolist() == list(range(8))

    def test_child_index_clamps_boundary_points(self):
        box = Box((0.0,), (1.0,))
        assert grid_child_indices([(1.0,), (-0.5,)], box.lo, box.hi, 4).tolist() == [3, 0]

    def test_grid_cells_overlapping_matches_bruteforce(self):
        box = Box((0.0, 0.0), (10.0, 10.0))
        query = Box((2.4, 7.1), (5.0, 9.9))
        counts = (5, 4)
        expected = {
            i for i, child in enumerate(box.split_grid(counts)) if child.intersects(query)
        }
        assert set(box.grid_cells_overlapping(query, counts)) == expected

    def test_grid_cells_overlapping_outside_query_is_empty(self):
        box = Box((0.0, 0.0), (1.0, 1.0))
        query = Box((5.0, 5.0), (6.0, 6.0))
        assert list(box.grid_cells_overlapping(query, 4)) == []

    def test_last_cell_snaps_to_upper_bound(self):
        box = Box((0.0,), (1.0,))
        children = box.split_grid(3)
        assert children[-1].hi == (1.0,)
