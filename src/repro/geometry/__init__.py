"""Geometric primitives used throughout the library.

All spatial reasoning in the reproduction is expressed with axis-aligned
d-dimensional boxes (:class:`~repro.geometry.box.Box`).  Neuroscience meshes,
queries, index partitions and tree nodes are all represented (or
approximated, in the case of meshes) by such boxes, exactly as in the
original Space Odyssey prototype where every object carries its minimum
bounding rectangle.
"""

from repro.geometry.box import Box
from repro.geometry.random_boxes import (
    random_box_with_volume,
    random_point_in_box,
    sample_boxes,
)
from repro.geometry.vectorized import (
    boxes_to_arrays,
    grid_child_indices,
    intersect_mask,
    intersect_matrix,
)

__all__ = [
    "Box",
    "boxes_to_arrays",
    "grid_child_indices",
    "intersect_mask",
    "intersect_matrix",
    "random_box_with_volume",
    "random_point_in_box",
    "sample_boxes",
]
