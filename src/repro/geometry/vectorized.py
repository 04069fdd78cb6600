"""NumPy-vectorized box-intersection kernels.

The scalar :class:`~repro.geometry.box.Box` predicates are convenient but
become the bottleneck once the batched query engine has to test dozens of
query windows against thousands of partition MBRs (and then against every
decoded object record).  The kernels here operate on plain ``float64``
corner arrays — shape ``(n, d)`` for ``n`` boxes in ``d`` dimensions — and
implement *exactly* the same closed-box semantics as
:meth:`Box.intersects <repro.geometry.box.Box.intersects>`: two boxes that
merely touch (including degenerate zero-extent boxes) are considered
intersecting.  ``tests/test_properties.py`` asserts the agreement on random
and degenerate boxes.

Three shapes of the same predicate are provided:

* :func:`intersect_mask` — one box against ``n`` boxes (``(n,)`` bools);
* :func:`intersect_matrix` — ``m`` boxes against ``n`` boxes (``(m, n)``
  bools), the kernel the batch engine uses to resolve the partition
  overlap tests of a whole query batch in one shot;
* :func:`boxes_to_arrays` — the bridge from ``Box`` objects to the corner
  arrays the kernels consume.

Both predicates accumulate one axis at a time over the *long* axis (the
``n`` candidates), never a reduction over ``d``: reducing a C-ordered
``(n, 3)`` array along its length-3 axis costs several times the
arithmetic.  They accept any layout; a column-major candidate family
(the leaf snapshots of :mod:`repro.core.partition`) makes every per-axis
slice contiguous.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.geometry.box import Box


def boxes_to_arrays(
    boxes: Sequence[Box], dimension: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Stack the corners of ``boxes`` into ``(lo, hi)`` arrays of shape ``(n, d)``.

    ``dimension`` is only required for an empty sequence (an empty array
    still needs a column count); for a non-empty sequence it is validated
    against the boxes when given.
    """
    if not boxes:
        if dimension is None:
            raise ValueError("dimension is required to build arrays from zero boxes")
        empty = np.empty((0, dimension), dtype=np.float64)
        return empty, empty.copy()
    if dimension is not None and boxes[0].dimension != dimension:
        raise ValueError(
            f"boxes have dimension {boxes[0].dimension}, expected {dimension}"
        )
    lo = np.array([box.lo for box in boxes], dtype=np.float64)
    hi = np.array([box.hi for box in boxes], dtype=np.float64)
    return lo, hi


def intersect_mask(
    lo: Sequence[float], hi: Sequence[float], los: np.ndarray, his: np.ndarray
) -> np.ndarray:
    """Closed-box intersection of one box against many.

    Parameters
    ----------
    lo, hi:
        Corners of the single box: ``d`` coordinates each (array or tuple).
    los, his:
        Corners of the ``n`` candidate boxes, shape ``(n, d)``.

    Returns
    -------
    A boolean array of shape ``(n,)``; entry ``i`` is ``True`` exactly when
    ``Box(lo, hi).intersects(Box(los[i], his[i]))`` would be.
    """
    mask = los[:, 0] <= hi[0]
    mask &= his[:, 0] >= lo[0]
    for axis in range(1, los.shape[1]):
        mask &= los[:, axis] <= hi[axis]
        mask &= his[:, axis] >= lo[axis]
    return mask


def grid_child_indices(
    points: np.ndarray, lo: Sequence[float], hi: Sequence[float], cells_per_dim: int
) -> np.ndarray:
    """Row-major grid-cell index of each point, exactly as :meth:`Box.child_index`.

    Parameters
    ----------
    points:
        Point coordinates, shape ``(n, d)``.
    lo, hi:
        Corners of the box being split, length ``d``.
    cells_per_dim:
        Number of grid cells along every axis.

    Returns
    -------
    An ``(n,)`` int64 array; entry ``i`` equals
    ``Box(lo, hi).child_index(points[i], cells_per_dim)`` bit-for-bit — the
    same IEEE operation order (offset division, truncation toward zero,
    clamping) so that vectorized partition assignment places every object
    in the same child as the scalar path.
    """
    points = np.asarray(points, dtype=np.float64)
    n = len(points)
    indices = np.zeros(n, dtype=np.int64)
    for axis in range(points.shape[1]):
        side = hi[axis] - lo[axis]
        if side == 0:
            cells = np.zeros(n, dtype=np.int64)
        else:
            offset = (points[:, axis] - lo[axis]) / side
            # astype truncates toward zero, matching int() in the scalar path;
            # the clamp then maps any out-of-range center to the border cell.
            cells = (offset * cells_per_dim).astype(np.int64)
            np.clip(cells, 0, cells_per_dim - 1, out=cells)
        indices = indices * cells_per_dim + cells
    return indices


def intersect_matrix(
    a_lo: np.ndarray, a_hi: np.ndarray, b_lo: np.ndarray, b_hi: np.ndarray
) -> np.ndarray:
    """Closed-box intersection of ``m`` boxes against ``n`` boxes.

    Parameters
    ----------
    a_lo, a_hi:
        Corners of the first family, shape ``(m, d)``.
    b_lo, b_hi:
        Corners of the second family, shape ``(n, d)``.

    Returns
    -------
    A boolean matrix of shape ``(m, n)``; entry ``(i, j)`` is ``True``
    exactly when box ``i`` of the first family intersects box ``j`` of the
    second under the closed-box semantics of :meth:`Box.intersects`.
    """
    matrix = b_lo[:, 0] <= a_hi[:, 0, None]
    matrix &= b_hi[:, 0] >= a_lo[:, 0, None]
    for axis in range(1, b_lo.shape[1]):
        matrix &= b_lo[:, axis] <= a_hi[:, axis, None]
        matrix &= b_hi[:, axis] >= a_lo[:, axis, None]
    return matrix
