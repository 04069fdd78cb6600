"""Axis-aligned d-dimensional boxes.

:class:`Box` is the single geometric primitive used by the whole library:
spatial objects carry a box as their minimum bounding rectangle, range
queries are boxes, and the space-oriented partitions of Space Odyssey's
incremental index are boxes produced by regular grid splits of their parent.

Boxes are immutable value objects so they can be shared freely between the
index structures, the statistics collector and the merge directory without
defensive copying.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence


@dataclass(frozen=True, slots=True)
class Box:
    """An axis-aligned box ``[lo[i], hi[i]]`` in each dimension ``i``.

    The box is closed on both sides; two boxes that merely touch are
    considered intersecting, mirroring the behaviour of the C++ prototype
    (objects lying exactly on a partition boundary must not be lost).

    Parameters
    ----------
    lo:
        Lower corner, one coordinate per dimension.
    hi:
        Upper corner; ``hi[i] >= lo[i]`` must hold for every dimension.
    """

    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.lo) != len(self.hi):
            raise ValueError(
                f"corner dimensionality mismatch: lo has {len(self.lo)} "
                f"coordinates, hi has {len(self.hi)}"
            )
        if not self.lo:
            raise ValueError("a box must have at least one dimension")
        for axis, (low, high) in enumerate(zip(self.lo, self.hi)):
            if math.isnan(low) or math.isnan(high):
                raise ValueError(f"NaN coordinate on axis {axis}")
            if high < low:
                raise ValueError(
                    f"inverted box on axis {axis}: lo={low} > hi={high}"
                )

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def from_corners(cls, lo: Sequence[float], hi: Sequence[float]) -> "Box":
        """Build a box from two corner sequences (lists, arrays, tuples)."""
        return cls(tuple(float(c) for c in lo), tuple(float(c) for c in hi))

    @classmethod
    def from_center(cls, center: Sequence[float], extents: Sequence[float]) -> "Box":
        """Build a box from its centre and full side lengths per dimension."""
        if len(center) != len(extents):
            raise ValueError("center and extents must have the same dimensionality")
        lo = tuple(float(c) - float(e) / 2.0 for c, e in zip(center, extents))
        hi = tuple(float(c) + float(e) / 2.0 for c, e in zip(center, extents))
        return cls(lo, hi)

    @classmethod
    def cube(cls, center: Sequence[float], side: float) -> "Box":
        """A hyper-cube of side ``side`` centred at ``center``."""
        return cls.from_center(center, [side] * len(center))

    @classmethod
    def unit(cls, dimension: int) -> "Box":
        """The unit hyper-cube ``[0, 1]^dimension``."""
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        return cls((0.0,) * dimension, (1.0,) * dimension)

    @classmethod
    def bounding(cls, boxes: Iterable["Box"]) -> "Box":
        """The minimum bounding box of a non-empty collection of boxes."""
        boxes = list(boxes)
        if not boxes:
            raise ValueError("cannot compute the bounding box of nothing")
        dim = boxes[0].dimension
        lo = [math.inf] * dim
        hi = [-math.inf] * dim
        for box in boxes:
            if box.dimension != dim:
                raise ValueError("cannot bound boxes of mixed dimensionality")
            for axis in range(dim):
                lo[axis] = min(lo[axis], box.lo[axis])
                hi[axis] = max(hi[axis], box.hi[axis])
        return cls(tuple(lo), tuple(hi))

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #

    @property
    def dimension(self) -> int:
        """Number of dimensions."""
        return len(self.lo)

    @property
    def center(self) -> tuple[float, ...]:
        """Geometric centre of the box."""
        return tuple((low + high) / 2.0 for low, high in zip(self.lo, self.hi))

    @property
    def extents(self) -> tuple[float, ...]:
        """Side length per dimension."""
        return tuple(high - low for low, high in zip(self.lo, self.hi))

    def side(self, axis: int) -> float:
        """Side length along one axis."""
        return self.hi[axis] - self.lo[axis]

    def volume(self) -> float:
        """d-dimensional volume (area for d = 2)."""
        return math.prod(self.extents)

    def is_degenerate(self) -> bool:
        """True when at least one side has zero length."""
        return any(high == low for low, high in zip(self.lo, self.hi))

    # ------------------------------------------------------------------ #
    # Predicates
    # ------------------------------------------------------------------ #

    def intersects(self, other: "Box") -> bool:
        """True when the two (closed) boxes share at least one point."""
        self._check_dimension(other)
        return all(
            s_lo <= o_hi and o_lo <= s_hi
            for s_lo, s_hi, o_lo, o_hi in zip(self.lo, self.hi, other.lo, other.hi)
        )

    def contains_point(self, point: Sequence[float]) -> bool:
        """True when ``point`` lies inside the (closed) box."""
        if len(point) != self.dimension:
            raise ValueError("point dimensionality mismatch")
        return all(
            low <= coord <= high
            for low, high, coord in zip(self.lo, self.hi, point)
        )

    def contains_box(self, other: "Box") -> bool:
        """True when ``other`` lies fully inside this box."""
        self._check_dimension(other)
        return all(
            s_lo <= o_lo and o_hi <= s_hi
            for s_lo, s_hi, o_lo, o_hi in zip(self.lo, self.hi, other.lo, other.hi)
        )

    # ------------------------------------------------------------------ #
    # Derived boxes
    # ------------------------------------------------------------------ #

    def intersection(self, other: "Box") -> "Box | None":
        """The overlapping region of two boxes, or ``None`` if disjoint."""
        self._check_dimension(other)
        lo = tuple(max(a, b) for a, b in zip(self.lo, other.lo))
        hi = tuple(min(a, b) for a, b in zip(self.hi, other.hi))
        if any(low > high for low, high in zip(lo, hi)):
            return None
        return Box(lo, hi)

    def union(self, other: "Box") -> "Box":
        """The minimum bounding box of the two boxes."""
        self._check_dimension(other)
        lo = tuple(min(a, b) for a, b in zip(self.lo, other.lo))
        hi = tuple(max(a, b) for a, b in zip(self.hi, other.hi))
        return Box(lo, hi)

    def expand(self, amounts: Sequence[float] | float) -> "Box":
        """Grow the box by ``amounts`` on *each side* of every dimension.

        This is the *query-window extension* operation from Stefanakis et
        al. used by both Space Odyssey and the Grid baseline: queries are
        extended by the maximum object extent so that objects assigned to a
        partition by their centre are never missed.
        """
        if isinstance(amounts, (int, float)):
            amounts = [float(amounts)] * self.dimension
        if len(amounts) != self.dimension:
            raise ValueError("expansion amounts dimensionality mismatch")
        if any(a < 0 for a in amounts):
            raise ValueError("expansion amounts must be non-negative")
        lo = tuple(low - a for low, a in zip(self.lo, amounts))
        hi = tuple(high + a for high, a in zip(self.hi, amounts))
        return Box(lo, hi)

    def clamp(self, universe: "Box") -> "Box":
        """Clip this box to lie within ``universe``.

        Used when extended query windows spill over the dataset universe.
        The result keeps at least a degenerate slab on the universe
        boundary so it remains a valid box.
        """
        self._check_dimension(universe)
        lo = tuple(
            min(max(low, u_lo), u_hi)
            for low, u_lo, u_hi in zip(self.lo, universe.lo, universe.hi)
        )
        hi = tuple(
            max(min(high, u_hi), u_lo)
            for high, u_lo, u_hi in zip(self.hi, universe.lo, universe.hi)
        )
        return Box(lo, hi)

    def translate(self, offsets: Sequence[float]) -> "Box":
        """Shift the box by ``offsets``."""
        if len(offsets) != self.dimension:
            raise ValueError("offset dimensionality mismatch")
        lo = tuple(low + off for low, off in zip(self.lo, offsets))
        hi = tuple(high + off for high, off in zip(self.hi, offsets))
        return Box(lo, hi)

    # ------------------------------------------------------------------ #
    # Space-oriented splitting
    # ------------------------------------------------------------------ #

    def grid_edges(
        self, cells_per_dim: Sequence[int] | int
    ) -> tuple[list[list[float]], list[list[float]]]:
        """Per-axis cell edges of the regular grid: ``(lows, highs)``.

        Cell ``c`` along axis ``a`` spans ``[lows[a][c], highs[a][c]]``; the
        last cell snaps to the exact upper bound so floating point error can
        never leave a sliver of space uncovered.  :meth:`split_grid` builds
        its children from these floats and nothing else.
        """
        lows: list[list[float]] = []
        highs: list[list[float]] = []
        for axis, count in enumerate(self._normalize_counts(cells_per_dim)):
            low = self.lo[axis]
            step = self.side(axis) / count
            lows.append([low + cell * step for cell in range(count)])
            highs.append([low + (cell + 1) * step for cell in range(count - 1)] + [self.hi[axis]])
        return lows, highs

    def split_grid(self, cells_per_dim: Sequence[int] | int) -> list["Box"]:
        """Split the box into a regular grid of child boxes.

        The children are returned in row-major order of their integer grid
        coordinates; :meth:`child_index` maps a point to the index of the
        child containing it, which the partition trees use for cheap
        centre-based object assignment.
        """
        lows, highs = self.grid_edges(cells_per_dim)
        return [
            Box._trusted(lo, hi)
            for lo, hi in zip(itertools.product(*lows), itertools.product(*highs))
        ]

    @classmethod
    def _trusted(cls, lo: tuple[float, ...], hi: tuple[float, ...]) -> "Box":
        """Build a box whose corners are valid by construction (no checks)."""
        box = object.__new__(cls)
        object.__setattr__(box, "lo", lo)
        object.__setattr__(box, "hi", hi)
        return box

    def child_index(self, point: Sequence[float], cells_per_dim: Sequence[int] | int) -> int:
        """Row-major index of the grid child (see :meth:`split_grid`) containing ``point``."""
        counts = self._normalize_counts(cells_per_dim)
        if len(point) != self.dimension:
            raise ValueError("point dimensionality mismatch")
        index = 0
        for axis, coord in enumerate(point):
            side = self.side(axis)
            if side == 0:
                cell = 0
            else:
                offset = (coord - self.lo[axis]) / side
                cell = int(offset * counts[axis])
                cell = min(max(cell, 0), counts[axis] - 1)
            index = index * counts[axis] + cell
        return index

    def grid_cells_overlapping(
        self, query: "Box", cells_per_dim: Sequence[int] | int
    ) -> Iterator[int]:
        """Yield row-major indices of grid children that intersect ``query``.

        Avoids materialising all children: only the integer ranges per axis
        are computed, so finding the handful of partitions a query touches
        is O(number of touched cells) rather than O(total cells).
        """
        counts = self._normalize_counts(cells_per_dim)
        self._check_dimension(query)
        ranges: list[range] = []
        for axis in range(self.dimension):
            side = self.side(axis)
            if side == 0:
                ranges.append(range(0, 1))
                continue
            lo_cell = int((query.lo[axis] - self.lo[axis]) / side * counts[axis])
            hi_cell = int((query.hi[axis] - self.lo[axis]) / side * counts[axis])
            lo_cell = min(max(lo_cell, 0), counts[axis] - 1)
            hi_cell = min(max(hi_cell, 0), counts[axis] - 1)
            if query.hi[axis] < self.lo[axis] or query.lo[axis] > self.hi[axis]:
                return
            ranges.append(range(lo_cell, hi_cell + 1))
        for coords in itertools.product(*ranges):
            index = 0
            for axis, cell in enumerate(coords):
                index = index * counts[axis] + cell
            yield index

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #

    def _normalize_counts(self, cells_per_dim: Sequence[int] | int) -> tuple[int, ...]:
        if isinstance(cells_per_dim, int):
            counts: tuple[int, ...] = (cells_per_dim,) * self.dimension
        else:
            counts = tuple(int(c) for c in cells_per_dim)
        if len(counts) != self.dimension:
            raise ValueError("cells_per_dim dimensionality mismatch")
        if any(c < 1 for c in counts):
            raise ValueError("every dimension needs at least one cell")
        return counts

    def _check_dimension(self, other: "Box") -> None:
        if other.dimension != self.dimension:
            raise ValueError(
                f"dimensionality mismatch: {self.dimension} vs {other.dimension}"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        lo = ", ".join(f"{c:g}" for c in self.lo)
        hi = ", ".join(f"{c:g}" for c in self.hi)
        return f"Box([{lo}] .. [{hi}])"
