"""Static uniform grid index.

The paper's ``Grid`` baseline partitions the indexed space into a fixed
number of uniform cells (60³ in the paper, chosen by a parameter sweep).
Objects are assigned to exactly one cell by their centre; to stay correct
without replication the index keeps the maximum object extent per dimension
and extends every query window by it (query-window extension, the same
technique Space Odyssey uses).

Build behaviour follows the paper: objects are assigned to cells in memory
and flushed to disk whenever the memory buffer fills up, so a cell may end
up scattered over several page runs (the price of a bounded build memory
budget).  Each buffer is assigned with ``grid_child_indices`` and written
with one stable argsort by cell; a query reads its cells' runs as
structured arrays and filters them with one mask.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.baselines.interface import (
    SingleCollectionIndex,
    concat_records,
    intersecting,
    max_extents,
)
from repro.baselines.str_packing import record_centers
from repro.data.dataset import Dataset
from repro.data.spatial_object import spatial_object_codec
from repro.geometry.box import Box
from repro.geometry.vectorized import grid_child_indices
from repro.storage.disk import Disk
from repro.storage.pagedfile import PagedFile, StoredRun


class GridIndex(SingleCollectionIndex):
    """A static uniform grid over the universe.

    Parameters
    ----------
    disk:
        The simulated disk to store cell data on.
    name:
        Unique name for this index's file (several grids can coexist, e.g.
        one per dataset under the 1fE strategy).
    universe:
        The space to partition.
    cells_per_dim:
        Number of cells along each dimension (an int applies to all
        dimensions).  The paper uses 60 for its full-scale datasets; the
        scaled-down experiment presets use proportionally fewer cells.
    build_buffer_objects:
        How many objects may be buffered in memory before cells are flushed
        to disk, modelling the bounded memory budget of the paper's setup.
    """

    def __init__(
        self,
        disk: Disk,
        name: str,
        universe: Box,
        cells_per_dim: int | Sequence[int] = 16,
        build_buffer_objects: int = 100_000,
    ) -> None:
        if build_buffer_objects < 1:
            raise ValueError("build_buffer_objects must be >= 1")
        self._disk = disk
        self._universe = universe
        self._cells_per_dim = (
            (cells_per_dim,) * universe.dimension
            if isinstance(cells_per_dim, int)
            else tuple(int(c) for c in cells_per_dim)
        )
        if len(self._cells_per_dim) != universe.dimension:
            raise ValueError("cells_per_dim dimensionality mismatch")
        if any(c < 1 for c in self._cells_per_dim):
            raise ValueError("cells_per_dim entries must be >= 1")
        self._build_buffer_objects = build_buffer_objects
        codec = spatial_object_codec(universe.dimension)
        self._file = PagedFile(disk, f"grid/{name}.cells", codec)
        self._cells: dict[int, list[StoredRun]] = {}  # cell -> runs, in flush order
        self._max_extent: tuple[float, ...] = (0.0,) * universe.dimension
        self._built = False
        self._n_objects = 0

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def is_built(self) -> bool:
        """Whether the grid has been built."""
        return self._built

    @property
    def universe(self) -> Box:
        """The indexed space."""
        return self._universe

    @property
    def cells_per_dim(self) -> tuple[int, ...]:
        """Grid resolution per dimension."""
        return self._cells_per_dim

    @property
    def n_cells(self) -> int:
        """Total number of grid cells."""
        total = 1
        for count in self._cells_per_dim:
            total *= count
        return total

    @property
    def n_objects(self) -> int:
        """Number of indexed objects."""
        return self._n_objects

    @property
    def max_extent(self) -> tuple[float, ...]:
        """Maximum object extent per dimension (query-window extension)."""
        return self._max_extent

    def occupied_cells(self) -> int:
        """Number of cells that contain at least one object."""
        return len(self._cells)

    # ------------------------------------------------------------------ #
    # Build
    # ------------------------------------------------------------------ #

    def build(self, datasets: Sequence[Dataset]) -> None:
        """Scan the raw files once and assign every object to its cell.

        Cells are buffered in memory and flushed (appended to the cell
        file) whenever ``build_buffer_objects`` objects are pending, so the
        build makes a single sequential pass over the input and mostly
        sequential writes to the output.  A flush happens as soon as the
        buffer fills, before the next chunk of the scan is read.
        """
        if self._built:
            raise RuntimeError("grid is already built")
        buffer = np.empty(0, dtype=self._file.dtype)
        max_extent = (0.0,) * self._universe.dimension
        for dataset in datasets:
            for chunk in dataset.scan_arrays():
                self._n_objects += len(chunk)
                max_extent = tuple(map(max, max_extent, max_extents(chunk)))
                buffer = np.concatenate([buffer, chunk])
                while len(buffer) >= self._build_buffer_objects:
                    self._flush(buffer[: self._build_buffer_objects])
                    buffer = buffer[self._build_buffer_objects :]
        if len(buffer):
            self._flush(buffer)
        self._disk.charge_cpu_records(self._n_objects)
        self._max_extent = max_extent
        self._built = True

    def _flush(self, records: np.ndarray) -> None:
        """Append one buffer's records, cell by cell in ascending cell order."""
        cells = grid_child_indices(
            record_centers(records), self._universe.lo, self._universe.hi, self._cells_per_dim
        )
        order = np.argsort(cells, kind="stable")
        cells = cells[order]
        records = records[order]
        bounds = np.flatnonzero(np.diff(cells)) + 1
        for start, end in zip([0, *bounds.tolist()], [*bounds.tolist(), len(cells)]):
            run = self._file.append_group_array(records[start:end])
            self._cells.setdefault(int(cells[start]), []).append(run)

    # ------------------------------------------------------------------ #
    # Query
    # ------------------------------------------------------------------ #

    def query_records(self, box: Box) -> np.ndarray:
        """Read every cell the extended query overlaps and filter exactly.

        Cells are read in row-major order and each cell's runs in flush
        order; the records read are filtered together at the end.
        """
        if not self._built:
            raise RuntimeError("grid must be built before querying")
        extended = box.expand(self._max_extent).clamp(self._universe)
        parts: list[np.ndarray] = []
        for cell in self._universe.grid_cells_overlapping(extended, self._cells_per_dim):
            for run in self._cells.get(cell, ()):
                parts.append(self._file.read_group_array(run))
        records = concat_records(parts, self._file.dtype)
        self._disk.charge_cpu_records(len(records))
        return intersecting(records, box)

    # ------------------------------------------------------------------ #
    # Maintenance
    # ------------------------------------------------------------------ #

    def drop(self) -> None:
        """Delete the cell file and reset the directory."""
        self._file.delete()
        self._cells.clear()
        self._built = False
        self._n_objects = 0
