"""Sort-Tile-Recursive (STR) packing and external-sort cost accounting.

STR (Leutenegger, Lopez et al., ICDE '97) bulk-loads an R-tree by recursively
sorting the objects along each dimension and tiling them into equal-size
slabs, producing leaves that are nearly square and nearly full.  Both the
R-tree and FLAT baselines use this packing.

The packing works on columns: :func:`record_centers` turns a structured
array of spatial-object records into an ``(n, d)`` matrix of MBR centres,
and :func:`str_sort_tile` returns each leaf as an array of row indices into
it.  Every sort is a stable ``np.argsort`` of one centre column, so rows
with equal centres keep their input order, as a stable per-object sort
keeps them.

The sort itself runs in memory here (the simulation holds the records), but
at the paper's scale it would be an *external* multi-pass sort, which is a
large part of why FLAT and the R-tree are so much slower to build than the
simple Grid.  :func:`charge_external_sort` therefore charges the disk model
for the sequential read/write passes an external merge sort of the given
size would perform, keeping the build-time comparison honest.
"""

from __future__ import annotations

import math

import numpy as np

from repro.storage.cost_model import AccessKind
from repro.storage.disk import Disk


def record_centers(records: np.ndarray) -> np.ndarray:
    """MBR centres of spatial-object records, shape ``(n, d)``.

    ``(lo + hi) / 2.0`` per coordinate: the values ``Box.center`` computes.
    """
    return (records["lo"] + records["hi"]) / 2.0


def sort_rows(rows: np.ndarray, centers: np.ndarray, axis: int) -> np.ndarray:
    """``rows`` ordered by their centre on ``axis``; ties keep their order."""
    return rows[np.argsort(centers[rows, axis], kind="stable")]


def str_sort_tile(centers: np.ndarray, leaf_capacity: int) -> list[np.ndarray]:
    """Pack rows into STR leaves of at most ``leaf_capacity`` rows.

    ``centers`` is the ``(n, d)`` centre matrix of the records to pack.
    The classic recursive formulation: sort by the first dimension's centre,
    cut into vertical slabs of equal leaf count, then recurse on the
    remaining dimensions within each slab.  Returns the leaves, as row
    indices into ``centers``, in packing order, which is spatially coherent
    — consecutive leaves are close to each other, so grouping them
    bottom-up yields a well-shaped tree.
    """
    if leaf_capacity < 1:
        raise ValueError("leaf_capacity must be >= 1")
    dimension = centers.shape[1]

    def tile(rows: np.ndarray, axis: int) -> list[np.ndarray]:
        if len(rows) <= leaf_capacity:
            return [rows]
        rows = sort_rows(rows, centers, axis)
        if axis == dimension - 1:
            return [rows[start : start + leaf_capacity] for start in range(0, len(rows), leaf_capacity)]
        n_leaves = math.ceil(len(rows) / leaf_capacity)
        remaining_dims = dimension - axis
        slabs = math.ceil(n_leaves ** (1.0 / remaining_dims))
        slab_size = math.ceil(len(rows) / slabs)
        leaves: list[np.ndarray] = []
        for start in range(0, len(rows), slab_size):
            leaves.extend(tile(rows[start : start + slab_size], axis + 1))
        return leaves

    if not len(centers):
        return []
    return tile(np.arange(len(centers)), 0)


def external_sort_passes(data_pages: int, memory_pages: int) -> int:
    """Number of read+write passes an external merge sort needs.

    One pass creates sorted runs of ``memory_pages`` pages; each subsequent
    pass merges up to ``memory_pages - 1`` runs.  Data that fits in memory
    needs a single (read-only) pass, which we count as one.
    """
    if data_pages <= 0:
        return 0
    if memory_pages < 3:
        memory_pages = 3
    if data_pages <= memory_pages:
        return 1
    runs = math.ceil(data_pages / memory_pages)
    passes = 1
    fan_in = memory_pages - 1
    while runs > 1:
        runs = math.ceil(runs / fan_in)
        passes += 1
    return passes


def charge_external_sort(
    disk: Disk,
    data_pages: int,
    memory_pages: int,
    n_phases: int = 1,
    records: int = 0,
) -> None:
    """Charge the disk model for ``n_phases`` external sorts of the data.

    Each pass reads and writes the whole dataset sequentially.  STR performs
    one sort phase per dimension (the recursive slab sorts touch the whole
    data once per level), so the R-tree build calls this with
    ``n_phases = dimension``.  ``records`` adds the comparison CPU cost.
    """
    if data_pages <= 0:
        return
    passes = external_sort_passes(data_pages, memory_pages)
    for _ in range(n_phases * passes):
        read_seconds = disk.model.access_time_s(AccessKind.RANDOM, data_pages)
        write_seconds = disk.model.access_time_s(AccessKind.RANDOM, data_pages)
        disk.stats.record_read(AccessKind.RANDOM, data_pages, read_seconds)
        disk.stats.record_write(AccessKind.RANDOM, data_pages, write_seconds)
    if records:
        comparisons = int(records * max(1.0, math.log2(max(records, 2))))
        disk.charge_cpu_records(comparisons * n_phases)
