"""Static spatial indexing baselines used in the paper's evaluation.

Space Odyssey is compared against three static, build-everything-up-front
indexes, each wrapped in one or both of two multi-dataset strategies:

* :class:`~repro.baselines.grid.GridIndex` — a static uniform grid (the
  paper uses 60³ cells), the cheapest index to build;
* :class:`~repro.baselines.rtree.STRRTree` — a bulk-loaded R-tree packed
  with Sort-Tile-Recursive (Leutenegger et al.);
* :class:`~repro.baselines.flat.FLATIndex` — the state of the art for this
  workload (Tauheed et al., ICDE '12): STR-packed leaf pages plus a leaf
  neighbourhood graph; queries locate a seed leaf and then crawl
  neighbours, making it the most expensive to build and the fastest to
  query.

The strategies are *one-for-each* (1fE: one index per dataset, probe the
queried ones) and *all-in-one* (Ain1: one index over all objects, filter by
dataset id), implemented in :mod:`repro.baselines.strategies`.

All of them run on the engine's record surface: builds read raw files with
``Dataset.scan_arrays``, leaves, nodes and links are structured arrays
written with ``append_group_array`` and read back page by page as arrays,
and every test of a page, a region or a record set is ``intersect_mask``.
An index answers with the selected records; the approach builds a
``SpatialObject`` only for the rows it returns.  The per-object
implementations they replaced are kept in ``tests/baseline_reference.py``
as the reference models.
"""

from repro.baselines.flat import FLATIndex
from repro.baselines.grid import GridIndex
from repro.baselines.interface import (
    BruteForceScan,
    MultiDatasetIndex,
    SingleCollectionIndex,
)
from repro.baselines.rtree import STRRTree
from repro.baselines.strategies import AllInOne, OneForEach

__all__ = [
    "AllInOne",
    "BruteForceScan",
    "FLATIndex",
    "GridIndex",
    "MultiDatasetIndex",
    "OneForEach",
    "STRRTree",
    "SingleCollectionIndex",
]
