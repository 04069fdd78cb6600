"""Bulk-loaded R-tree (STR packing).

The paper's ``RTree`` baseline is a bulk-loaded R-tree built with the
Sort-Tile-Recursive algorithm (it uses libspatialindex; this is a
from-scratch reimplementation on the simulated disk).  Leaves hold object
records, internal nodes hold ``(child page, child MBR)`` entries; every node
occupies exactly one page, so a range query costs one random page read per
node visited.

Build cost = one sequential scan of the raw data + the external-sort passes
STR needs (one sort phase per dimension, charged through
:func:`repro.baselines.str_packing.charge_external_sort`) + sequential
writes of the leaf and node pages.

Leaves and nodes are structured arrays end to end: a leaf is a slice of the
scanned records, a node page is an array of :func:`node_entry_dtype`, and a
query tests each page it reads with one ``intersect_mask``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.baselines.interface import (
    SingleCollectionIndex,
    concat_records,
    intersecting,
    scan_records,
)
from repro.baselines.str_packing import charge_external_sort, record_centers, str_sort_tile
from repro.data.dataset import Dataset
from repro.data.spatial_object import spatial_object_codec
from repro.geometry.box import Box
from repro.storage.codec import ArrayCodec, records_per_page
from repro.storage.disk import Disk
from repro.storage.pagedfile import PagedFile


def node_entry_dtype(dimension: int) -> np.dtype:
    """One internal-node entry: child page, leaf flag and the child's MBR.

    The layout is the ``struct`` format ``<qq`` + ``d`` × 2·dimension
    (64 bytes in 3-D): ``is_leaf`` is 1 when the child is a leaf page.
    """
    return np.dtype(
        [
            ("child_page", "<i8"),
            ("is_leaf", "<i8"),
            ("lo", "<f8", (dimension,)),
            ("hi", "<f8", (dimension,)),
        ]
    )


def build_upper_levels(
    file: PagedFile, entries: np.ndarray, fanout: int
) -> tuple[np.ndarray, int]:
    """Write node pages bottom-up until one entry is left; return it and the levels.

    ``entries`` point at the level below in packing order; consecutive
    runs of ``fanout`` entries become one node page each, whose entry one
    level up carries the page number and the bounding box of its children.
    """
    levels = 0
    while len(entries) > 1:
        groups = [entries[start : start + fanout] for start in range(0, len(entries), fanout)]
        pages = [file.append_group_array(group).extents[0].start for group in groups]
        entries = node_entries(entries.dtype, pages, groups, is_leaf=False)
        levels += 1
    return entries[0], levels


def node_entries(
    dtype: np.dtype, pages: list[int], children: list[np.ndarray], is_leaf: bool
) -> np.ndarray:
    """One entry per child page: its page number, leaf flag and bounding box."""
    entries = np.zeros(len(pages), dtype=dtype)
    entries["child_page"] = pages
    entries["is_leaf"] = int(is_leaf)
    entries["lo"] = [child["lo"].min(axis=0) for child in children]
    entries["hi"] = [child["hi"].max(axis=0) for child in children]
    return entries


class STRRTree(SingleCollectionIndex):
    """A paged, bulk-loaded R-tree.

    Parameters
    ----------
    disk:
        Simulated disk for the leaf and node files.
    name:
        Unique index name (used to derive file names).
    universe:
        Indexed space (only its dimensionality is needed; kept for
        symmetry with the other indexes).
    build_memory_pages:
        Memory budget, in pages, available to the external sorts during the
        bulk load; smaller budgets mean more sort passes and a slower build.
    """

    def __init__(
        self,
        disk: Disk,
        name: str,
        universe: Box,
        build_memory_pages: int = 1024,
    ) -> None:
        self._disk = disk
        self._universe = universe
        self._dimension = universe.dimension
        self._build_memory_pages = build_memory_pages
        obj_codec = spatial_object_codec(self._dimension)
        self._leaf_file = PagedFile(disk, f"rtree/{name}.leaves", obj_codec)
        node_codec = ArrayCodec(node_entry_dtype(self._dimension))
        self._node_file = PagedFile(disk, f"rtree/{name}.nodes", node_codec)
        self._leaf_capacity = records_per_page(obj_codec.record_size, disk.page_size)
        self._fanout = records_per_page(node_codec.record_size, disk.page_size)
        self._root_page: int | None = None
        self._root_is_leaf = False
        self._height = 0
        self._n_objects = 0
        self._built = False

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def is_built(self) -> bool:
        """Whether the tree has been bulk loaded."""
        return self._built

    @property
    def height(self) -> int:
        """Number of levels (1 = a single leaf)."""
        return self._height

    @property
    def n_objects(self) -> int:
        """Number of indexed objects."""
        return self._n_objects

    @property
    def leaf_capacity(self) -> int:
        """Objects per leaf page."""
        return self._leaf_capacity

    @property
    def fanout(self) -> int:
        """Entries per internal node page."""
        return self._fanout

    # ------------------------------------------------------------------ #
    # Build
    # ------------------------------------------------------------------ #

    def build(self, datasets: Sequence[Dataset]) -> None:
        """Bulk load the tree from the raw files of ``datasets``."""
        if self._built:
            raise RuntimeError("R-tree is already built")
        records, raw_pages = scan_records(datasets, self._leaf_file.dtype)
        self._n_objects = len(records)
        charge_external_sort(
            self._disk,
            data_pages=raw_pages,
            memory_pages=self._build_memory_pages,
            n_phases=self._dimension,
            records=len(records),
        )
        leaves = [records[rows] for rows in str_sort_tile(record_centers(records), self._leaf_capacity)]
        self._height = 1
        if leaves:
            pages = [self._leaf_file.append_group_array(leaf).extents[0].start for leaf in leaves]
            entries = node_entries(self._node_file.dtype, pages, leaves, is_leaf=True)
            root, levels = build_upper_levels(self._node_file, entries, self._fanout)
            self._height += levels
            self._root_page = int(root["child_page"])
            self._root_is_leaf = bool(root["is_leaf"])
        self._built = True

    # ------------------------------------------------------------------ #
    # Query
    # ------------------------------------------------------------------ #

    def query_records(self, box: Box) -> np.ndarray:
        """Standard R-tree range search: descend every intersecting subtree.

        Nodes are visited depth first from an explicit stack, children
        pushed in entry order; the visited leaves are filtered together
        at the end, so hits come in leaf-visit order.
        """
        if not self._built:
            raise RuntimeError("R-tree must be built before querying")
        leaves: list[np.ndarray] = []
        examined = 0
        stack: list[tuple[int, bool]] = []
        if self._root_page is not None:
            stack.append((self._root_page, self._root_is_leaf))
        while stack:
            page, is_leaf = stack.pop()
            if is_leaf:
                records = self._leaf_file.read_page_array(page)
                leaves.append(records)
            else:
                records = self._node_file.read_page_array(page)
                hits = intersecting(records, box)
                stack.extend(zip(hits["child_page"].tolist(), hits["is_leaf"].tolist()))
            examined += len(records)
        self._disk.charge_cpu_records(examined)
        return intersecting(concat_records(leaves, self._leaf_file.dtype), box)

    # ------------------------------------------------------------------ #
    # Maintenance
    # ------------------------------------------------------------------ #

    def drop(self) -> None:
        """Delete the leaf and node files."""
        self._leaf_file.delete()
        self._node_file.delete()
        self._root_page = None
        self._built = False
        self._n_objects = 0
        self._height = 0
