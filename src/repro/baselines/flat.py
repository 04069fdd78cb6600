"""FLAT: the state-of-the-art baseline (Tauheed et al., ICDE '12).

FLAT ("Accelerating Range Queries For Brain Simulations") targets exactly
the paper's workload: range queries over dense neuroscience data where deep
R-tree traversals cost too many random I/Os.  Its two defining ideas are

1. the space is fully decomposed into non-overlapping *regions*, one per
   STR-packed leaf page, with precomputed *neighbourhood links* between
   touching regions; and
2. a query first locates a single *seed* region through a small seed index
   and then **crawls** the neighbourhood links, reading only leaf pages whose
   region intersects the query.

Building FLAT is the most expensive of all approaches (external STR sorts,
a second pass to compute the neighbourhood graph, writing the adjacency and
seed structures), but once built its queries touch the fewest pages — the
exact trade-off the paper's Figure 4/5 rely on.

Implementation notes
--------------------
* Regions are produced by a region-aware STR tiling
  (:func:`tile_with_regions`): they partition the universe exactly, and each
  object's *centre* lies in its leaf's region.  Correctness therefore uses
  the same query-window-extension argument as the Grid and Space Odyssey:
  crawling every region that intersects the query extended by the maximum
  object extent visits every leaf that can contain a matching object.
* Because regions tile the space, the set of regions intersecting any box is
  face-connected, so a breadth-first crawl from the seed cannot miss any of
  them.
* Leaves, seed-tree nodes and adjacency links are structured arrays: the
  tiling sorts centre columns, the pages are written with
  ``append_group_array``, and a query tests the regions, each seed page and
  the crawled leaves with ``intersect_mask``.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator, Sequence

import numpy as np

from repro.baselines.interface import (
    SingleCollectionIndex,
    concat_records,
    intersecting,
    max_extents,
    scan_records,
)
from repro.baselines.rtree import build_upper_levels, node_entry_dtype
from repro.baselines.str_packing import charge_external_sort, record_centers, sort_rows
from repro.data.dataset import Dataset
from repro.data.spatial_object import spatial_object_codec
from repro.geometry.box import Box
from repro.geometry.vectorized import boxes_to_arrays, intersect_mask
from repro.storage.codec import ArrayCodec, records_per_page
from repro.storage.disk import Disk
from repro.storage.pagedfile import PagedFile

#: One directed neighbourhood link between two leaf regions (16 bytes).
ADJACENCY_DTYPE = np.dtype([("leaf", "<i8"), ("neighbor", "<i8")])


# --------------------------------------------------------------------------- #
# Region-aware STR tiling
# --------------------------------------------------------------------------- #


def tile_with_regions(
    centers: np.ndarray,
    leaf_capacity: int,
    universe: Box,
) -> list[tuple[np.ndarray, Box]]:
    """STR-tile rows by their ``(n, d)`` ``centers`` and give each leaf a region.

    Each leaf is an array of row indices.  The regions partition
    ``universe`` exactly (no gaps, no overlaps except shared faces) and
    every row's centre lies inside its leaf's region.  Splits are placed
    halfway between the bordering rows' centres.
    """
    if leaf_capacity < 1:
        raise ValueError("leaf_capacity must be >= 1")
    if not len(centers):
        return [(np.empty(0, dtype=np.intp), universe)]
    dimension = universe.dimension

    def tile(rows: np.ndarray, axis: int, region: Box) -> Iterator[tuple[np.ndarray, Box]]:
        remaining_dims = dimension - axis
        if len(rows) <= leaf_capacity or remaining_dims == 0:
            yield rows, region
            return
        rows = sort_rows(rows, centers, axis)
        n_leaves = -(-len(rows) // leaf_capacity)
        if axis == dimension - 1:
            slabs = n_leaves
        else:
            slabs = max(1, round(n_leaves ** (1.0 / remaining_dims)))
        slab_size = -(-len(rows) // slabs)
        pieces = [rows[start : start + slab_size] for start in range(0, len(rows), slab_size)]
        # Region boundaries along this axis: midpoints between the last
        # centre of one slab and the first centre of the next.
        cuts: list[float] = [region.lo[axis]]
        for left, right in zip(pieces, pieces[1:]):
            boundary = (centers[left[-1], axis].item() + centers[right[0], axis].item()) / 2.0
            boundary = min(max(boundary, region.lo[axis]), region.hi[axis])
            boundary = max(boundary, cuts[-1])
            cuts.append(boundary)
        cuts.append(region.hi[axis])
        for index, piece in enumerate(pieces):
            lo = list(region.lo)
            hi = list(region.hi)
            lo[axis] = cuts[index]
            hi[axis] = cuts[index + 1]
            sub_region = Box(tuple(lo), tuple(hi))
            if axis == dimension - 1:
                yield piece, sub_region
            else:
                yield from tile(piece, axis + 1, sub_region)

    return list(tile(np.arange(len(centers)), 0, universe))


def compute_region_adjacency(regions: Sequence[Box], bins_per_dim: int = 16) -> dict[int, set[int]]:
    """Neighbour sets of touching regions, computed with coarse-grid binning.

    Two regions are neighbours when their closed boxes intersect (they share
    at least a face, edge or corner).  Binning keeps the pair comparisons
    local instead of quadratic in the number of leaves.
    """
    if not regions:
        return {}
    universe = Box.bounding(regions)
    buckets: dict[int, list[int]] = {}
    for index, region in enumerate(regions):
        for cell in universe.grid_cells_overlapping(region, bins_per_dim):
            buckets.setdefault(cell, []).append(index)
    adjacency: dict[int, set[int]] = {index: set() for index in range(len(regions))}
    for members in buckets.values():
        for position, left in enumerate(members):
            for right in members[position + 1 :]:
                if left == right or right in adjacency[left]:
                    continue
                if regions[left].intersects(regions[right]):
                    adjacency[left].add(right)
                    adjacency[right].add(left)
    return adjacency


# --------------------------------------------------------------------------- #
# The index
# --------------------------------------------------------------------------- #


class FLATIndex(SingleCollectionIndex):
    """FLAT: STR-packed leaves + region neighbourhood links + a seed index.

    Parameters
    ----------
    disk, name, universe:
        As for the other indexes.
    build_memory_pages:
        Memory budget for the external sorts during the bulk load.
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
        self._leaf_file = PagedFile(disk, f"flat/{name}.leaves", obj_codec)
        self._adj_file = PagedFile(disk, f"flat/{name}.adjacency", ArrayCodec(ADJACENCY_DTYPE))
        seed_codec = ArrayCodec(node_entry_dtype(self._dimension))
        self._seed_file = PagedFile(disk, f"flat/{name}.seeds", seed_codec)
        self._leaf_capacity = records_per_page(obj_codec.record_size, disk.page_size)
        self._fanout = records_per_page(seed_codec.record_size, disk.page_size)
        self._regions: list[Box] = []
        self._region_lo, self._region_hi = boxes_to_arrays([], self._dimension)
        self._leaf_pages: list[int] = []
        self._adjacency: dict[int, set[int]] = {}
        self._max_extent: tuple[float, ...] = (0.0,) * self._dimension
        self._root_page: int | None = None
        self._root_is_leaf_level = False
        self._n_objects = 0
        self._built = False

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def is_built(self) -> bool:
        """Whether the index has been built."""
        return self._built

    @property
    def n_objects(self) -> int:
        """Number of indexed objects."""
        return self._n_objects

    @property
    def n_leaves(self) -> int:
        """Number of leaf pages / regions."""
        return len(self._leaf_pages)

    @property
    def max_extent(self) -> tuple[float, ...]:
        """Maximum object extent per dimension."""
        return self._max_extent

    @property
    def regions(self) -> list[Box]:
        """The space-covering regions (one per leaf), in leaf order."""
        return list(self._regions)

    @property
    def adjacency(self) -> dict[int, set[int]]:
        """Neighbourhood links between regions (leaf index -> neighbour set)."""
        return {leaf: set(neighbors) for leaf, neighbors in self._adjacency.items()}

    # ------------------------------------------------------------------ #
    # Build
    # ------------------------------------------------------------------ #

    def build(self, datasets: Sequence[Dataset]) -> None:
        """Bulk load FLAT: pack leaves, compute neighbourhoods, build seeds."""
        if self._built:
            raise RuntimeError("FLAT is already built")
        records, raw_pages = scan_records(datasets, self._leaf_file.dtype)
        self._n_objects = len(records)
        self._max_extent = max_extents(records)
        # Phase 1: external STR sort + leaf packing (same cost as the R-tree).
        charge_external_sort(
            self._disk,
            data_pages=raw_pages,
            memory_pages=self._build_memory_pages,
            n_phases=self._dimension,
            records=len(records),
        )
        tiles = tile_with_regions(record_centers(records), self._leaf_capacity, self._universe)
        self._regions = [region for _, region in tiles]
        self._region_lo, self._region_hi = boxes_to_arrays(self._regions)
        for rows, _ in tiles:
            run = self._leaf_file.append_group_array(records[rows])
            # An empty leaf (only possible for an empty collection) gets a
            # sentinel so region/page lists stay aligned without ever
            # reading a non-existent page.
            self._leaf_pages.append(run.extents[0].start if run.extents else -1)
        # Phase 2: neighbourhood computation.  FLAT re-reads the packed
        # leaves to derive the region graph and writes the adjacency pages.
        for page in self._leaf_pages:
            if page >= 0:
                self._leaf_file.read_page_array(page)
        self._adjacency = compute_region_adjacency(self._regions)
        links = np.array(
            [
                (leaf, neighbor)
                for leaf, neighbors in self._adjacency.items()
                for neighbor in sorted(neighbors)
            ],
            dtype=ADJACENCY_DTYPE,
        )
        pair_checks = sum(len(n) for n in self._adjacency.values()) + len(self._regions)
        self._disk.charge_cpu_records(pair_checks * 4)
        if len(links):
            self._adj_file.append_group_array(links)
        # Phase 3: the seed index — a small STR-style tree over the regions.
        entries = np.zeros(len(self._leaf_pages), dtype=self._seed_file.dtype)
        entries["child_page"] = self._leaf_pages
        entries["is_leaf"] = 1
        entries["lo"] = self._region_lo
        entries["hi"] = self._region_hi
        root, _ = build_upper_levels(self._seed_file, entries, self._fanout)
        self._root_page = int(root["child_page"])
        self._root_is_leaf_level = bool(root["is_leaf"])
        self._built = True

    # ------------------------------------------------------------------ #
    # Query
    # ------------------------------------------------------------------ #

    def query_records(self, box: Box) -> np.ndarray:
        """Seed-and-crawl range search.

        One mask tests every region against the extended window; the crawl
        then reads leaves breadth first from the seed, and the leaves it
        read are filtered together, so hits come in crawl order.
        """
        if not self._built:
            raise RuntimeError("FLAT must be built before querying")
        extended = box.expand(self._max_extent).clamp(self._universe)
        in_window = intersect_mask(
            extended.lo, extended.hi, self._region_lo, self._region_hi
        ).tolist()
        seed = self._find_seed(extended, in_window)
        leaves: list[np.ndarray] = []
        examined = 0
        if seed is not None:
            visited = {seed}
            frontier: deque[int] = deque([seed])
            while frontier:
                leaf = frontier.popleft()
                leaf_page = self._leaf_pages[leaf]
                if leaf_page >= 0:
                    records = self._leaf_file.read_page_array(leaf_page)
                    leaves.append(records)
                    examined += len(records)
                for neighbor in self._adjacency.get(leaf, ()):  # crawl the links
                    if neighbor in visited:
                        continue
                    examined += 1
                    if in_window[neighbor]:
                        visited.add(neighbor)
                        frontier.append(neighbor)
            self._disk.charge_cpu_records(examined)
        return intersecting(concat_records(leaves, self._leaf_file.dtype), box)

    def _find_seed(self, extended: Box, in_window: list[bool]) -> int | None:
        """Locate one region intersecting the extended query via the seed tree."""
        if self._root_is_leaf_level:
            # A single leaf: the root entry points directly at it.
            return 0 if in_window[0] else None
        stack: list[int] = [self._root_page]
        while stack:
            entries = self._seed_file.read_page_array(stack.pop())
            hits = intersecting(entries, extended)
            for child_page, is_leaf in zip(hits["child_page"].tolist(), hits["is_leaf"].tolist()):
                if is_leaf:
                    return self._leaf_pages.index(child_page)
                stack.append(child_page)
        return None

    # ------------------------------------------------------------------ #
    # Maintenance
    # ------------------------------------------------------------------ #

    def drop(self) -> None:
        """Delete all on-disk structures."""
        self._leaf_file.delete()
        self._adj_file.delete()
        self._seed_file.delete()
        self._regions = []
        self._region_lo, self._region_hi = boxes_to_arrays([], self._dimension)
        self._leaf_pages = []
        self._adjacency = {}
        self._root_page = None
        self._built = False
        self._n_objects = 0
