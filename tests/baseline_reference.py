"""The per-object baselines: the seed FLAT, R-tree, Grid and oracle, kept as models.

The baselines in ``src/repro/baselines/`` build from structured arrays,
STR-sort centre columns, assign grid cells with ``grid_child_indices``,
write every page with ``append_group_array`` and test pages with
``intersect_mask``.  This module keeps the implementation they replaced:
one :class:`SpatialObject` per record, Python sorts and loops, node entries
and adjacency links as record objects packed by ``struct`` codecs, and
reads through the per-record helpers of ``tests/scalar_reference.py``.

``tests/test_baseline_differential.py`` holds the array baselines to these
models byte for byte: the SHA-256 of every page file, the I/O statistics of
every build and query, and the answers in order.  Nothing here is
reachable from ``src/``.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

from repro.baselines.flat import compute_region_adjacency
from repro.baselines.str_packing import charge_external_sort
from repro.data.dataset import Dataset, DatasetCatalog
from repro.data.spatial_object import SpatialObject, spatial_object_codec
from repro.geometry.box import Box
from repro.storage.codec import FixedRecordCodec, records_per_page
from repro.storage.disk import Disk
from repro.storage.pagedfile import PagedFile, StoredRun

from tests.scalar_reference import child_index, read_group, read_page_records, scan_objects

# --------------------------------------------------------------------------- #
# Records and codecs
# --------------------------------------------------------------------------- #


@dataclass(frozen=True, slots=True)
class NodeEntry:
    """One entry of an internal node: a child page reference and its MBR."""

    child_page: int
    child_is_leaf: bool
    box: Box


def node_entry_codec(dimension: int) -> FixedRecordCodec[NodeEntry]:
    """Fixed-size codec for internal-node entries (64 bytes in 3-D)."""
    fmt = "<qq" + "d" * (2 * dimension)

    def to_fields(entry: NodeEntry) -> tuple:
        return (entry.child_page, 1 if entry.child_is_leaf else 0, *entry.box.lo, *entry.box.hi)

    def from_fields(fields: tuple) -> NodeEntry:
        coords = fields[2:]
        box = Box(tuple(coords[:dimension]), tuple(coords[dimension:]))
        return NodeEntry(child_page=fields[0], child_is_leaf=bool(fields[1]), box=box)

    return FixedRecordCodec(fmt, to_fields, from_fields)


@dataclass(frozen=True, slots=True)
class AdjacencyRecord:
    """One directed neighbourhood link between two leaf regions."""

    leaf: int
    neighbor: int


def adjacency_codec() -> FixedRecordCodec[AdjacencyRecord]:
    """Codec for neighbourhood links (16 bytes per link)."""
    return FixedRecordCodec(
        "<qq",
        lambda rec: (rec.leaf, rec.neighbor),
        lambda fields: AdjacencyRecord(leaf=fields[0], neighbor=fields[1]),
    )


# --------------------------------------------------------------------------- #
# STR packing on objects
# --------------------------------------------------------------------------- #


def str_sort_tile(
    objects: Sequence[SpatialObject], leaf_capacity: int, dimension: int | None = None
) -> list[list[SpatialObject]]:
    """Pack objects into STR leaves with Python's stable sort on centres."""
    if leaf_capacity < 1:
        raise ValueError("leaf_capacity must be >= 1")
    objects = list(objects)
    if not objects:
        return []
    if dimension is None:
        dimension = objects[0].dimension

    def tile(chunk: list[SpatialObject], axis: int) -> list[list[SpatialObject]]:
        if len(chunk) <= leaf_capacity:
            return [chunk]
        chunk.sort(key=lambda obj: obj.center[axis])
        if axis == dimension - 1:
            return [chunk[start : start + leaf_capacity] for start in range(0, len(chunk), leaf_capacity)]
        n_leaves = math.ceil(len(chunk) / leaf_capacity)
        remaining_dims = dimension - axis
        slabs = math.ceil(n_leaves ** (1.0 / remaining_dims))
        slab_size = math.ceil(len(chunk) / slabs)
        leaves: list[list[SpatialObject]] = []
        for start in range(0, len(chunk), slab_size):
            leaves.extend(tile(chunk[start : start + slab_size], axis + 1))
        return leaves

    return [leaf for leaf in tile(objects, 0) if leaf]


def tile_with_regions(
    objects: Sequence[SpatialObject], leaf_capacity: int, universe: Box
) -> list[tuple[list[SpatialObject], Box]]:
    """STR-tile objects and compute a covering region per leaf."""
    if leaf_capacity < 1:
        raise ValueError("leaf_capacity must be >= 1")
    objects = list(objects)
    if not objects:
        return [([], universe)]
    dimension = universe.dimension

    def tile(chunk, axis, region) -> Iterator[tuple[list[SpatialObject], Box]]:
        remaining_dims = dimension - axis
        if len(chunk) <= leaf_capacity or remaining_dims == 0:
            yield chunk, region
            return
        chunk.sort(key=lambda obj: obj.center[axis])
        n_leaves = -(-len(chunk) // leaf_capacity)
        slabs = n_leaves if axis == dimension - 1 else max(1, round(n_leaves ** (1.0 / remaining_dims)))
        slab_size = -(-len(chunk) // slabs)
        pieces = [chunk[start : start + slab_size] for start in range(0, len(chunk), slab_size)]
        pieces = [piece for piece in pieces if piece]
        cuts: list[float] = [region.lo[axis]]
        for left, right in zip(pieces, pieces[1:]):
            boundary = (left[-1].center[axis] + right[0].center[axis]) / 2.0
            boundary = min(max(boundary, region.lo[axis]), region.hi[axis])
            cuts.append(max(boundary, cuts[-1]))
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

    return list(tile(objects, 0, universe))


def group_consecutive(items: Sequence, group_size: int) -> list[list]:
    """Group a sequence into consecutive chunks of at most ``group_size``."""
    return [list(items[start : start + group_size]) for start in range(0, len(items), group_size)]


def scan_all(datasets: Sequence[Dataset]) -> tuple[list[SpatialObject], int]:
    """Every object of ``datasets`` in scan order, and the raw pages read."""
    objects = [obj for dataset in datasets for obj in scan_objects(dataset)]
    return objects, sum(dataset.size_pages() for dataset in datasets)


def max_extent_of(objects: Iterable[SpatialObject], dimension: int) -> tuple[float, ...]:
    """The largest MBR side per axis, starting from 0.0."""
    max_extent = [0.0] * dimension
    for obj in objects:
        for axis, extent in enumerate(obj.box.extents):
            if extent > max_extent[axis]:
                max_extent[axis] = extent
    return tuple(max_extent)


def build_upper_levels(file: PagedFile, entries: list[NodeEntry], fanout: int) -> tuple[NodeEntry, int]:
    """Group entries bottom-up into node pages until one is left."""
    levels = 0
    while len(entries) > 1:
        next_entries: list[NodeEntry] = []
        for group in group_consecutive(entries, fanout):
            page = file.append_group(group).extents[0].start
            box = Box.bounding([entry.box for entry in group])
            next_entries.append(NodeEntry(child_page=page, child_is_leaf=False, box=box))
        entries = next_entries
        levels += 1
    return entries[0], levels


# --------------------------------------------------------------------------- #
# The indexes
# --------------------------------------------------------------------------- #


class ReferenceRTree:
    """The seed STR R-tree: object leaves, ``NodeEntry`` nodes, a Python DFS."""

    def __init__(self, disk: Disk, name: str, universe: Box, build_memory_pages: int = 1024):
        self._disk = disk
        self._dimension = universe.dimension
        self._build_memory_pages = build_memory_pages
        obj_codec = spatial_object_codec(self._dimension)
        self._leaf_file = PagedFile(disk, f"rtree/{name}.leaves", obj_codec)
        self._node_file = PagedFile(disk, f"rtree/{name}.nodes", node_entry_codec(self._dimension))
        self._leaf_capacity = records_per_page(obj_codec.record_size, disk.page_size)
        self._fanout = records_per_page(self._node_file.codec.record_size, disk.page_size)
        self._root: NodeEntry | None = None
        self.height = 0

    def build(self, datasets: Sequence[Dataset]) -> None:
        objects, raw_pages = scan_all(datasets)
        charge_external_sort(
            self._disk, raw_pages, self._build_memory_pages, self._dimension, len(objects)
        )
        entries = [
            NodeEntry(
                child_page=self._leaf_file.append_group(leaf).extents[0].start,
                child_is_leaf=True,
                box=Box.bounding([obj.box for obj in leaf]),
            )
            for leaf in str_sort_tile(objects, self._leaf_capacity, self._dimension)
        ]
        self.height = 1
        if entries:
            self._root, levels = build_upper_levels(self._node_file, entries, self._fanout)
            self.height += levels

    def query(self, box: Box) -> list[SpatialObject]:
        if self._root is None:
            return []
        results: list[SpatialObject] = []
        examined = 0
        stack = [(self._root.child_page, self._root.child_is_leaf)]
        while stack:
            page, is_leaf = stack.pop()
            if is_leaf:
                for obj in read_page_records(self._leaf_file, page):
                    examined += 1
                    if obj.intersects(box):
                        results.append(obj)
            else:
                for entry in read_page_records(self._node_file, page):
                    examined += 1
                    if entry.box.intersects(box):
                        stack.append((entry.child_page, entry.child_is_leaf))
        self._disk.charge_cpu_records(examined)
        return results


class ReferenceFLAT:
    """The seed FLAT: object tiles, ``AdjacencyRecord`` links, a seed tree of entries."""

    def __init__(self, disk: Disk, name: str, universe: Box, build_memory_pages: int = 1024):
        self._disk = disk
        self._universe = universe
        self._dimension = universe.dimension
        self._build_memory_pages = build_memory_pages
        obj_codec = spatial_object_codec(self._dimension)
        self._leaf_file = PagedFile(disk, f"flat/{name}.leaves", obj_codec)
        self._adj_file = PagedFile(disk, f"flat/{name}.adjacency", adjacency_codec())
        self._seed_file = PagedFile(disk, f"flat/{name}.seeds", node_entry_codec(self._dimension))
        self._leaf_capacity = records_per_page(obj_codec.record_size, disk.page_size)
        self._fanout = records_per_page(self._seed_file.codec.record_size, disk.page_size)
        self.regions: list[Box] = []
        self._leaf_pages: list[int] = []
        self.adjacency: dict[int, set[int]] = {}
        self.max_extent: tuple[float, ...] = (0.0,) * self._dimension
        self._root: NodeEntry | None = None

    def build(self, datasets: Sequence[Dataset]) -> None:
        objects, raw_pages = scan_all(datasets)
        self.max_extent = max_extent_of(objects, self._dimension)
        charge_external_sort(
            self._disk, raw_pages, self._build_memory_pages, self._dimension, len(objects)
        )
        tiles = tile_with_regions(objects, self._leaf_capacity, self._universe)
        self.regions = [region for _, region in tiles]
        for leaf_objects, _ in tiles:
            run = self._leaf_file.append_group(leaf_objects)
            self._leaf_pages.append(run.extents[0].start if run.extents else -1)
        for page in self._leaf_pages:
            if page >= 0:
                read_page_records(self._leaf_file, page)
        self.adjacency = compute_region_adjacency(self.regions)
        links = [
            AdjacencyRecord(leaf=leaf, neighbor=neighbor)
            for leaf, neighbors in self.adjacency.items()
            for neighbor in sorted(neighbors)
        ]
        pair_checks = sum(len(n) for n in self.adjacency.values()) + len(self.regions)
        self._disk.charge_cpu_records(pair_checks * 4)
        if links:
            self._adj_file.append_group(links)
        entries = [
            NodeEntry(child_page=page, child_is_leaf=True, box=region)
            for page, region in zip(self._leaf_pages, self.regions)
        ]
        self._root, _ = build_upper_levels(self._seed_file, entries, self._fanout)

    def query(self, box: Box) -> list[SpatialObject]:
        extended = box.expand(self.max_extent).clamp(self._universe)
        seed = self._find_seed(extended)
        if seed is None:
            return []
        results: list[SpatialObject] = []
        examined = 0
        visited = {seed}
        frontier: deque[int] = deque([seed])
        while frontier:
            leaf = frontier.popleft()
            page = self._leaf_pages[leaf]
            for obj in read_page_records(self._leaf_file, page) if page >= 0 else []:
                examined += 1
                if obj.intersects(box):
                    results.append(obj)
            for neighbor in self.adjacency.get(leaf, ()):
                if neighbor in visited:
                    continue
                examined += 1
                if self.regions[neighbor].intersects(extended):
                    visited.add(neighbor)
                    frontier.append(neighbor)
        self._disk.charge_cpu_records(examined)
        return results

    def _find_seed(self, extended: Box) -> int | None:
        if self._root.child_is_leaf:
            return 0 if self.regions[0].intersects(extended) else None
        page_to_leaf = {page: index for index, page in enumerate(self._leaf_pages)}
        stack = [self._root.child_page]
        while stack:
            for entry in read_page_records(self._seed_file, stack.pop()):
                if not entry.box.intersects(extended):
                    continue
                if entry.child_is_leaf:
                    return page_to_leaf[entry.child_page]
                stack.append(entry.child_page)
        return None


@dataclass
class _CellState:
    runs: list[StoredRun] = field(default_factory=list)


class ReferenceGrid:
    """The seed uniform grid: per-object cell assignment into a dict buffer."""

    def __init__(
        self,
        disk: Disk,
        name: str,
        universe: Box,
        cells_per_dim: int | Sequence[int] = 16,
        build_buffer_objects: int = 100_000,
    ):
        self._disk = disk
        self._universe = universe
        self._cells_per_dim = (
            (cells_per_dim,) * universe.dimension
            if isinstance(cells_per_dim, int)
            else tuple(cells_per_dim)
        )
        self._build_buffer_objects = build_buffer_objects
        self._file = PagedFile(disk, f"grid/{name}.cells", spatial_object_codec(universe.dimension))
        self.cells: dict[int, _CellState] = {}
        self.max_extent: tuple[float, ...] = (0.0,) * universe.dimension

    def build(self, datasets: Sequence[Dataset]) -> None:
        buffer: dict[int, list[SpatialObject]] = {}
        buffered = 0
        n_objects = 0
        max_extent = [0.0] * self._universe.dimension
        for dataset in datasets:
            for obj in scan_objects(dataset):
                cell = child_index(self._universe, obj.center, self._cells_per_dim)
                buffer.setdefault(cell, []).append(obj)
                buffered += 1
                n_objects += 1
                for axis, extent in enumerate(obj.box.extents):
                    if extent > max_extent[axis]:
                        max_extent[axis] = extent
                if buffered >= self._build_buffer_objects:
                    self._flush(buffer)
                    buffer = {}
                    buffered = 0
        if buffered:
            self._flush(buffer)
        self._disk.charge_cpu_records(n_objects)
        self.max_extent = tuple(max_extent)

    def _flush(self, buffer: dict[int, list[SpatialObject]]) -> None:
        for cell in sorted(buffer):
            self.cells.setdefault(cell, _CellState()).runs.append(
                self._file.append_group(buffer[cell])
            )

    def query(self, box: Box) -> list[SpatialObject]:
        extended = box.expand(self.max_extent).clamp(self._universe)
        results: list[SpatialObject] = []
        examined = 0
        for cell in self._universe.grid_cells_overlapping(extended, self._cells_per_dim):
            state = self.cells.get(cell)
            for run in state.runs if state is not None else ():
                for obj in read_group(self._file, run):
                    examined += 1
                    if obj.intersects(box):
                        results.append(obj)
        self._disk.charge_cpu_records(examined)
        return results


# --------------------------------------------------------------------------- #
# The approaches
# --------------------------------------------------------------------------- #


class ReferenceOneForEach:
    """One reference index per dataset; each requested dataset answered once."""

    def __init__(self, catalog: DatasetCatalog, factory: Callable[[str], object], name: str):
        self._catalog = catalog
        self._factory = factory
        self.name = name
        self.indexes: dict[int, object] = {}

    def build(self) -> None:
        for dataset in self._catalog:
            index = self._factory(f"{self.name}_{dataset.name}")
            index.build([dataset])
            self.indexes[dataset.dataset_id] = index

    def query(self, box: Box, dataset_ids: Iterable[int]) -> list[SpatialObject]:
        results: list[SpatialObject] = []
        for dataset_id in dict.fromkeys(dataset_ids):
            self._catalog.get(dataset_id)
            results.extend(self.indexes[dataset_id].query(box))
        return results


class ReferenceAllInOne:
    """One reference index over every dataset; answers filtered by dataset id."""

    def __init__(self, catalog: DatasetCatalog, factory: Callable[[str], object], name: str):
        self._catalog = catalog
        self._factory = factory
        self.name = name
        self.index = None

    def build(self) -> None:
        self.index = self._factory(f"{self.name}_all")
        self.index.build(self._catalog.datasets())

    def query(self, box: Box, dataset_ids: Iterable[int]) -> list[SpatialObject]:
        requested = set(dataset_ids)
        for dataset_id in requested:
            self._catalog.get(dataset_id)
        return [obj for obj in self.index.query(box) if obj.dataset_id in requested]


class ReferenceBruteForce:
    """The seed oracle: scan every requested dataset's objects, test each."""

    name = "BruteForce"

    def __init__(self, catalog: DatasetCatalog) -> None:
        self._catalog = catalog

    def build(self) -> None:
        """Nothing to build."""

    def query(self, box: Box, dataset_ids: Iterable[int]) -> list[SpatialObject]:
        results: list[SpatialObject] = []
        for dataset_id in dict.fromkeys(dataset_ids):
            dataset = self._catalog.get(dataset_id)
            results.extend(obj for obj in scan_objects(dataset) if obj.intersects(box))
            dataset.disk.charge_cpu_records(dataset.n_objects)
        return results
