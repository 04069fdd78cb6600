"""Incremental space-oriented partition trees.

Each dataset queried through Space Odyssey gets a :class:`PartitionTree` — a
generalized Octree whose nodes cover regular grid subdivisions of the
universe.  Leaves own a group of object records in the dataset's partition
file; internal nodes only route.  Trees start with a single unindexed state
and are populated lazily: the Adaptor creates the first level when the
dataset is first queried and refines leaves one level at a time afterwards.

Partition identity
------------------
A partition is identified by its *key*: the tuple of child indices on the
path from the root.  Because every dataset shares the same universe and the
same per-level split factor, equal keys denote the *same spatial region* in
every dataset — this is what lets the Merger recognise "the same partition"
across datasets and merge only partitions at the same refinement level
(equal key length).

The leaf table
--------------
A tree keeps no node objects.  Its state is one table with a row per
region it has ever had as a leaf, whose columns are the key, the stored
run, the record count, the level, the volume and the corners.  Internal
nodes exist only as key prefixes.  The table only grows: a split appends
``ppl`` rows built from the grid edges of the parent's corners
(:meth:`PartitionTree._append`) to capacity-managed columns and *retires*
the parent's row in place, so rows never move, an empty child costs a
row and nothing else, and overlap kernels, refinement candidates and
read plans are expressions over columns at row indices.  Records are
split by one sort (:meth:`PartitionTree.assign_array_to_children`).  Two
key summaries are kept alongside the table for lookups by key: the set
of leaf keys and the runs of the leaves that hold records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import AbstractSet, Mapping, Sequence

import numpy as np

from repro.data.dataset import Dataset
from repro.data.spatial_object import SpatialObject, spatial_object_codec
from repro.geometry.box import Box
from repro.geometry.vectorized import grid_child_indices, intersect_mask, intersect_matrix
from repro.storage.pagedfile import _EMPTY_RUN, PagedFile, StoredRun

#: A partition's identity: child indices along the path from the root.
PartitionKey = tuple[int, ...]


def partition_file_name(dataset_name: str) -> str:
    """Conventional name of a dataset's incremental partition file."""
    return f"odyssey/{dataset_name}.partitions"


@dataclass(frozen=True, slots=True)
class LeafSnapshot:
    """A tree's leaf table at one structure version: its first ``len(self)`` rows.

    Rows are in *append order*: the first-level partitions, then each
    split's ``ppl`` children, the last child first.  A split also
    *retires* its parent's row: an empty box (``lo`` = +inf, ``hi`` =
    -inf), 0 records and the shared empty run, its key kept in ``keys``
    but gone from :attr:`PartitionTree.leaf_keys`.  No closed-box overlap
    test selects an empty box, so the kernels skip retired rows with no
    mask term of their own, and a row changes only when it is retired.
    Overlap calls return rows ascending; the *search order* of the seed's
    stack walk (children pushed in index order, the last popped first) is
    key order, descending, because no leaf key is a prefix of another —
    the order the writer half refines a query's candidates in.  Nothing
    else depends on row order: a plan reads in on-disk order.

    ``version`` records the tree structure version the table was taken
    at.  The live tree's snapshots share its columns (the newest is the
    one to read); an epoch holds a frozen copy
    (:meth:`PartitionTree.epoch_snapshot`).  The columns: ``keys`` and
    ``runs`` (lists of :data:`PartitionKey` and
    :class:`~repro.storage.pagedfile.StoredRun`, which may run past the
    table's rows), and, of length ``n``, ``n_records`` and ``level``
    (integers), ``volume`` (each region's volume, equal bit for bit to
    ``Box.volume()`` of its corners) and the corners ``lo``/``hi`` of
    shape ``(n, d)`` in **column-major** layout, so the per-axis slices
    the overlap kernels walk are contiguous.
    """

    version: int
    keys: list[PartitionKey]
    runs: list[StoredRun]
    n_records: np.ndarray
    level: np.ndarray
    volume: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    def __len__(self) -> int:
        return len(self.n_records)

    def box(self, row: int) -> Box:
        """The region of one row, built from its corners (the grid-edge floats)."""
        return Box(tuple(self.lo[row].tolist()), tuple(self.hi[row].tolist()))

    def overlapping_batch(self, lo: np.ndarray, hi: np.ndarray) -> list[np.ndarray]:
        """The rows intersecting each ``(m, d)`` window row: one kernel call for all.

        One ``nonzero`` over the flattened ``(m, n)`` matrix lists the
        pairs window by window, rows ascending, and one split deals them
        out (a two-dimensional ``nonzero`` costs several times more).
        """
        n = len(self.n_records)
        pairs = intersect_matrix(lo, hi, self.lo, self.hi).ravel().nonzero()[0]
        bounds = np.searchsorted(pairs, np.arange(len(lo) + 1) * n).tolist()
        rows = pairs % n
        return [rows[start:stop] for start, stop in zip(bounds, bounds[1:])]

    def occupied(self, rows: Sequence[np.ndarray]) -> list[np.ndarray]:
        """The rows of each window's ``rows`` that hold records: what a query reads.

        The one selection the read plan, the statistics and the refinement
        candidates share.  The windows are laid end to end, one mask keeps
        the occupied rows, and one cumulative count deals them back per
        window, in row order.
        """
        if len(rows) == 1:
            return [rows[0][self.n_records[rows[0]] > 0]]
        flat = np.concatenate(rows)
        keep = self.n_records[flat] > 0
        bounds = np.concatenate(([0], np.cumsum(keep)))[np.cumsum([0] + list(map(len, rows)))]
        flat = flat[keep]
        return [flat[start:stop] for start, stop in zip(bounds.tolist(), bounds[1:].tolist())]


@dataclass(frozen=True, slots=True)
class TreeEpochSnapshot:
    """A full immutable capture of one tree's read state for an epoch.

    A split retires a row of the live table in place, so the capture
    holds a frozen copy of the table of the moment — runs included — plus
    everything a reader needs without touching the live tree: the
    window-extension parameters and the partition file handle.  Captured
    under the adaptation lock, so all fields are mutually consistent.
    """

    snapshot: LeafSnapshot
    max_extent: tuple[float, ...]
    universe: Box
    file: PagedFile

    def overlapping_batch(self, lo: np.ndarray, hi: np.ndarray) -> list[np.ndarray]:
        """Frozen-state :meth:`PartitionTree.leaves_overlapping_batch`.

        Runs the same ``intersect_matrix`` kernel over the captured
        table, so it returns exactly the rows the live tree would have
        returned at capture time.
        """
        return self.snapshot.overlapping_batch(lo, hi)


class PartitionTree:
    """The incremental index of one dataset.

    The tree does not decide *when* to refine — that is the Adaptor's job —
    but owns all structural bookkeeping: the leaf table, the key
    summaries, object assignment and the partition file.
    """

    def __init__(self, dataset: Dataset, splits_per_dim: int) -> None:
        if splits_per_dim < 2:
            raise ValueError("splits_per_dim must be >= 2")
        self._dataset = dataset
        self._splits = splits_per_dim
        self._universe = dataset.universe
        # Index into a (d, splits) array of per-axis cell edges that gathers
        # the (ppl, d) corners of a region's children in search order (the
        # stack pops the last child first), and the key suffixes of the
        # children in that order; see `_append`.  `_child_cells[i]` is the
        # grid cell of child i (row-major), for lookups by key.
        shape = (splits_per_dim,) * dataset.dimension
        cells = np.indices(shape).reshape(len(shape), -1).T
        self._child_cells = tuple(tuple(enumerate(cell)) for cell in cells.tolist())
        self._child_corners = (np.arange(len(shape)), cells[::-1])
        self._child_suffixes = tuple((index,) for index in range(len(cells) - 1, -1, -1))
        codec = spatial_object_codec(dataset.dimension)
        self._file: PagedFile[SpatialObject] = PagedFile(
            dataset.disk, partition_file_name(dataset.name), codec
        )
        self._max_extent: tuple[float, ...] = (0.0,) * dataset.dimension
        self._n_objects = 0
        self._version = 0
        # Read-side summaries maintained at write time (install/refine), so
        # no query ever re-walks the tree: the leaf table's columns (the
        # arrays' first `_rows` rows are the table, the rest is capacity),
        # the leaf keys as a real set (set-to-set algebra reuses stored
        # hashes; a dict's key view re-hashes) and the runs of the leaves
        # that hold records, by key.
        self._rows = 0
        self._keys: list[PartitionKey] = []
        self._runs: list[StoredRun] = []
        self._n_records = np.empty(0, dtype=np.int64)
        self._level = np.empty(0, dtype=np.int64)
        self._volume = np.empty(0, dtype=np.float64)
        self._lo = self._hi = np.empty((0, dataset.dimension), dtype=np.float64, order="F")
        self._leaf_snapshot = self._table()
        self._leaf_keys: set[PartitionKey] = set()
        self._occupied_runs: dict[PartitionKey, StoredRun] = {}
        self._edges: dict[PartitionKey, tuple[list[list[float]], list[list[float]]]] = {}

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def dataset(self) -> Dataset:
        """The dataset this tree indexes."""
        return self._dataset

    @property
    def universe(self) -> Box:
        """The indexed space."""
        return self._universe

    @property
    def splits_per_dim(self) -> int:
        """Per-dimension split factor (``ppl ** (1/d)``)."""
        return self._splits

    @property
    def partitions_per_level(self) -> int:
        """Children per refined partition (``ppl``)."""
        return self._splits**self._universe.dimension

    @property
    def file(self) -> PagedFile[SpatialObject]:
        """The partition file the tree's leaves live in."""
        return self._file

    @property
    def is_initialized(self) -> bool:
        """Whether the first-level partitioning has been performed."""
        return self._version > 0  # the first level is version 1

    @property
    def max_extent(self) -> tuple[float, ...]:
        """Maximum object extent per dimension (for query-window extension)."""
        return self._max_extent

    @property
    def n_objects(self) -> int:
        """Number of objects indexed by the tree."""
        return self._n_objects

    @property
    def n_partitions(self) -> int:
        """Number of leaf partitions currently in the tree (the table's live rows)."""
        return len(self._leaf_keys)

    @property
    def version(self) -> int:
        """Structure version; bumped whenever the leaf set changes."""
        return self._version

    @property
    def depth(self) -> int:
        """Deepest leaf level (0 when uninitialised)."""
        level = self._leaf_snapshot.level
        return int(level.max()) if len(level) else 0

    @property
    def leaf_keys(self) -> AbstractSet[PartitionKey]:
        """The keys of all current leaves: the tree's live set — do not mutate."""
        return self._leaf_keys

    @property
    def occupied_runs(self) -> Mapping[PartitionKey, StoredRun]:
        """The runs of the leaves that hold records, by key: live — do not mutate."""
        return self._occupied_runs

    def volume(self, key: PartitionKey) -> float:
        """The volume of the region ``key`` names, equal to its row's bit for bit.

        Child ``i`` is cell ``i``, in row-major order, of its parent's
        :meth:`Box.grid_edges` — the floats the rows are gathered from —
        and its sides multiply left to right, as ``Box.volume()`` does.
        """
        lows, highs = self._grid_edges(key[:-1])
        cells = self._child_cells[key[-1]]
        return math.prod(highs[axis][cell] - lows[axis][cell] for axis, cell in cells)

    def _grid_edges(self, prefix: PartitionKey) -> tuple[list[list[float]], list[list[float]]]:
        """The grid edges of the region ``prefix`` names, from the universe down.

        Remembered per prefix: the merger asks for the volumes of the same
        few hundred keys query after query, and they share their parents.
        """
        edges = self._edges.get(prefix)
        if edges is None:
            box = self._universe
            if prefix:
                lows, highs = self._grid_edges(prefix[:-1])
                cells = self._child_cells[prefix[-1]]
                box = Box(tuple(lows[a][c] for a, c in cells), tuple(highs[a][c] for a, c in cells))
            edges = self._edges[prefix] = box.grid_edges(self._splits)
        return edges

    # ------------------------------------------------------------------ #
    # Structure building (called by the Adaptor)
    # ------------------------------------------------------------------ #

    def assign_array_to_children(
        self, parent_box: Box, records: np.ndarray
    ) -> list[np.ndarray]:
        """Distribute structured records to the ``ppl`` children of a region by centre.

        One kernel call gives every record's child, one *stable* sort by
        child reorders the records once, and one ``bincount`` says where
        each child starts: the groups are consecutive read-only slices of
        that one array.  Inside a child the records keep record order; the
        cost is that of the records moved, whatever ``ppl`` is.
        """
        centers = (records["lo"] + records["hi"]) / 2.0
        indices = grid_child_indices(
            centers, parent_box.lo, parent_box.hi, self._splits
        )
        ordered = records[np.argsort(indices, kind="stable")]
        ordered.setflags(write=False)
        ends = np.cumsum(np.bincount(indices, minlength=self.partitions_per_level)).tolist()
        return [ordered[start:end] for start, end in zip([0] + ends, ends)]

    def install_first_level(
        self, runs: Sequence[StoredRun], max_extent: tuple[float, ...], n_objects: int
    ) -> None:
        """Install the level-1 partitions produced by the initial raw scan."""
        if self.is_initialized:
            raise RuntimeError("partition tree is already initialised")
        self._append((), self._universe, runs)
        self._max_extent = max_extent
        self._n_objects = n_objects

    def replace_with_children(self, row: int, runs: Sequence[StoredRun]) -> None:
        """Turn the leaf at ``row`` into ``ppl`` children owning ``runs`` (child order).

        The children take the next ``ppl`` rows, the last child first, and
        the parent's row is retired: an empty box no overlap test selects,
        0 records and the shared empty run.  No other row changes.
        """
        key = self._keys[row]
        self._append(key, self._leaf_snapshot.box(row), runs)
        self._runs[row] = _EMPTY_RUN
        self._n_records[row] = 0
        self._lo[row], self._hi[row] = np.inf, -np.inf
        self._leaf_keys.remove(key)
        self._occupied_runs.pop(key, None)

    def _append(self, prefix: PartitionKey, box: Box, runs: Sequence[StoredRun]) -> None:
        """Append the children of ``box`` to the table as its next ``ppl`` rows.

        Builds the ``ppl`` child rows (keys ``prefix + (i,)``, owning
        ``runs``), bumps the structure version, takes the successor table
        and enters the children into the key summaries — a fixed number
        of ``ppl``-sized operations, never a walk over the tree, and no
        object per child beyond its key.  A full column doubles
        (:meth:`_grow`), so an append is amortised O(``ppl``).  The
        children's corners are gathered, last child first, from the grid
        edges of ``box``.  Volumes multiply the per-axis sides left to
        right, ``math.prod``'s order, so each equals ``Box.volume()`` of
        its corners.
        """
        ppl = self.partitions_per_level
        if len(runs) != ppl:
            raise ValueError("expected one run per child partition")
        lo, hi = np.array(box.grid_edges(self._splits))[(slice(None),) + self._child_corners]
        sides = hi - lo
        volume = sides[:, 0].copy()
        for axis in range(1, sides.shape[1]):
            volume *= sides[:, axis]
        keys = tuple(map(prefix.__add__, self._child_suffixes))
        ordered = runs[::-1]
        start = self._rows
        stop = self._rows = start + ppl
        if stop > len(self._volume):
            self._grow(stop)
        self._keys += keys
        self._runs += ordered
        n_records = self._n_records[start:stop]
        n_records[:] = [run.n_records for run in ordered]
        self._level[start:stop] = len(prefix) + 1
        self._volume[start:stop] = volume
        self._lo[start:stop] = lo
        self._hi[start:stop] = hi
        self._version += 1
        self._leaf_snapshot = self._table()
        self._leaf_keys.update(keys)
        occupied = np.flatnonzero(n_records).tolist()
        self._occupied_runs.update((keys[child], ordered[child]) for child in occupied)

    def _grow(self, rows: int) -> None:
        """Reallocate the array columns for at least ``rows`` rows, doubling at least.

        The one place the columns are laid out: the corners go into
        column-major buffers, so every view of their first rows keeps
        contiguous per-axis slices.
        """
        capacity = max(rows, 2 * len(self._volume))
        columns = []
        for old in (self._n_records, self._level, self._volume, self._lo, self._hi):
            new = np.empty((capacity,) + old.shape[1:], dtype=old.dtype, order="F")
            new[: len(old)] = old
            columns.append(new)
        self._n_records, self._level, self._volume, self._lo, self._hi = columns

    def _table(self) -> LeafSnapshot:
        """The current table: views of the columns' first rows."""
        rows = self._rows
        return LeafSnapshot(
            self._version,
            self._keys,
            self._runs,
            self._n_records[:rows],
            self._level[:rows],
            self._volume[:rows],
            self._lo[:rows],
            self._hi[:rows],
        )

    # ------------------------------------------------------------------ #
    # Search
    # ------------------------------------------------------------------ #

    def leaf_snapshot(self) -> LeafSnapshot:
        """The leaf table: one row per leaf, and one per retired parent.

        An overlap test that filters the rows yields every leaf the
        seed's stack walk would, whatever the query window (retired rows
        are never selected); sorted by key, descending, they are in the
        walk's order.  The table is built by the initial partitioning and
        appended to by every refinement, never re-derived from the tree;
        :attr:`version` ties it to the structure it describes.
        """
        if not self.is_initialized:
            raise RuntimeError("partition tree has not been initialised yet")
        return self._leaf_snapshot

    def epoch_snapshot(self) -> TreeEpochSnapshot:
        """Capture the tree's full read state for an engine epoch.

        Must be called under the adaptation lock (no concurrent
        refinement).  A later split retires a row of the live columns in
        place, so the capture is a frozen copy of the current table, O(rows)
        per publish of a changed tree — see :class:`TreeEpochSnapshot`.
        """
        table = self.leaf_snapshot()
        columns = (table.n_records, table.level, table.volume, table.lo, table.hi)
        return TreeEpochSnapshot(
            snapshot=LeafSnapshot(
                table.version,
                table.keys[: len(table)],
                table.runs[: len(table)],
                *(column.copy(order="F") for column in columns),
            ),
            max_extent=self._max_extent,
            universe=self._universe,
            file=self._file,
        )

    def leaves_overlapping_vectorized(self, box: Box) -> np.ndarray:
        """The rows of the leaves intersecting ``box``, ascending.

        One :func:`~repro.geometry.vectorized.intersect_mask` call filters
        the current table — the sequential engine's per-query overlap
        test, and the batch replay's after a refinement.
        """
        table = self.leaf_snapshot()
        return np.flatnonzero(intersect_mask(box.lo, box.hi, table.lo, table.hi))

    def leaves_overlapping_batch(self, lo: np.ndarray, hi: np.ndarray) -> list[np.ndarray]:
        """Rows of the leaves intersecting each window, in one kernel call.

        ``lo``/``hi`` hold one window per row, shape ``(m, d)``.  Returns
        one array per window, each what :meth:`leaves_overlapping_vectorized`
        returns for that window's box.
        """
        return self.leaf_snapshot().overlapping_batch(lo, hi)

    def read_partition_array(self, key: PartitionKey) -> np.ndarray:
        """Read one leaf partition's records, by key, as a structured array."""
        if key not in self._leaf_keys:
            raise ValueError(f"partition {key!r} is not a leaf")
        run = self._occupied_runs.get(key)
        if run is None:
            dtype = self._file.dtype
            assert dtype is not None  # spatial codecs always carry one
            return np.empty(0, dtype=dtype)
        return self._file.read_group_array(run)

    # ------------------------------------------------------------------ #
    # Diagnostics
    # ------------------------------------------------------------------ #

    def total_stored_objects(self) -> int:
        """Sum of objects over all leaves (should equal :attr:`n_objects`)."""
        return int(self._leaf_snapshot.n_records.sum())
