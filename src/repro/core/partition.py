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

Few of the ``ppl`` children of a split receive a record, so nothing here is
paid per child *slot* beyond creating the nodes: records are split by one
sort (:meth:`PartitionTree.assign_array_to_children`) and
:meth:`PartitionTree._splice` builds the successor snapshot and the key
summaries with a fixed number of bulk operations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import AbstractSet, Iterator, Sequence

import numpy as np

from repro.data.dataset import Dataset
from repro.data.spatial_object import SpatialObject, spatial_object_codec
from repro.geometry.box import Box
from repro.geometry.vectorized import (
    boxes_to_arrays,
    grid_child_indices,
    intersect_mask,
    intersect_matrix,
)
from repro.storage.pagedfile import PagedFile, StoredRun

#: A partition's identity: child indices along the path from the root.
PartitionKey = tuple[int, ...]


def partition_file_name(dataset_name: str) -> str:
    """Conventional name of a dataset's incremental partition file."""
    return f"odyssey/{dataset_name}.partitions"


@dataclass(eq=False, slots=True)
class PartitionNode:
    """One node of a partition tree.

    A node is either a *leaf* (it owns a stored group of objects, possibly
    empty) or an *internal* node with exactly ``ppl`` children.  Nodes are
    unique per key per tree, so they compare (and hash) by identity.
    """

    key: PartitionKey
    box: Box
    run: StoredRun | None = None
    children: list["PartitionNode"] | None = None
    hit_count: int = 0
    _volume: float | None = field(default=None, repr=False)

    @property
    def level(self) -> int:
        """Depth of the node (level 1 = the first, coarsest partitions)."""
        return len(self.key)

    @property
    def is_leaf(self) -> bool:
        """Whether the node currently stores objects itself."""
        return self.children is None

    @property
    def n_objects(self) -> int:
        """Number of objects stored in the node (0 for internal nodes)."""
        if self.run is None:
            return 0
        return self.run.n_records

    def volume(self) -> float:
        """Volume of the region the node covers (cached; the box never changes)."""
        if self._volume is None:
            self._volume = self.box.volume()
        return self._volume


@dataclass(frozen=True, slots=True)
class TreeEpochSnapshot:
    """A full immutable capture of one tree's read state for an epoch.

    :class:`LeafSnapshot` freezes the leaf *set* and MBR arrays but shares
    the (mutable) :class:`PartitionNode` objects — a later refinement
    nulls a captured leaf's ``run`` in place.  The epoch capture therefore
    also freezes every leaf's :class:`~repro.storage.pagedfile.StoredRun`
    at capture time, keyed by partition key (keys are permanent and never
    reassigned), plus everything a reader needs without touching the live
    tree: the window-extension parameters and the partition file handle.
    Captured under the adaptation lock, so all fields are mutually
    consistent.
    """

    version: int
    snapshot: LeafSnapshot
    run_by_key: dict[PartitionKey, StoredRun | None]
    max_extent: tuple[float, ...]
    universe: Box
    file: PagedFile

    def run_of(self, leaf: PartitionNode) -> StoredRun | None:
        """The leaf's stored run as of the capture (not the live one)."""
        return self.run_by_key[leaf.key]

    @property
    def runs(self) -> tuple[StoredRun | None, ...]:
        """The captured runs, parallel to ``snapshot.leaves``."""
        return tuple(self.run_by_key[leaf.key] for leaf in self.snapshot.leaves)

    def overlapping_batch(self, boxes: Sequence[Box]) -> list[list[PartitionNode]]:
        """Frozen-state :meth:`PartitionTree.leaves_overlapping_batch`.

        Runs the same ``intersect_matrix`` kernel over the captured MBR
        arrays, so it returns exactly the leaves (in exactly the order)
        the live tree would have returned at capture time — without
        touching the live tree's snapshot cache.
        """
        return self.snapshot.overlapping_batch(boxes)


@dataclass(frozen=True, slots=True)
class LeafSnapshot:
    """An immutable view of a tree's leaves with their MBRs as NumPy arrays.

    ``leaves`` are ordered exactly as the scalar depth-first search of
    :meth:`PartitionTree.leaves_overlapping` visits them, so a vectorized
    overlap test that filters this sequence produces the *same leaves in
    the same order* as the scalar walk — the property the batched query
    engine relies on to stay bit-identical with sequential execution.
    ``version`` records the tree structure version the snapshot was taken
    at; the tree replaces it with a spliced successor whenever a
    refinement changes the leaf set.

    ``lo`` and ``hi`` have shape ``(n, d)`` in **column-major** layout
    (fixed where the snapshot is built, :meth:`PartitionTree._splice`), so
    the per-axis slices the overlap kernels walk are contiguous; every
    consumer — live tree, pinned epoch, process workers — shares these
    arrays as they are.
    """

    version: int
    leaves: tuple[PartitionNode, ...]
    lo: np.ndarray
    hi: np.ndarray

    def overlapping_batch(self, boxes: Sequence[Box]) -> list[list[PartitionNode]]:
        """The leaves intersecting each of ``boxes``: one kernel call for all."""
        boxes = list(boxes)
        if not boxes:
            return []
        if not self.leaves:
            return [[] for _ in boxes]
        q_lo, q_hi = boxes_to_arrays(boxes, dimension=self.lo.shape[1])
        leaves = self.leaves
        return [
            [leaves[j] for j in np.nonzero(row)[0].tolist()]
            for row in intersect_matrix(q_lo, q_hi, self.lo, self.hi)
        ]


def _spliced(old: np.ndarray, start: int, stop: int, rows: np.ndarray) -> np.ndarray:
    """``old`` with rows ``[start, stop)`` replaced by ``rows``: a fresh column-major array."""
    end = start + len(rows)
    out = np.empty((end + len(old) - stop, old.shape[1]), dtype=old.dtype, order="F")
    out[:start] = old[:start]
    out[start:end] = rows
    out[end:] = old[stop:]
    return out


class PartitionTree:
    """The incremental index of one dataset.

    The tree does not decide *when* to refine — that is the Adaptor's job —
    but owns all structural bookkeeping: node lookup, overlap search, object
    assignment and the partition file.
    """

    def __init__(self, dataset: Dataset, splits_per_dim: int) -> None:
        if splits_per_dim < 2:
            raise ValueError("splits_per_dim must be >= 2")
        self._dataset = dataset
        self._splits = splits_per_dim
        self._universe = dataset.universe
        # Index into a (d, splits) array of per-axis cell edges that gathers
        # the (ppl, d) corners of a region's children in search order (the
        # stack pops the last child first); see `_splice`.
        shape = (splits_per_dim,) * dataset.dimension
        cells = np.indices(shape).reshape(len(shape), -1).T[::-1]
        self._child_corners = (np.arange(len(shape)), cells)
        codec = spatial_object_codec(dataset.dimension)
        self._file: PagedFile[SpatialObject] = PagedFile(
            dataset.disk, partition_file_name(dataset.name), codec
        )
        self._root_children: list[PartitionNode] | None = None
        self._nodes: dict[PartitionKey, PartitionNode] = {}
        self._max_extent: tuple[float, ...] = (0.0,) * dataset.dimension
        self._n_objects = 0
        self._version = 0
        # Read-side summaries maintained at write time (install/refine), so
        # no query ever re-walks the tree: the search-order snapshot, each
        # leaf's run by key, and the leaf keys as a real set (set-to-set
        # algebra reuses stored hashes; a dict's key view re-hashes).
        no_corners = np.empty((0, dataset.dimension), dtype=np.float64)
        self._leaf_snapshot = LeafSnapshot(version=0, leaves=(), lo=no_corners, hi=no_corners)
        self._run_by_key: dict[PartitionKey, StoredRun | None] = {}
        self._leaf_keys: set[PartitionKey] = set()

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
        return self._root_children is not None

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
        """Number of leaf partitions currently in the tree."""
        return len(self._leaf_keys)

    @property
    def version(self) -> int:
        """Structure version; bumped whenever the leaf set changes."""
        return self._version

    @property
    def depth(self) -> int:
        """Deepest leaf level (0 when uninitialised)."""
        if not self._nodes:
            return 0
        return max(node.level for node in self._nodes.values() if node.is_leaf)

    def node(self, key: PartitionKey) -> PartitionNode:
        """Look up a node by key."""
        try:
            return self._nodes[key]
        except KeyError:
            raise KeyError(f"no partition with key {key!r}") from None

    def has_leaf(self, key: PartitionKey) -> bool:
        """Whether ``key`` names an existing *leaf* partition."""
        return key in self._leaf_keys

    @property
    def leaf_keys(self) -> AbstractSet[PartitionKey]:
        """The keys of all current leaves: the tree's live set — do not mutate."""
        return self._leaf_keys

    def leaves(self) -> Iterator[PartitionNode]:
        """Iterate over all leaf partitions."""
        return (node for node in self._nodes.values() if node.is_leaf)

    # ------------------------------------------------------------------ #
    # Structure building (called by the Adaptor)
    # ------------------------------------------------------------------ #

    def child_box(self, parent_box: Box, child_index: int) -> Box:
        """The region of one child of a partition."""
        return parent_box.split_grid(self._splits)[child_index]

    def assign_to_children(
        self, parent_box: Box, objects: list[SpatialObject]
    ) -> list[list[SpatialObject]]:
        """Distribute objects to the ``ppl`` children of a region by centre."""
        groups: list[list[SpatialObject]] = [[] for _ in range(self.partitions_per_level)]
        for obj in objects:
            groups[parent_box.child_index(obj.center, self._splits)].append(obj)
        return groups

    def assign_array_to_children(
        self, parent_box: Box, records: np.ndarray
    ) -> list[np.ndarray]:
        """Columnar :meth:`assign_to_children` over structured record arrays.

        One kernel call gives every record's child, one *stable* sort by
        child reorders the records once, and one ``bincount`` says where
        each child starts: the groups are consecutive read-only slices of
        that one array.  Inside a child the records keep record order, so
        the groups are byte-identical to the scalar assignment; the cost is
        that of the records moved, whatever ``ppl`` is.
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
        self,
        groups: list[list[SpatialObject]],
        runs: list[StoredRun],
        max_extent: tuple[float, ...],
        n_objects: int,
    ) -> None:
        """Install the level-1 partitions produced by the initial raw scan."""
        if self.is_initialized:
            raise RuntimeError("partition tree is already initialised")
        if len(groups) != self.partitions_per_level:
            raise ValueError("expected one group per first-level partition")
        self._root_children = self._splice(0, 0, (), self._universe, runs)
        self._max_extent = max_extent
        self._n_objects = n_objects

    def replace_with_children(
        self, parent: PartitionNode, runs: list[StoredRun]
    ) -> list[PartitionNode]:
        """Turn a leaf into an internal node whose children own ``runs``."""
        if not parent.is_leaf:
            raise ValueError(f"partition {parent.key!r} is not a leaf")
        # The search stack visits an internal node's children exactly
        # where it used to visit the node itself.
        slot = self._leaf_snapshot.leaves.index(parent)
        parent.children = self._splice(slot, slot + 1, parent.key, parent.box, runs)
        parent.run = None
        del self._run_by_key[parent.key]
        self._leaf_keys.remove(parent.key)
        return parent.children

    def _splice(
        self, start: int, stop: int, prefix: PartitionKey, box: Box, runs: Sequence[StoredRun]
    ) -> list[PartitionNode]:
        """Put the children of ``box`` in place of slots ``[start, stop)`` of the search order.

        Creates the ``ppl`` child nodes (keys ``prefix + (i,)``, owning
        ``runs``), bumps the structure version, replaces the leaf snapshot
        with a spliced successor and enters the children into the key
        summaries — a fixed number of ``ppl``-sized operations, never a
        walk over the tree.  The children's corners are gathered, last
        child first, from the grid edges their boxes are built from (the
        same floats), and this is the one place the snapshot's corner
        arrays are laid out: written into a fresh column-major buffer.
        """
        if len(runs) != self.partitions_per_level:
            raise ValueError("expected one run per child partition")
        keys = [prefix + (index,) for index in range(len(runs))]
        children = list(map(PartitionNode, keys, box.split_grid(self._splits), runs))
        lows, highs = box.grid_edges(self._splits)
        old = self._leaf_snapshot
        self._version += 1
        self._leaf_snapshot = LeafSnapshot(
            version=self._version,
            leaves=old.leaves[:start] + tuple(children[::-1]) + old.leaves[stop:],
            lo=_spliced(old.lo, start, stop, np.array(lows)[self._child_corners]),
            hi=_spliced(old.hi, start, stop, np.array(highs)[self._child_corners]),
        )
        self._nodes.update(zip(keys, children))
        self._run_by_key.update(zip(keys, runs))
        self._leaf_keys.update(keys)
        return children

    # ------------------------------------------------------------------ #
    # Search
    # ------------------------------------------------------------------ #

    def leaves_overlapping(self, box: Box) -> list[PartitionNode]:
        """All leaf partitions whose region intersects ``box``."""
        if not self.is_initialized:
            raise RuntimeError("partition tree has not been initialised yet")
        results: list[PartitionNode] = []
        stack: list[PartitionNode] = [
            node for node in self._root_children or [] if node.box.intersects(box)
        ]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                results.append(node)
            else:
                stack.extend(
                    child for child in node.children or [] if child.box.intersects(box)
                )
        return results

    def leaf_snapshot(self) -> LeafSnapshot:
        """Leaves in scalar-search order, with their MBR corners as arrays.

        The leaves are ordered as the explicit-stack walk of
        :meth:`leaves_overlapping` visits them when nothing is pruned.
        Pruning a node from a stack DFS removes its whole subtree without
        reordering the remaining visits, so the scalar result for any
        query box is exactly this sequence filtered by the overlap
        predicate — which is what lets the vectorized path reproduce the
        scalar order.  The snapshot is built by the initial partitioning
        and spliced by every refinement, never re-derived from the tree;
        :attr:`version` ties it to the structure it describes.
        """
        if not self.is_initialized:
            raise RuntimeError("partition tree has not been initialised yet")
        return self._leaf_snapshot

    def epoch_snapshot(self) -> TreeEpochSnapshot:
        """Capture the tree's full read state for an engine epoch.

        Must be called under the adaptation lock (no concurrent
        refinement), so the captured runs are consistent with the
        captured leaf set.  The result shares the cached
        :class:`LeafSnapshot` and the live node objects but freezes every
        leaf's run — see :class:`TreeEpochSnapshot`.  The runs come from
        the by-key summary the tree keeps in step with its snapshot, so
        the capture is one dictionary copy, not a walk over the leaves.
        """
        return TreeEpochSnapshot(
            version=self._version,
            snapshot=self.leaf_snapshot(),
            run_by_key=dict(self._run_by_key),
            max_extent=self._max_extent,
            universe=self._universe,
            file=self._file,
        )

    def leaves_overlapping_vectorized(self, box: Box) -> list[PartitionNode]:
        """Vectorized :meth:`leaves_overlapping`: one kernel call over the snapshot.

        Returns exactly the leaves (in exactly the order) the scalar DFS
        walk produces, by filtering the cached search-order snapshot with
        one :func:`~repro.geometry.vectorized.intersect_mask` call — the
        sequential engine's per-query overlap test.
        """
        snapshot = self.leaf_snapshot()
        if not snapshot.leaves:
            return []
        leaves = snapshot.leaves
        mask = intersect_mask(box.lo, box.hi, snapshot.lo, snapshot.hi)
        return [leaves[j] for j in np.nonzero(mask)[0].tolist()]

    def leaves_overlapping_batch(self, boxes: Sequence[Box]) -> list[list[PartitionNode]]:
        """Leaf partitions intersecting each of ``boxes``, resolved in one kernel call.

        Returns one list per input box, each ordered identically to what
        :meth:`leaves_overlapping` would return for that box.
        """
        return self.leaf_snapshot().overlapping_batch(boxes)

    def read_partition(self, node: PartitionNode) -> list[SpatialObject]:
        """Read one leaf partition's objects from the partition file."""
        if not node.is_leaf:
            raise ValueError(f"partition {node.key!r} is not a leaf")
        if node.run is None or node.run.n_records == 0:
            return []
        return self._file.read_group(node.run)

    def read_partition_array(self, node: PartitionNode) -> np.ndarray:
        """Columnar :meth:`read_partition`: the leaf's records as a structured array."""
        if not node.is_leaf:
            raise ValueError(f"partition {node.key!r} is not a leaf")
        if node.run is None or node.run.n_records == 0:
            dtype = self._file.dtype
            assert dtype is not None  # spatial codecs always carry one
            return np.empty(0, dtype=dtype)
        return self._file.read_group_array(node.run)

    # ------------------------------------------------------------------ #
    # Diagnostics
    # ------------------------------------------------------------------ #

    def total_stored_objects(self) -> int:
        """Sum of objects over all leaves (should equal :attr:`n_objects`)."""
        return sum(node.n_objects for node in self.leaves())

    def describe(self) -> dict[str, int]:
        """A small structural summary used in reports and tests."""
        return {
            "n_objects": self._n_objects,
            "n_partitions": self.n_partitions,
            "depth": self.depth,
            "file_pages": self._file.num_pages(),
        }
