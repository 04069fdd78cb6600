"""The per-record reference engine: the seed implementation, kept as a model.

The engine in ``src/`` is columnar end to end — pages decode into NumPy
structured arrays, overlap resolution, filtering and partition assignment
are array kernels, and partition and merge files are written straight from
arrays.  This module keeps the original per-record path it replaced
(ROADMAP ground rule iv), and the differential, fuzz, kernel-guard and
refine-path tests hold every engine to it:

* :class:`ReferenceTree` — a partition tree of node objects, built from
  keys alone: internal nodes are key prefixes and every region is found
  from the universe through ``Box.grid_edges``.  It is the seed engine's
  own tree, and :func:`reference_tree` derives one from an engine tree's
  leaf keys to check the engine's leaf table against;
* :func:`leaves_overlapping` — the explicit-stack depth-first walk whose
  visiting order *defines* the search order of every leaf table;
* :func:`assign_to_children` and :func:`read_partition` — a split and a
  partition read on ``SpatialObject`` instances;
* :class:`ScalarAdaptor`, :class:`ScalarMerger` and :class:`ScalarProcessor`
  — first touch, refinement, merge copies and the whole per-query pipeline
  over the per-record storage surface below, with a Python loop as the
  filter;
* :class:`ScalarOdyssey` — a :class:`~repro.core.odyssey.SpaceOdyssey`
  whose adaptor, merger and query processor are those three, on
  :class:`ReferenceTree` objects.

The per-record storage surface left ``src/`` with the baselines' move onto
arrays; its helpers live here and every reference reads through them:
:func:`scan_objects` (a dataset's raw file, one sequential pass),
:func:`read_group`, :func:`read_page_records` and :func:`write_groups`,
each charging the disk exactly as the array surface does, and
:func:`child_index`, the per-point grid-cell assignment that
``grid_child_indices`` vectorises.  ``tests/baseline_reference.py`` holds
the per-object baselines on the same helpers.

Nothing here is reachable from ``src/``: no option, hook or environment
variable selects it.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.core.adaptor import Adaptor, RefinementOutcome
from repro.core.merge import MergeFileInfo, choose_route, merge_file_name
from repro.core.merger import Merger, MergeOutcome
from repro.core.odyssey import SpaceOdyssey
from repro.core.partition import PartitionKey, PartitionTree, partition_file_name
from repro.core.query_processor import QueryProcessor, QueryReport
from repro.data.spatial_object import SpatialObject, spatial_object_codec
from repro.geometry.box import Box
from repro.geometry.vectorized import grid_child_indices
from repro.obs.trace import maybe_span
from repro.storage import codec as page_codec
from repro.storage.pagedfile import PageExtent, PagedFile, StoredRun

# ---------------------------------------------------------------------- #
# The per-record storage surface
# ---------------------------------------------------------------------- #

#: Pages per sequential read of a raw-file scan (as ``scan_arrays``).
SCAN_CHUNK_PAGES = 256


def scan_objects(dataset) -> Iterator[SpatialObject]:
    """Yield a dataset's raw objects in page order, decoding page by page.

    The pages are read lazily, one ``read_run`` of up to
    :data:`SCAN_CHUNK_PAGES` pages when the previous chunk is used up, so
    a consumer that writes between objects interleaves its writes with the
    scan's reads exactly as a consumer of ``scan_arrays`` chunks does.
    """
    file = dataset.file
    if not file.exists():
        return
    total = file.num_pages()
    for start in range(0, total, SCAN_CHUNK_PAGES):
        count = min(SCAN_CHUNK_PAGES, total - start)
        for page_bytes in file.disk.read_run(file.name, start, count):
            yield from page_codec.decode_page(file.codec, page_bytes)


def run_start(run: StoredRun) -> int:
    """First page of a stored run (0 when empty), for on-disk-order planning."""
    return run.extents[0].start if run.extents else 0


def read_group(file: PagedFile, run: StoredRun) -> list:
    """Read one group's records as objects: one ``read_run`` per extent."""
    records: list = []
    for extent in run.extents:
        for page_bytes in file.disk.read_run(file.name, extent.start, extent.count):
            records.extend(page_codec.decode_page(file.codec, page_bytes))
    if len(records) < run.n_records:
        raise ValueError(
            f"group in {file.name!r} is corrupt: expected {run.n_records} "
            f"records, decoded {len(records)}"
        )
    return records[: run.n_records]


def read_page_records(file: PagedFile, page_no: int) -> list:
    """Decode every record of one page as objects (one ``read_page``)."""
    return page_codec.decode_page(file.codec, file.disk.read_page(file.name, page_no))


def write_groups(
    file: PagedFile, groups: Sequence[Sequence], reuse: Sequence[PageExtent] = ()
) -> list[StoredRun]:
    """Write groups of record objects, reusing ``reuse`` first.

    Each object is packed by the file's codec; the packed bytes are the
    rows ``write_groups_array`` places, so pages and runs are the ones the
    array path writes for the same records.
    """
    arrays = [
        np.frombuffer(b"".join(map(file.codec.pack, group)), dtype=file.dtype)
        for group in groups
    ]
    return file.write_groups_array(arrays, reuse)


def child_index(box: Box, point: Sequence[float], cells_per_dim: Sequence[int] | int) -> int:
    """Row-major index of the ``box.split_grid`` child containing ``point``."""
    counts = (cells_per_dim,) * box.dimension if isinstance(cells_per_dim, int) else cells_per_dim
    if len(point) != box.dimension:
        raise ValueError("point dimensionality mismatch")
    index = 0
    for axis, coord in enumerate(point):
        side = box.side(axis)
        if side == 0:
            cell = 0
        else:
            offset = (coord - box.lo[axis]) / side
            cell = int(offset * counts[axis])
            cell = min(max(cell, 0), counts[axis] - 1)
        index = index * counts[axis] + cell
    return index

# ---------------------------------------------------------------------- #
# The reference tree: node objects, derived from keys
# ---------------------------------------------------------------------- #

#: The run of a leaf that holds no records.
EMPTY_RUN = StoredRun(extents=(), n_records=0)


def child_box(parent: Box, index: int, splits: int) -> Box:
    """Child ``index`` of ``parent``'s regular grid (row-major), from its grid edges."""
    lows, highs = parent.grid_edges(splits)
    cells = np.unravel_index(index, (splits,) * parent.dimension)
    return Box(
        tuple(lows[axis][cell] for axis, cell in enumerate(cells)),
        tuple(highs[axis][cell] for axis, cell in enumerate(cells)),
    )


class ReferenceNode:
    """One node of a :class:`ReferenceTree`: a leaf owns a run, an internal node routes."""

    __slots__ = ("key", "box", "run", "children")

    def __init__(self, key: PartitionKey, box: Box, run: StoredRun | None = None) -> None:
        self.key = key
        self.box = box
        self.run = run
        self.children: list[ReferenceNode] | None = None

    @property
    def level(self) -> int:
        return len(self.key)

    @property
    def is_leaf(self) -> bool:
        return self.children is None

    @property
    def n_objects(self) -> int:
        return 0 if self.run is None else self.run.n_records

    def volume(self) -> float:
        return self.box.volume()


class ReferenceTree:
    """A partition tree of :class:`ReferenceNode` objects, one per key.

    The seed engine's tree: :class:`ScalarAdaptor` installs and splits it
    node by node, and :func:`reference_tree` builds one from the leaf keys
    of an engine tree.  It offers the two read surfaces the engine's merger
    uses (``leaf_keys``, ``volume``), each computed from the nodes.
    """

    def __init__(self, universe: Box, splits_per_dim: int, file: PagedFile | None = None,
                 dataset=None) -> None:
        self.universe = universe
        self.splits_per_dim = splits_per_dim
        self.file = file
        self.dataset = dataset
        self.nodes: dict[PartitionKey, ReferenceNode] = {}
        self.max_extent: tuple[float, ...] = (0.0,) * universe.dimension
        self.n_objects = 0

    @classmethod
    def from_keys(cls, universe: Box, splits_per_dim: int, runs: Mapping[PartitionKey, StoredRun],
                  file: PagedFile | None = None) -> "ReferenceTree":
        """The tree whose leaves are ``runs``' keys, each owning its run."""
        tree = cls(universe, splits_per_dim, file)
        for key in sorted(runs, key=len):
            for depth in range(1, len(key) + 1):
                prefix = key[:depth]
                if prefix not in tree.nodes:
                    parent = tree.nodes[prefix[:-1]].box if depth > 1 else universe
                    tree.nodes[prefix] = ReferenceNode(
                        prefix, child_box(parent, prefix[-1], splits_per_dim)
                    )
            tree.nodes[key].run = runs[key]
        ppl = tree.partitions_per_level
        for key, node in tree.nodes.items():
            if key not in runs:
                node.children = [tree.nodes[key + (index,)] for index in range(ppl)]
        return tree

    @property
    def partitions_per_level(self) -> int:
        return self.splits_per_dim**self.universe.dimension

    @property
    def is_initialized(self) -> bool:
        return bool(self.nodes)

    def node(self, key: PartitionKey) -> ReferenceNode:
        return self.nodes[key]

    def roots(self) -> list[ReferenceNode]:
        return [self.nodes[(index,)] for index in range(self.partitions_per_level)]

    def leaves(self) -> list[ReferenceNode]:
        """Every leaf, in the order the stack walk visits them (search order)."""
        order: list[ReferenceNode] = []
        stack = self.roots() if self.nodes else []
        while stack:
            node = stack.pop()
            if node.is_leaf:
                order.append(node)
            else:
                stack.extend(node.children)
        return order

    def split(self, node: ReferenceNode, runs: Sequence[StoredRun]) -> list[ReferenceNode]:
        """Give ``node`` (or the root, for ``None``) ``ppl`` children owning ``runs``."""
        prefix, box = ((), self.universe) if node is None else (node.key, node.box)
        children = [
            ReferenceNode(prefix + (index,), child_box(box, index, self.splits_per_dim), run)
            for index, run in enumerate(runs)
        ]
        self.nodes.update((child.key, child) for child in children)
        if node is not None:
            node.children, node.run = children, None
        return children

    # -- the surfaces the engine's merger and cost model read --------------- #

    @property
    def leaf_keys(self) -> set[PartitionKey]:
        return {key for key, node in self.nodes.items() if node.is_leaf}

    def volume(self, key: PartitionKey) -> float:
        return self.nodes[key].volume()

    def has_leaf(self, key: PartitionKey) -> bool:
        node = self.nodes.get(key)
        return node is not None and node.is_leaf

    @property
    def n_partitions(self) -> int:
        return len(self.leaf_keys)

    @property
    def depth(self) -> int:
        return max((node.level for node in self.nodes.values() if node.is_leaf), default=0)

    def total_stored_objects(self) -> int:
        return sum(node.n_objects for node in self.nodes.values() if node.is_leaf)


def reference_tree(tree) -> ReferenceTree:
    """A :class:`ReferenceTree` for ``tree``: itself, or derived from an engine tree's keys.

    An engine :class:`~repro.core.partition.PartitionTree` contributes its
    leaf-key set and its occupied-runs summary; structure, order, regions
    and levels come from the keys alone.
    """
    if isinstance(tree, ReferenceTree):
        return tree
    runs = {key: tree.occupied_runs.get(key, EMPTY_RUN) for key in tree.leaf_keys}
    return ReferenceTree.from_keys(tree.universe, tree.splits_per_dim, runs, tree.file)


def row_of(tree: PartitionTree, key: PartitionKey) -> int:
    """The row of ``key`` in an engine tree's current leaf table."""
    return tree.leaf_snapshot().keys.index(key)


def leaf_listing(tree) -> tuple:
    """``(n_partitions, depth, sorted (key, records, extents))``: comparable across tree kinds."""
    leaves = sorted(
        (leaf.key, leaf.n_objects, leaf.run.extents) for leaf in reference_tree(tree).leaves()
    )
    return tree.n_partitions, tree.depth, tuple(leaves)


# ---------------------------------------------------------------------- #
# Tree walks on objects
# ---------------------------------------------------------------------- #


def leaves_overlapping(tree, box: Box) -> list[ReferenceNode]:
    """All leaf partitions whose region intersects ``box``, by a stack walk.

    The first-level partitions are pushed in index order and popped last
    first, and so is every internal node's children: the order this walk
    visits leaves is the search order the leaf table is kept in.  An
    engine tree is walked through :func:`reference_tree`.
    """
    if not tree.is_initialized:
        raise RuntimeError("partition tree has not been initialised yet")
    tree = reference_tree(tree)
    stack = [node for node in tree.roots() if node.box.intersects(box)]
    results: list[ReferenceNode] = []
    while stack:
        node = stack.pop()
        if node.is_leaf:
            results.append(node)
        else:
            stack.extend(child for child in node.children if child.box.intersects(box))
    return results


def assign_to_children(
    tree, parent_box: Box, objects: list[SpatialObject]
) -> list[list[SpatialObject]]:
    """Distribute objects to the ``ppl`` children of a region by centre."""
    groups: list[list[SpatialObject]] = [[] for _ in range(tree.partitions_per_level)]
    for obj in objects:
        groups[child_index(parent_box, obj.center, tree.splits_per_dim)].append(obj)
    return groups


def reference_assign_array(
    parent_box: Box, records: np.ndarray, splits: int, ppl: int
) -> list[np.ndarray]:
    """The former array assignment: one boolean mask over the records per child slot."""
    if not len(records):
        return [records[:0] for _ in range(ppl)]
    centers = (records["lo"] + records["hi"]) / 2.0
    indices = grid_child_indices(centers, parent_box.lo, parent_box.hi, splits)
    return [records[indices == child] for child in range(ppl)]


def read_partition(tree, node: ReferenceNode) -> list[SpatialObject]:
    """Read one leaf partition's objects from the partition file."""
    if not node.is_leaf:
        raise ValueError(f"partition {node.key!r} is not a leaf")
    if node.run is None or node.run.n_records == 0:
        return []
    return read_group(tree.file, node.run)


# ---------------------------------------------------------------------- #
# The per-record components
# ---------------------------------------------------------------------- #


class ScalarAdaptor(Adaptor):
    """First touch and refinement one ``SpatialObject`` at a time, on node trees."""

    def create_tree(self, dataset) -> ReferenceTree:
        file = PagedFile(
            dataset.disk,
            partition_file_name(dataset.name),
            spatial_object_codec(dataset.dimension),
        )
        splits = self._config.splits_per_dimension(dataset.dimension)
        return ReferenceTree(dataset.universe, splits, file, dataset)

    def initialize(self, tree: ReferenceTree) -> None:
        if tree.is_initialized:
            raise RuntimeError(f"dataset {tree.dataset.name!r} is already initialised")
        dataset = tree.dataset
        groups: list[list[SpatialObject]] = [[] for _ in range(tree.partitions_per_level)]
        max_extent = [0.0] * dataset.dimension
        n_objects = 0
        for obj in scan_objects(dataset):
            index = child_index(tree.universe, obj.center, tree.splits_per_dim)
            groups[index].append(obj)
            n_objects += 1
            for axis, extent in enumerate(obj.box.extents):
                if extent > max_extent[axis]:
                    max_extent[axis] = extent
        runs = write_groups(tree.file, groups)
        dataset.disk.charge_cpu_records(n_objects)
        tree.split(None, runs)
        tree.max_extent = tuple(max_extent)
        tree.n_objects = n_objects

    def should_refine(self, node: ReferenceNode, query_volume: float) -> bool:
        """The paper's rule on a node: ``V_partition / V_query > rt``."""
        if query_volume <= 0:
            return False
        return node.volume() / query_volume > self._config.refinement_threshold

    def maybe_refine(
        self, tree: ReferenceTree, node: ReferenceNode, query: Box
    ) -> RefinementOutcome:
        """The seed rule on a node: split it one level when the query finds it oversized."""
        if node.n_objects == 0:
            return RefinementOutcome(refined=False, reason="empty partition")
        if node.level >= self._config.max_depth:
            return RefinementOutcome(refined=False, reason="max depth reached")
        if not self.should_refine(node, query.volume()):
            return RefinementOutcome(refined=False, reason="below refinement threshold")
        self.refine(tree, node)
        return RefinementOutcome(refined=True)

    def refine(self, tree: ReferenceTree, node: ReferenceNode) -> list[ReferenceNode]:
        if not node.is_leaf:
            raise ValueError(f"partition {node.key!r} is not a leaf")
        reuse = node.run.extents if node.run is not None else ()
        objects = read_partition(tree, node)
        runs = write_groups(tree.file, assign_to_children(tree, node.box, objects), reuse=reuse)
        tree.dataset.disk.charge_cpu_records(len(objects))
        return tree.split(node, runs)


class ScalarMerger(Merger):
    """Merge copies through the per-record surface: read objects, append objects."""

    def maybe_merge(
        self, combination: frozenset[int], trees: Mapping[int, PartitionTree]
    ) -> MergeOutcome:
        if len(combination) < self._config.min_merge_combination:
            return MergeOutcome()
        stats = self._statistics.combination_stats(combination)
        if stats is None:
            return MergeOutcome()
        if stats.count <= self._config.merge_threshold:
            return MergeOutcome()
        existing = self._directory.get(combination)
        merged = existing.entries if existing is not None else ()
        new_keys = sorted(self._qualifying_keys(combination, stats, trees, merged))
        if not new_keys:
            return MergeOutcome()
        budget = self._config.merge_space_budget_pages
        if budget is not None:
            # Key by key, every merge file's pages recounted: a key whose
            # copies would not fit is skipped.
            used = sum(run.n_pages for info in self._directory.all_files()
                       for per_dataset in info.entries.values() for run in per_dataset.values())
            fitting = []
            for key in new_keys:
                pages = sum(
                    trees[d].file.pages_needed(trees[d].node(key).n_objects) for d in combination
                )
                if used + pages <= budget:
                    fitting.append(key)
                    used += pages
            new_keys = fitting
            if not new_keys:
                return MergeOutcome()
        info = existing or MergeFileInfo(combination, merge_file_name(combination))
        file = self.merge_file(combination)
        for key in new_keys:
            for dataset_id in sorted(combination):
                tree = trees[dataset_id]
                run = file.append_group(read_partition(tree, tree.node(key)))
                info.add_segment(key, dataset_id, run)
        self._directory.register(info)
        self._merges_performed += 1
        return MergeOutcome(merged=True, combination=combination, new_partitions=len(new_keys))


class ScalarProcessor(QueryProcessor):
    """The seed per-query pipeline: stack walk, inline plan, Python filter loop."""

    def _execute(self, box: Box, dataset_ids: Iterable[int]) -> list[SpatialObject]:
        requested = frozenset(dataset_ids)
        if not requested:
            raise ValueError("a query must request at least one dataset")
        for dataset_id in requested:
            self._catalog.get(dataset_id)
        ordered = tuple(sorted(requested))
        report = QueryReport(query_index=self.queries_executed, requested=ordered)
        cache_start = self._disk.buffer_pool.counters()

        # 1. Lazy initialisation of partition trees (in-situ first touch).
        for dataset_id in ordered:
            if dataset_id not in self._trees:
                with maybe_span(self._tracer, "query.init_tree", dataset=dataset_id):
                    tree = self._adaptor.create_tree(self._catalog.get(dataset_id))
                    self._adaptor.initialize(tree)
                    self._trees[dataset_id] = tree
                report.initialized_datasets.append(dataset_id)

        # 2. The leaf partitions each dataset must read.
        needed: dict[int, list[ReferenceNode]] = {}
        for dataset_id in ordered:
            tree = self._trees[dataset_id]
            extended = box.expand(tree.max_extent).clamp(tree.universe)
            needed[dataset_id] = leaves_overlapping(tree, extended)

        # 3. Routing: merge file vs individual partition files.
        decision = choose_route(self._directory, requested)
        report.route = decision.kind.value

        # 4. Retrieval in on-disk order, then a filter loop over objects.
        accessed_keys: set[PartitionKey] = set()
        occupied: dict[int, list[ReferenceNode]] = {}
        merge_plan: list[tuple[int, StoredRun]] = []
        plan: list[tuple[int, PagedFile[SpatialObject], StoredRun]] = []
        info = decision.merge_info
        for dataset_id in ordered:
            leaves = needed[dataset_id]
            report.partitions_read += len(leaves)
            held = occupied[dataset_id] = [leaf for leaf in leaves if leaf.n_objects]
            # The statistics record the partitions read: no empty leaf.
            accessed_keys.update(leaf.key for leaf in held)
            if info is not None and dataset_id in decision.covered_datasets:
                merge_plan.extend(
                    (dataset_id, info.segment(leaf.key, dataset_id))
                    for leaf in leaves
                    if info.has_segment(leaf.key, dataset_id)
                )
                held = [leaf for leaf in held if not info.has_segment(leaf.key, dataset_id)]
            file = self._trees[dataset_id].file
            plan.extend(
                (dataset_id, file, run)
                for run in sorted((leaf.run for leaf in held), key=run_start)
            )
        if merge_plan:
            merge_file = self._merger.merge_file(info.combination)
            merge_plan.sort(key=lambda item: run_start(item[1]))
            report.partitions_from_merge = len(merge_plan)
            plan[:0] = [(dataset_id, merge_file, run) for dataset_id, run in merge_plan]
        results: list[SpatialObject] = []
        examined = 0
        for dataset_id, file, run in plan:
            for obj in read_group(file, run):
                examined += 1
                if obj.dataset_id == dataset_id and obj.intersects(box):
                    results.append(obj)
        self._disk.charge_cpu_records(examined)
        report.objects_examined = examined
        report.results = len(results)

        # 5. Refinement of over-sized hit partitions.
        for dataset_id in ordered:
            tree = self._trees[dataset_id]
            for leaf in occupied[dataset_id]:
                if self._adaptor.maybe_refine(tree, leaf, box).refined:
                    report.refinements += 1

        # 6. Statistics, then merging.
        self._statistics.record_query(requested, accessed_keys, query_volume=box.volume())
        merge_outcome = self._merger.maybe_merge(requested, self._trees)
        report.merged = merge_outcome.merged
        report.merge_new_partitions = merge_outcome.new_partitions
        report.cache = self._disk.buffer_pool.counters().delta_since(cache_start)
        self.note_executed(report)
        return results


class ScalarOdyssey(SpaceOdyssey):
    """A Space Odyssey engine that runs the per-record reference path.

    The three scalar classes add no state, so the components the facade
    wires up are re-classed in place: one adaptive state, wired as usual,
    computed the seed's way.  Sequential ``query()`` runs the reference
    pipeline; the batched paths are the engine's own and are not part of
    the reference.
    """

    def __init__(self, catalog, config=None) -> None:
        super().__init__(catalog, config)
        self._adaptor.__class__ = ScalarAdaptor
        self._merger.__class__ = ScalarMerger
        self._processor.__class__ = ScalarProcessor
