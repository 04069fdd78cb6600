"""The Adaptor: incremental indexing (Section 3.1 of the paper).

The Adaptor owns the two structural operations of Space Odyssey's
incremental index:

* **initial partitioning** — the first time a dataset is queried, its raw
  file is scanned once and every object is assigned (by its centre) to one
  of the ``ppl`` first-level partitions, which are written out to the
  dataset's partition file;
* **refinement** — after a query has executed, every leaf partition it hit
  whose volume exceeds ``rt`` times the query volume is split one level
  deeper.  Refinement is performed *in place*: the child partitions reuse
  the pages of the refined partition and only the overflow is appended at
  the end of the partition file (Section 3.1.2).

Both operations also maintain the per-dataset ``maxExtent`` needed by the
query-window extension technique.

A split costs what it moves — the parent's records and the children that
receive some, not ``ppl`` of everything: one sorted assignment, pages and
runs only for occupied children, no candidates chosen for a level the
budget will not run (``tests/test_refine_path.py`` counts).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import OdysseyConfig
from repro.core.partition import PartitionNode, PartitionTree
from repro.data.dataset import Dataset
from repro.geometry.box import Box


@dataclass(frozen=True, slots=True)
class RefinementOutcome:
    """What happened when a partition was considered for refinement."""

    refined: bool
    levels: int = 0
    reason: str = ""


class Adaptor:
    """Creates and refines the incremental per-dataset partition trees."""

    def __init__(self, config: OdysseyConfig) -> None:
        self._config = config

    @property
    def config(self) -> OdysseyConfig:
        """The engine configuration."""
        return self._config

    # ------------------------------------------------------------------ #
    # Initial partitioning
    # ------------------------------------------------------------------ #

    def create_tree(self, dataset: Dataset) -> PartitionTree:
        """A fresh, uninitialised partition tree for ``dataset``."""
        splits = self._config.splits_per_dimension(dataset.dimension)
        return PartitionTree(dataset, splits)

    def initialize(self, tree: PartitionTree) -> None:
        """First-level partitioning: one full scan of the raw file.

        This is the expensive first query the paper describes: the raw data
        is read sequentially, objects are assigned to the ``ppl`` uniform
        first-level partitions, and the partitions are written out
        sequentially to the partition file.  The scan arrives in
        structured-array chunks and the whole file is split by one sorted
        assignment (:meth:`PartitionTree.assign_array_to_children`).
        """
        if tree.is_initialized:
            raise RuntimeError(f"dataset {tree.dataset.name!r} is already initialised")
        dataset = tree.dataset
        empty = np.empty(0, dtype=tree.file.dtype)
        records = np.concatenate([empty, *dataset.scan_arrays()])
        max_extent = np.zeros(dataset.dimension, dtype=np.float64)
        if len(records):
            max_extent = (records["hi"] - records["lo"]).max(axis=0)
        groups = tree.assign_array_to_children(tree.universe, records)
        runs = tree.file.write_groups_array(groups)
        dataset.disk.charge_cpu_records(len(records))
        tree.install_first_level(
            groups=groups,
            runs=runs,
            max_extent=tuple(max_extent.tolist()),
            n_objects=len(records),
        )

    # ------------------------------------------------------------------ #
    # Refinement
    # ------------------------------------------------------------------ #

    def should_refine(self, node: PartitionNode, query: Box) -> bool:
        """The paper's refinement rule: ``V_partition / V_query > rt``."""
        return self._should_refine(node, query.volume())

    def _should_refine(self, node: PartitionNode, query_volume: float) -> bool:
        if query_volume <= 0:
            return False
        return node.volume() / query_volume > self._config.refinement_threshold

    def maybe_refine(
        self, tree: PartitionTree, node: PartitionNode, query: Box
    ) -> RefinementOutcome:
        """Refine ``node`` (up to ``refine_levels_per_query`` levels) if warranted.

        Empty partitions are never refined: splitting a partition with no
        objects only creates bookkeeping and disk traffic without ever
        reducing the data a future query must read.
        """
        if self._config.refine_levels_per_query == 0:
            return RefinementOutcome(refined=False, reason="refinement disabled")
        if not node.is_leaf:
            return RefinementOutcome(refined=False, reason="not a leaf")
        if node.n_objects == 0:
            return RefinementOutcome(refined=False, reason="empty partition")
        if node.level >= self._config.max_depth:
            return RefinementOutcome(refined=False, reason="max depth reached")
        query_volume = query.volume()
        if not self._should_refine(node, query_volume):
            return RefinementOutcome(refined=False, reason="below refinement threshold")

        levels = 0
        current: list[PartitionNode] = [node]
        while True:
            next_round: list[PartitionNode] = []
            for leaf in current:
                if (
                    not leaf.is_leaf
                    or leaf.n_objects == 0
                    or leaf.level >= self._config.max_depth
                    or not self._should_refine(leaf, query_volume)
                ):
                    continue
                next_round.extend(self.refine(tree, leaf))
            if not next_round:
                break
            levels += 1
            if levels == self._config.refine_levels_per_query:
                break  # budget spent: nobody needs the next level's candidates
            # Only the children that the query actually overlaps are
            # candidates for further refinement within the same query.
            current = [child for child in next_round if child.box.intersects(query)]
        return RefinementOutcome(refined=levels > 0, levels=levels)

    def refine(self, tree: PartitionTree, node: PartitionNode) -> list[PartitionNode]:
        """Split one leaf partition into ``ppl`` children, in place.

        Reads the partition, reassigns its records to the child regions by
        centre, and writes the children back reusing the parent's pages
        (appending any overflow pages at the end of the partition file) —
        read, assignment and write all on structured arrays.
        """
        if not node.is_leaf:
            raise ValueError(f"partition {node.key!r} is not a leaf")
        reuse = node.run.extents if node.run is not None else ()
        records = tree.read_partition_array(node)
        groups = tree.assign_array_to_children(node.box, records)
        runs = tree.file.write_groups_array(groups, reuse=reuse)
        tree.dataset.disk.charge_cpu_records(len(records))
        return tree.replace_with_children(node, runs)
