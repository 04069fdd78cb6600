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
runs only for occupied children, and a table row and nothing else for an
empty one (``tests/test_refine_path.py`` counts).  Leaves are rows of the
tree's leaf table, so which of a query's leaves to refine is one
expression over its columns (:meth:`Adaptor.candidates`).

The storage half of both operations — scan, assign, encode, write — is
one step run through :attr:`Adaptor.facts` (:mod:`repro.core.facts`):
an engine with a journal keeps each step's runs for the query's journal
entry, and recovery's fast path installs the journaled runs instead of
reading or writing a page.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.config import OdysseyConfig
from repro.core.facts import NO_FACTS
from repro.core.partition import LeafSnapshot, PartitionTree
from repro.data.dataset import Dataset
from repro.geometry.box import Box


def oversized(volume, query_volume: float, threshold: float):
    """The paper's refinement rule, ``V_partition / V_query > rt`` (scalars or arrays).

    The one predicate both sides of convergence read: the Adaptor refines
    a partition that is oversized for a query, and the Merger copies only
    partitions that are not oversized for a combination's average query.
    """
    return volume / query_volume > threshold


@dataclass(frozen=True, slots=True)
class RefinementOutcome:
    """What happened when a partition was considered for refinement."""

    refined: bool
    reason: str = ""


class Adaptor:
    """Creates and refines the incremental per-dataset partition trees."""

    def __init__(self, config: OdysseyConfig) -> None:
        self._config = config
        #: Runs the storage steps (:mod:`repro.core.facts`); set by the
        #: query processor.
        self.facts = NO_FACTS

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
        runs, max_extent, n_objects = self.facts.step(
            "init", tree.dataset.dataset_id, lambda: self._first_level(tree)
        )
        tree.install_first_level(runs, max_extent, n_objects)

    @staticmethod
    def _first_level(tree: PartitionTree) -> tuple:
        """Scan, assign and write: the first level's runs, max extent and object count."""
        dataset = tree.dataset
        empty = np.empty(0, dtype=tree.file.dtype)
        records = np.concatenate([empty, *dataset.scan_arrays()])
        max_extent = np.zeros(dataset.dimension, dtype=np.float64)
        if len(records):
            max_extent = (records["hi"] - records["lo"]).max(axis=0)
            # Every extended window is valid by construction only if this holds.
            if not (max_extent >= 0).all():
                raise ValueError(f"dataset {dataset.name!r} stores a NaN or inverted box")
        groups = tree.assign_array_to_children(tree.universe, records)
        runs = tree.file.write_groups_array(groups)
        dataset.disk.charge_cpu_records(len(records))
        return runs, tuple(max_extent.tolist()), len(records)

    # ------------------------------------------------------------------ #
    # Refinement
    # ------------------------------------------------------------------ #

    def candidates(self, table: LeafSnapshot, rows, query_volume: float) -> list[int]:
        """The rows among ``rows`` a query of ``query_volume`` makes :meth:`maybe_refine` split.

        ``rows`` are rows the query reads (:meth:`LeafSnapshot.occupied`),
        so each holds records.  One expression over the table's columns:
        the leaf is :func:`oversized` for the query and lies above
        ``max_depth``.  The volume test runs first, on every row: in a
        converged region no leaf passes it, and the rest is then skipped.
        In the order of ``rows``.  The caller computes the query's
        ``Box.volume()`` once for every tree it requests.
        """
        config = self._config
        if query_volume <= 0:
            return []
        rows = np.asarray(rows, dtype=np.int64)
        rows = rows[oversized(table.volume[rows], query_volume, config.refinement_threshold)]
        if not len(rows):
            return []
        return rows[table.level[rows] < config.max_depth].tolist()

    def candidates_batch(
        self, table: LeafSnapshot, rows: Sequence[np.ndarray], volumes: np.ndarray
    ) -> list:
        """:meth:`candidates` of every window of a batch on one tree, as one program.

        Window ``i`` reads ``rows[i]`` (one :meth:`LeafSnapshot.occupied`
        for the tree) and has query volume ``volumes[i]``.  The windows'
        rows are laid end to end, each row is tested against its own
        window's volume with the same expression (a window without a
        positive volume refines nothing: its volume becomes infinite), and
        the survivors are dealt back per window in row order: bit for bit
        the per-window calls' answer, for one set of array calls.  A window
        with no candidate gets an empty tuple.
        """
        config = self._config
        picked: list = [()] * len(rows)
        sizes = [len(window) for window in rows]
        flat = np.concatenate(rows)
        if not (volumes > 0).all():
            volumes = np.where(volumes > 0, volumes, np.inf)
        keep = oversized(table.volume[flat], volumes.repeat(sizes), config.refinement_threshold)
        if not keep.any():
            return picked
        owner = np.arange(len(rows)).repeat(sizes)[keep]
        flat = flat[keep]
        keep = table.level[flat] < config.max_depth
        for window, row in zip(owner[keep].tolist(), flat[keep].tolist()):
            if not picked[window]:
                picked[window] = []
            picked[window].append(row)
        return picked

    def maybe_refine(self, tree: PartitionTree, row: int, query: Box) -> RefinementOutcome:
        """Refine the leaf at ``row`` one level if warranted (Section 3.1).

        Empty partitions are never refined: splitting a partition with no
        objects only creates bookkeeping and disk traffic without ever
        reducing the data a future query must read.
        """
        config = self._config
        table = tree.leaf_snapshot()
        if table.n_records[row] == 0:
            return RefinementOutcome(refined=False, reason="empty partition")
        if table.level[row] >= config.max_depth:
            return RefinementOutcome(refined=False, reason="max depth reached")
        query_volume = query.volume()
        if query_volume <= 0 or not oversized(
            table.volume[row], query_volume, config.refinement_threshold
        ):
            return RefinementOutcome(refined=False, reason="below refinement threshold")
        self.refine(tree, row)
        return RefinementOutcome(refined=True)

    def refine(self, tree: PartitionTree, row: int) -> None:
        """Split the leaf at ``row`` into ``ppl`` children, in place.

        Reads the partition, reassigns its records to the child regions by
        centre, and writes the children back reusing the parent's pages
        (appending any overflow pages at the end of the partition file) —
        read, assignment and write all on structured arrays.  The children
        take the tree's next ``ppl`` rows and ``row`` is retired.
        """
        table = tree.leaf_snapshot()
        runs = self.facts.step(
            "refine",
            [tree.dataset.dataset_id, list(table.keys[row])],
            lambda: self._split(tree, table, row),
        )
        tree.replace_with_children(row, runs)

    @staticmethod
    def _split(tree: PartitionTree, table: LeafSnapshot, row: int) -> list:
        """Read, assign and write one leaf's records: its children's runs."""
        records = tree.read_partition_array(table.keys[row])
        groups = tree.assign_array_to_children(table.box(row), records)
        runs = tree.file.write_groups_array(groups, reuse=table.runs[row].extents)
        tree.dataset.disk.charge_cpu_records(len(records))
        return runs
