"""The Merger: physical co-location of hot partitions (Section 3.2).

Once a combination of datasets has been retrieved together more than ``mt``
times (and contains at least ``min_merge_combination`` datasets), the
Merger copies the partitions those queries read into the combination's
append-only merge file:

* one policy, with no setting, decides which (the repo's answer to the
  paper's open issue of merging at the right moment): a partition that two
  of the combination's queries read (so it holds records in some member),
  once its volume has converged for their average query;
* for every qualifying partition region it stores the objects of each
  member dataset as a separate, sequential segment, so future queries can
  read any subset of the merged datasets sequentially and skip the rest;
* only partitions at the same refinement level in *all* member datasets are
  merged (equal partition keys guarantee this);
* the originals are kept — merge files hold copies.

A space budget (``merge_space_budget_pages``) is this repository's
addition, not one of Section 3.2's rules, and it is a bound: a merge
keeps, in key order, only the keys whose copies still fit under it and
skips the rest, so no file is ever deleted (README: "The merge space
budget, swept against its keep-condition").  A budget of 0 pages is the
engine without merging.

The Merger is incremental: if a hot combination later touches partitions
that are not yet in its merge file, they are appended (the file is
append-only, as in the paper).

The copies of one merge are one storage step run through
:attr:`Merger.facts` (:mod:`repro.core.facts`): an engine with a journal
keeps their segment runs for the query's journal entry, and recovery's
fast path registers the journaled runs without reading or appending a
page.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Mapping

from repro.core.adaptor import oversized
from repro.core.config import OdysseyConfig
from repro.core.facts import NO_FACTS, FactMismatch
from repro.core.merge import MergeDirectory, MergeFileInfo, merge_file_name
from repro.core.partition import PartitionKey, PartitionTree
from repro.core.statistics import Combination, CombinationStats, StatisticsCollector
from repro.data.spatial_object import SpatialObject, spatial_object_codec
from repro.storage.disk import Disk
from repro.storage.pagedfile import PagedFile


@dataclass(frozen=True, slots=True)
class MergeOutcome:
    """What the Merger did in response to one query's statistics update."""

    merged: bool = False
    combination: Combination = frozenset()
    new_partitions: int = 0


class Merger:
    """Creates and extends merge files."""

    def __init__(
        self,
        disk: Disk,
        config: OdysseyConfig,
        directory: MergeDirectory,
        statistics: StatisticsCollector,
        dimension: int,
    ) -> None:
        self._disk = disk
        self._config = config
        self._directory = directory
        self._statistics = statistics
        self._codec = spatial_object_codec(dimension)
        self._open_files: dict[Combination, PagedFile[SpatialObject]] = {}
        self._merges_performed = 0
        #: Runs the storage steps (:mod:`repro.core.facts`); set by the
        #: query processor.
        self.facts = NO_FACTS

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def merges_performed(self) -> int:
        """Number of merge operations (file creations or extensions)."""
        return self._merges_performed

    def merge_file(self, combination: Combination) -> PagedFile[SpatialObject]:
        """The paged file of a combination's merge file (opened lazily)."""
        file = self._open_files.get(combination)
        if file is None:
            file = PagedFile(self._disk, merge_file_name(combination), self._codec)
            self._open_files[combination] = file
        return file

    # ------------------------------------------------------------------ #
    # Merging
    # ------------------------------------------------------------------ #

    def maybe_merge(
        self,
        combination: Combination,
        trees: Mapping[int, PartitionTree],
    ) -> MergeOutcome:
        """Merge the combination's hot partitions if the trigger conditions hold."""
        budget = self._config.merge_space_budget_pages
        # Exact: a hot key holds records, so its copy takes a page.
        if budget is not None and self._directory.total_pages() >= budget:
            return MergeOutcome()
        if len(combination) < self._config.min_merge_combination:
            return MergeOutcome()
        stats = self._statistics.combination_stats(combination)
        if stats is None or stats.count <= self._config.merge_threshold:
            return MergeOutcome()
        existing = self._directory.get(combination)
        merged = existing.entries if existing is not None else ()
        new_keys = sorted(self._qualifying_keys(combination, stats, trees, merged))
        members = sorted(combination)
        if new_keys and budget is not None:
            new_keys = self._keys_that_fit(new_keys, members, trees, budget)
        if not new_keys:
            return MergeOutcome()

        info = existing or MergeFileInfo(combination, merge_file_name(combination))
        file = self.merge_file(combination)
        copies = [(key, dataset_id) for key in new_keys for dataset_id in members]
        runs = self.facts.step(
            "merge",
            [members, [list(key) for key in new_keys]],
            lambda: [
                file.append_group_array(trees[dataset_id].read_partition_array(key))
                for key, dataset_id in copies
            ],
        )
        if len(runs) != len(copies):
            raise FactMismatch(f"{len(copies)} copies, {len(runs)} journaled segments")
        for (key, dataset_id), run in zip(copies, runs):
            info.add_segment(key, dataset_id, run)
        self._directory.register(info)
        self._merges_performed += 1
        return MergeOutcome(merged=True, combination=combination, new_partitions=len(new_keys))

    def _keys_that_fit(
        self,
        keys: list[PartitionKey],
        members: list[int],
        trees: Mapping[int, PartitionTree],
        budget: int,
    ) -> list[PartitionKey]:
        """The keys, in order, whose copies keep all merge files within
        ``budget`` pages; a key that does not fit is skipped and the next
        one tried.  A copy takes the pages of its source run (an empty
        leaf's copy takes none), so deciding reads no page."""
        free = budget - self._directory.total_pages()
        kept = []
        for key in keys:
            runs = (trees[dataset_id].occupied_runs.get(key) for dataset_id in members)
            pages = sum(run.n_pages for run in runs if run is not None)
            if pages <= free:
                kept.append(key)
                free -= pages
        return kept

    def _qualifying_keys(
        self,
        combination: Combination,
        stats: CombinationStats,
        trees: Mapping[int, PartitionTree],
        merged: Collection[PartitionKey] = (),
    ) -> set[PartitionKey]:
        """Partition keys worth copying into the combination's merge file.

        A key qualifies when

        * it has been read by at least two queries of this combination
          (``stats.hot_keys``, kept by the collector as it records);
        * it is a *leaf* with the same key (and therefore the same
          refinement level) in every member dataset — the paper's "only
          merge partitions at the same level of refinement";
        * it is not in ``merged`` already; and
        * it is no longer a refinement candidate for the combination's
          typical query volume — the negation of the Adaptor's own rule,
          :func:`oversized` — so its copy will not be superseded by refined
          originals.

        All but the last are set algebra over summaries their owners keep
        up to date as they change (set-to-set operations, and
        ``difference`` with a dict, probe with stored hashes); only the
        few survivors reach the per-key volume test.
        """
        if not all(dataset_id in trees for dataset_id in combination):
            return set()
        keys = stats.hot_keys
        for dataset_id in combination:
            keys = keys & trees[dataset_id].leaf_keys
        keys = keys.difference(merged)
        avg_query_volume = stats.average_query_volume()
        if avg_query_volume > 0:
            # Equal keys are the same region in every tree: ask any one.
            volume = trees[next(iter(combination))].volume
            rt, average = self._config.refinement_threshold, avg_query_volume
            keys = {key for key in keys if not oversized(volume(key), average, rt)}
        return keys
