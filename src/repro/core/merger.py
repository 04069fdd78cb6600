"""The Merger: physical co-location of hot partitions (Section 3.2).

Once a combination of datasets has been retrieved together more than ``mt``
times (and contains at least ``min_merge_combination`` datasets), the
Merger copies the partitions those queries retrieved into the combination's
append-only merge file:

* for every qualifying partition region it stores the objects of each
  member dataset as a separate, sequential segment, so future queries can
  read any subset of the merged datasets sequentially and skip the rest;
* only partitions at the same refinement level in *all* member datasets are
  merged (equal partition keys guarantee this);
* the originals are kept — merge files hold copies — and all merge files
  together are kept under a space budget by evicting the least recently
  used file.

The Merger is incremental: if a hot combination later touches partitions
that are not yet in its merge file, they are appended (the file is
append-only, as in the paper).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Mapping

from repro.core.config import OdysseyConfig
from repro.core.cost import AdaptiveMergePolicy, MergeCostModel
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
    evicted_combinations: tuple[Combination, ...] = ()
    skipped_reason: str = ""


class Merger:
    """Creates, extends and evicts merge files."""

    def __init__(
        self,
        disk: Disk,
        config: OdysseyConfig,
        directory: MergeDirectory,
        statistics: StatisticsCollector,
        dimension: int,
    ) -> None:
        if statistics.hot_key_min_hits != config.merge_partition_min_hits:
            raise ValueError(
                "the statistics collector must track hot keys at "
                f"merge_partition_min_hits={config.merge_partition_min_hits}, "
                f"not {statistics.hot_key_min_hits}"
            )
        self._disk = disk
        self._config = config
        self._directory = directory
        self._statistics = statistics
        self._codec = spatial_object_codec(dimension)
        self._open_files: dict[Combination, PagedFile[SpatialObject]] = {}
        self._adaptive_policy: AdaptiveMergePolicy | None = None
        if config.adaptive_merge_threshold:
            self._adaptive_policy = AdaptiveMergePolicy(
                MergeCostModel(disk.model), config.merge_threshold
            )
        self._merges_performed = 0
        self._partitions_merged = 0
        self._evictions = 0

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def merges_performed(self) -> int:
        """Number of merge operations (file creations or extensions)."""
        return self._merges_performed

    @property
    def partitions_merged(self) -> int:
        """Total partition copies written into merge files."""
        return self._partitions_merged

    @property
    def evictions(self) -> int:
        """Number of merge files evicted to respect the space budget."""
        return self._evictions

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
        if not self._config.enable_merging:
            return MergeOutcome(skipped_reason="merging disabled")
        if len(combination) < self._config.min_merge_combination:
            return MergeOutcome(skipped_reason="combination too small")
        stats = self._statistics.combination_stats(combination)
        if stats is None:
            return MergeOutcome(skipped_reason="combination never queried")
        # Both policies need more than ``mt`` retrievals, so a cold
        # combination is dismissed before any key is derived.
        if stats.count <= self._config.merge_threshold:
            return MergeOutcome(skipped_reason="below merge threshold")
        if self._adaptive_policy is not None and not self._adaptive_policy.should_merge(
            combination, stats.count, self._qualifying_keys(combination, stats, trees), trees
        ):
            return MergeOutcome(skipped_reason="below merge threshold")
        existing = self._directory.get(combination)
        # Whatever an evicted file held is unmerged again: no special case.
        merged = existing.entries if existing is not None else ()
        new_keys = sorted(self._qualifying_keys(combination, stats, trees, merged))
        if not new_keys:
            return MergeOutcome(skipped_reason="nothing new to merge")

        info = existing or MergeFileInfo(
            combination=combination,
            file_name=merge_file_name(combination),
            created_at=self._statistics.logical_clock,
            last_used=self._statistics.logical_clock,
        )
        file = self.merge_file(combination)
        columnar = self._config.columnar
        for key in new_keys:
            for dataset_id in sorted(combination):
                tree = trees[dataset_id]
                node = tree.node(key)
                if columnar:
                    # Copy the partition merge-file-wards without leaving
                    # columnar form: array read, array append, same bytes.
                    run = file.append_group_array(tree.read_partition_array(node))
                else:
                    run = file.append_group(tree.read_partition(node))
                info.add_segment(key, dataset_id, run)
                self._partitions_merged += 1
        info.last_used = self._statistics.logical_clock
        self._directory.register(info)
        self._merges_performed += 1
        evicted = self._enforce_budget(protect=combination)
        return MergeOutcome(
            merged=True,
            combination=combination,
            new_partitions=len(new_keys),
            evicted_combinations=tuple(evicted),
        )

    def _qualifying_keys(
        self,
        combination: Combination,
        stats: CombinationStats,
        trees: Mapping[int, PartitionTree],
        merged: Collection[PartitionKey] = (),
    ) -> set[PartitionKey]:
        """Partition keys worth copying into the combination's merge file.

        A key qualifies when

        * it has been retrieved by at least ``merge_partition_min_hits``
          queries of this combination (``stats.hot_keys``, kept by the
          collector as it counts);
        * it is a *leaf* with the same key (and therefore the same
          refinement level) in every member dataset — the paper's "only
          merge partitions at the same level of refinement";
        * it is not in ``merged`` already; and
        * (if ``merge_only_converged``) it is no longer a refinement
          candidate for the combination's typical query volume, so its
          copy will not be superseded by refined originals.

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
        if self._config.merge_only_converged and avg_query_volume > 0:
            # Equal keys are the same region in every tree: ask any one.
            sample_tree = trees[next(iter(combination))]
            limit = self._config.refinement_threshold * avg_query_volume
            keys = {key for key in keys if sample_tree.node(key).volume() <= limit}
        return keys

    # ------------------------------------------------------------------ #
    # Space budget
    # ------------------------------------------------------------------ #

    def mark_used(self, combination: Combination) -> None:
        """Refresh a merge file's LRU position (called by the query processor)."""
        info = self._directory.get(combination)
        if info is not None:
            info.last_used = self._statistics.logical_clock

    def _enforce_budget(self, protect: Combination) -> list[Combination]:
        budget = self._config.merge_space_budget_pages
        if budget is None:
            return []
        evicted: list[Combination] = []
        while self._directory.total_pages() > budget:
            victims = [
                info for info in self._directory.lru_order() if info.combination != protect
            ]
            if not victims:
                break
            victim = victims[0]
            self._evict(victim)
            evicted.append(victim.combination)
        return evicted

    def _evict(self, info: MergeFileInfo) -> None:
        self._directory.remove(info.combination)
        file = self._open_files.pop(info.combination, None)
        if file is not None:
            file.delete()
        elif self._disk.file_exists(info.file_name):
            self._disk.delete_file(info.file_name)
        self._evictions += 1
