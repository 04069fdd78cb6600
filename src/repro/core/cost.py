"""Merge cost model (the paper's "open issues" extension).

Section 3.2.5 of the paper lists a cost model for merging as future work:
the merging threshold ``mt`` and the minimum combination size are fixed
parameters in the prototype, and the authors plan to adapt them at run time
based on the workload.  This module provides that extension.

The model is deliberately simple and fully analytical:

* **merge cost** — copying the selected partitions into the merge file
  costs one read and one write of every copied page plus positioning time;
* **per-query benefit** — a query that reads ``|C|`` datasets' partitions
  from individual files pays roughly one random positioning per dataset,
  whereas reading them from a merge file pays one; the transferred volume
  is the same.

A combination is worth merging once the observed (and therefore expected
future) access frequency amortises the merge cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.core.partition import PartitionKey, PartitionTree
from repro.core.statistics import Combination
from repro.storage.cost_model import DiskModel


@dataclass(frozen=True, slots=True)
class MergeEstimate:
    """Outcome of a merge cost/benefit estimation."""

    merge_cost_s: float
    per_query_benefit_s: float
    breakeven_queries: float

    @property
    def worthwhile_after(self) -> int:
        """Number of accesses after which merging pays for itself."""
        if self.per_query_benefit_s <= 0:
            return 1_000_000_000  # effectively never
        return max(1, int(self.breakeven_queries + 0.999))


class MergeCostModel:
    """Estimates when merging a combination's hot partitions pays off."""

    def __init__(self, disk_model: DiskModel) -> None:
        self._model = disk_model

    def estimate(
        self,
        combination: Combination,
        keys: set[PartitionKey],
        trees: Mapping[int, PartitionTree],
    ) -> MergeEstimate:
        """Estimate the cost of merging and the per-query benefit afterwards."""
        total_pages = 0
        for dataset_id in combination:
            tree = trees.get(dataset_id)
            if tree is None:
                continue
            runs = tree.occupied_runs
            total_pages += sum(runs[key].n_pages for key in keys if key in runs)
        transfer = self._model.page_transfer_time_s
        # Copying: read + write every page, plus one positioning per dataset
        # segment read and one for the (appending) write.
        merge_cost = total_pages * 2 * transfer + (len(combination) + 1) * self._model.seek_time_s
        # Benefit: per query, (|C| - 1) positioning operations are avoided
        # because the segments are adjacent in the merge file.
        per_query_benefit = max(0, len(combination) - 1) * self._model.seek_time_s
        if per_query_benefit > 0:
            breakeven = merge_cost / per_query_benefit
        else:
            breakeven = float("inf")
        return MergeEstimate(
            merge_cost_s=merge_cost,
            per_query_benefit_s=per_query_benefit,
            breakeven_queries=breakeven,
        )


class AdaptiveMergePolicy:
    """Adapts the merge trigger to the workload using :class:`MergeCostModel`.

    With the static policy the paper uses, a combination is merged after
    ``mt`` retrievals regardless of how large the copy is.  The adaptive
    policy instead merges once the observed access count has reached the
    estimated break-even point (but never earlier than the configured
    ``mt``, preserving the paper's minimum).
    """

    def __init__(self, cost_model: MergeCostModel, static_threshold: int) -> None:
        self._cost_model = cost_model
        self._static_threshold = static_threshold

    def should_merge(
        self,
        combination: Combination,
        access_count: int,
        keys: set[PartitionKey],
        trees: Mapping[int, PartitionTree],
    ) -> bool:
        """Whether the combination should be merged now."""
        if access_count <= self._static_threshold:
            return False
        estimate = self._cost_model.estimate(combination, keys, trees)
        return access_count >= estimate.worthwhile_after
