"""Configuration of Space Odyssey.

The defaults are the parameters used in the paper's evaluation
(Section 4.1): refinement threshold ``rt = 4``, ``ppl = 64`` partitions per
level, merging threshold ``mt = 2``, and merging only for combinations of at
least three datasets (Section 3.2.1).

Which partitions a hot combination merges is not configurable: a partition
qualifies once two queries of the combination read it (never an empty one)
and it is no longer a refinement candidate for the combination's typical
query volume (:mod:`repro.core.statistics` and :mod:`repro.core.merger` own
that rule).  A merge space budget of 0 pages turns merging off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class OdysseyConfig:
    """Tunable parameters of the Space Odyssey engine.

    Parameters
    ----------
    refinement_threshold:
        ``rt`` — a partition hit by a query is refined one level when the
        ratio of partition volume to query volume exceeds this threshold.
    partitions_per_level:
        ``ppl`` — how many children a partition is split into.  Must be a
        perfect ``dimension``-th power (e.g. 8 or 64 in 3-D, 4 or 16 in
        2-D); the paper uses 64 to speed up convergence over a plain
        Octree's 8.
    merge_threshold:
        ``mt`` — a combination of datasets becomes a merge candidate once
        it has been retrieved strictly more than this many times.  A
        partition turns hot only in the second query that reads it,
        so nothing can merge before a combination's second retrieval: the
        effective trigger is ``max(mt, 1)``, and ``mt = 0`` runs exactly
        as ``mt = 1``.  0 stays accepted because journals may carry it.
    min_merge_combination:
        Minimum combination size ``|C|`` eligible for merging; the paper
        merges only combinations of three or more datasets.
    merge_space_budget_pages:
        A bound on the pages all merge files occupy: a merge copies, in
        key order, only the partitions whose copies still fit and skips
        the rest; nothing is ever evicted.  ``None`` (the default, and
        every figure's setting) means no bound, and 0 no merging (Figure
        5c's engine without merging): every merged partition takes a page.
    max_depth:
        Safety bound on partition-tree depth, preventing runaway
        refinement for degenerate data (e.g. coincident centres) or query
        volumes.  It is not a tuning knob: no figure or ablation sets it.
    """

    refinement_threshold: float = 4.0
    partitions_per_level: int = 64
    merge_threshold: int = 2
    min_merge_combination: int = 3
    merge_space_budget_pages: int | None = None
    max_depth: int = 16

    def __post_init__(self) -> None:
        if not self.refinement_threshold > 0:  # also rejects NaN
            raise ValueError("refinement_threshold must be positive")
        if self.partitions_per_level < 2:
            raise ValueError("partitions_per_level must be >= 2")
        if self.merge_threshold < 0:
            raise ValueError("merge_threshold must be non-negative")
        if self.min_merge_combination < 1:
            raise ValueError("min_merge_combination must be >= 1")
        if self.merge_space_budget_pages is not None and self.merge_space_budget_pages < 0:
            raise ValueError("merge_space_budget_pages must be >= 0 or None")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")

    def splits_per_dimension(self, dimension: int) -> int:
        """Per-dimension split count such that ``splits**dimension == ppl``.

        Raises ``ValueError`` when ``partitions_per_level`` is not a perfect
        ``dimension``-th power, because the space-oriented splitting must be
        regular along every axis.
        """
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        splits = round(self.partitions_per_level ** (1.0 / dimension))
        for candidate in (splits - 1, splits, splits + 1):
            if candidate >= 2 and candidate**dimension == self.partitions_per_level:
                return candidate
        raise ValueError(
            f"partitions_per_level={self.partitions_per_level} is not a perfect "
            f"{dimension}-th power of an integer >= 2"
        )

    def queries_to_full_refinement(
        self, partition_volume: float, query_volume: float
    ) -> int:
        """The paper's convergence formula: ``log_ppl(Vp / (Vq * rt))``.

        Number of queries that must hit a partition of volume
        ``partition_volume`` before it is refined down to (roughly) the
        query volume, given the refinement threshold.
        """
        if partition_volume <= 0 or query_volume <= 0:
            raise ValueError("volumes must be positive")
        ratio = partition_volume / (query_volume * self.refinement_threshold)
        if ratio <= 1:
            return 0
        return math.ceil(math.log(ratio, self.partitions_per_level))

    def without_merging(self) -> "OdysseyConfig":
        """A copy with a merge space budget of 0 pages: no merging (Figure 5c)."""
        from dataclasses import replace

        return replace(self, merge_space_budget_pages=0)
