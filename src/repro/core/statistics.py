"""The Statistics Collector (Section 3.2.1 of the paper).

While queries execute, Space Odyssey records

1. how often each *combination* of datasets ``C = {DS_1, ..., DS_N}`` is
   queried together, and
2. which partitions are retrieved in the context of each combination.

The Merger consults these statistics to decide when a combination becomes
hot enough (``> mt`` retrievals, ``|C| >= 3``) to copy its partitions into a
merge file, and which partitions to include.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.core.partition import PartitionKey

#: A combination of datasets queried together.
Combination = frozenset[int]


@dataclass
class CombinationStats:
    """Access statistics for one combination of datasets."""

    count: int = 0
    #: Partition keys retrieved in the context of the combination, per dataset.
    partitions: dict[int, set[PartitionKey]] = field(default_factory=lambda: defaultdict(set))
    #: How many queries of this combination retrieved each partition key
    #: (counting a key once per query, regardless of how many member
    #: datasets it was read from).
    key_hits: Counter = field(default_factory=Counter)
    #: The keys whose ``key_hits`` reached the collector's
    #: ``hot_key_min_hits`` — maintained as the hits are counted, so the
    #: merger never rescans the key history.
    hot_keys: set[PartitionKey] = field(default_factory=set)
    #: Sum of the query volumes seen for this combination (for the running
    #: average the merger's convergence check uses).
    total_query_volume: float = 0.0
    last_query_index: int = -1

    def all_partition_keys(self) -> set[PartitionKey]:
        """Union of partition keys retrieved across the member datasets."""
        keys: set[PartitionKey] = set()
        for dataset_keys in self.partitions.values():
            keys.update(dataset_keys)
        return keys

    def average_query_volume(self) -> float:
        """Mean volume of the queries recorded for this combination."""
        if self.count == 0:
            return 0.0
        return self.total_query_volume / self.count


class StatisticsCollector:
    """Tracks combinations and partition accesses across the query stream.

    ``hot_key_min_hits`` is the per-combination hit count at which a
    partition key enters :attr:`CombinationStats.hot_keys` (the merger's
    ``merge_partition_min_hits``).
    """

    def __init__(self, hot_key_min_hits: int = 1) -> None:
        if hot_key_min_hits < 1:
            raise ValueError("hot_key_min_hits must be >= 1")
        self._hot_key_min_hits = hot_key_min_hits
        self._combinations: dict[Combination, CombinationStats] = {}
        self._partition_hits: Counter[tuple[int, PartitionKey]] = Counter()
        self._queries_seen = 0
        self._logical_clock = 0

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #

    def tick(self) -> int:
        """Advance and return the logical clock (used for LRU decisions)."""
        self._logical_clock += 1
        return self._logical_clock

    @property
    def logical_clock(self) -> int:
        """Current logical time (number of ticks so far)."""
        return self._logical_clock

    def record_query(
        self,
        combination: Iterable[int],
        partitions_by_dataset: Mapping[int, Iterable[PartitionKey]],
        query_volume: float = 0.0,
    ) -> CombinationStats:
        """Record one executed query.

        Parameters
        ----------
        combination:
            The dataset ids the query requested.
        partitions_by_dataset:
            For each requested dataset, the partition keys the query
            retrieved from it.
        query_volume:
            Volume of the query range (used by the merger's convergence
            check).
        """
        combo = frozenset(combination)
        if not combo:
            raise ValueError("a query must request at least one dataset")
        stats = self._combinations.setdefault(combo, CombinationStats())
        stats.count += 1
        stats.last_query_index = self._queries_seen
        stats.total_query_volume += max(query_volume, 0.0)
        query_keys: set[PartitionKey] = set()
        for dataset_id, keys in partitions_by_dataset.items():
            key_set = set(keys)
            query_keys.update(key_set)
            stats.partitions[dataset_id].update(key_set)
            for key in key_set:
                self._partition_hits[(dataset_id, key)] += 1
        key_hits = stats.key_hits
        key_hits.update(query_keys)
        # A key turns hot in the one query that brings it to the threshold.
        threshold = self._hot_key_min_hits
        stats.hot_keys.update(key for key in query_keys if key_hits[key] == threshold)
        self._queries_seen += 1
        return stats

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #

    @property
    def hot_key_min_hits(self) -> int:
        """Hits after which a key counts as hot for its combination."""
        return self._hot_key_min_hits

    @property
    def queries_seen(self) -> int:
        """Total number of queries recorded."""
        return self._queries_seen

    def combination_count(self, combination: Iterable[int]) -> int:
        """How many times a combination has been queried."""
        stats = self._combinations.get(frozenset(combination))
        return stats.count if stats else 0

    def combination_stats(self, combination: Iterable[int]) -> CombinationStats | None:
        """Full statistics of a combination, if it has ever been queried."""
        return self._combinations.get(frozenset(combination))

    def combinations(self) -> dict[Combination, CombinationStats]:
        """All recorded combinations (a shallow copy of the mapping)."""
        return dict(self._combinations)

    def hottest_combinations(self, limit: int = 10) -> list[tuple[Combination, int]]:
        """Combinations ordered by access count, most frequent first."""
        ranked = sorted(
            self._combinations.items(), key=lambda item: item[1].count, reverse=True
        )
        return [(combo, stats.count) for combo, stats in ranked[:limit]]

    def partition_hit_count(self, dataset_id: int, key: PartitionKey) -> int:
        """How many recorded queries retrieved a given partition."""
        return self._partition_hits[(dataset_id, key)]

    def hottest_partitions(self, limit: int = 10) -> list[tuple[tuple[int, PartitionKey], int]]:
        """Partitions ordered by hit count, hottest first."""
        return self._partition_hits.most_common(limit)
