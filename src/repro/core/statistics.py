"""The Statistics Collector (Section 3.2.1 of the paper).

While queries execute, Space Odyssey records

1. how often each *combination* of datasets ``C = {DS_1, ..., DS_N}`` is
   queried together, and
2. which partitions its queries read (the overlapped leaves that hold
   records): the keys read at least once, and the *hot* keys, read by two
   queries or more.

The Merger consults these statistics to decide when a combination becomes
hot enough (``> mt`` retrievals, ``|C| >= 3``) to copy its partitions into a
merge file, and which partitions to include (the hot keys).  Nothing else is
kept: a summary is maintained at write time only if a decision reads it, so
no per-key count is stored once the threshold of two is fixed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import AbstractSet, Iterable

from repro.core.partition import PartitionKey

#: A combination of datasets queried together.
Combination = frozenset[int]


@dataclass
class CombinationStats:
    """Access statistics for one combination of datasets."""

    count: int = 0
    #: The keys read by at least one query of this combination.
    seen_keys: set[PartitionKey] = field(default_factory=set)
    #: The keys read by at least two queries of this combination (a key
    #: counts once per query, however many member datasets it was read
    #: from) — maintained as queries are recorded, so the merger never
    #: rescans the key history.
    hot_keys: set[PartitionKey] = field(default_factory=set)
    #: Sum of the query volumes seen for this combination (for the running
    #: average the merger's convergence check uses).
    total_query_volume: float = 0.0

    def average_query_volume(self) -> float:
        """Mean volume of the queries recorded for this combination."""
        if self.count == 0:
            return 0.0
        return self.total_query_volume / self.count


class StatisticsCollector:
    """Tracks combinations and partition accesses across the query stream."""

    def __init__(self) -> None:
        self._combinations: dict[Combination, CombinationStats] = {}

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #

    def record_query(
        self,
        combination: Iterable[int],
        keys: AbstractSet[PartitionKey],
        query_volume: float = 0.0,
    ) -> CombinationStats:
        """Record one executed query.

        ``combination`` is the requested dataset ids, ``keys`` the set of
        partition keys the query read from any of them (a set, so each
        counts once), and ``query_volume`` the volume of its range (the
        merger's convergence check averages it).  ``keys`` is kept as it
        is given: it is read in place, never copied, and the caller must
        not change it during the call.
        """
        combo = frozenset(combination)
        if not combo:
            raise ValueError("a query must request at least one dataset")
        stats = self._combinations.get(combo)
        if stats is None:  # not setdefault: that builds a fresh record every query
            stats = self._combinations[combo] = CombinationStats()
        stats.count += 1
        stats.total_query_volume += max(query_volume, 0.0)
        # A key turns hot in the second query that reads it.
        stats.hot_keys |= keys & stats.seen_keys
        stats.seen_keys |= keys
        return stats

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #

    def combination_stats(self, combination: Iterable[int]) -> CombinationStats | None:
        """Full statistics of a combination, if it has ever been queried."""
        return self._combinations.get(frozenset(combination))

    def combinations(self) -> dict[Combination, CombinationStats]:
        """All recorded combinations (a shallow copy of the mapping)."""
        return dict(self._combinations)
