"""Unit tests for the statistics collector."""

from __future__ import annotations

import pytest

from repro.core.statistics import StatisticsCollector


class TestRecording:
    def test_combination_counting(self):
        stats = StatisticsCollector()
        stats.record_query({1, 2, 3}, {(0,), (1,)})
        stats.record_query({1, 2, 3}, {(2,), (0,), (1,)})
        stats.record_query({1, 2}, {(0,)})
        assert stats.combination_stats([1, 2, 3]).count == 2
        assert stats.combination_stats([2, 1]).count == 1  # order-insensitive
        assert stats.combination_stats([9]) is None
        assert sum(combo.count for combo in stats.combinations().values()) == 3

    def test_keys_seen_and_hot_per_combination(self):
        stats = StatisticsCollector()
        stats.record_query({1, 2}, {(0,), (1,)})
        stats.record_query({1, 2}, {(2,), (0,)})
        stats.record_query({1}, {(1,)})
        combo = stats.combination_stats({1, 2})
        assert combo is not None
        assert combo.seen_keys == {(0,), (1,), (2,)}
        assert combo.hot_keys == {(0,)}
        assert stats.combination_stats({1}).seen_keys == {(1,)}
        assert stats.combination_stats({1}).hot_keys == set()

    def test_keys_counted_once_per_query(self):
        stats = StatisticsCollector()
        stats.record_query({1, 2}, {(0,)})  # read from both datasets: one key
        combo = stats.combination_stats({1, 2})
        assert combo.hot_keys == set()  # counted once per query, not per dataset
        stats.record_query({1, 2}, {(0,), (1,)})
        assert combo.hot_keys == {(0,)}
        assert combo.seen_keys == {(0,), (1,)}

    def test_the_given_set_is_read_in_place_and_never_aliased(self):
        """``record_query`` uses the caller's set as it is: no copy of it is
        made, none of it is changed, and no summary becomes that set."""
        stats = StatisticsCollector()
        keys = {(0,), (1,)}
        stats.record_query({1, 2}, keys)
        stats.record_query({1, 2}, frozenset({(1,)}))
        combo = stats.combination_stats({1, 2})
        assert keys == {(0,), (1,)}
        assert combo.seen_keys is not keys and combo.hot_keys is not keys
        keys.add((9,))
        assert combo.seen_keys == {(0,), (1,)} and combo.hot_keys == {(1,)}

    def test_query_volume_average(self):
        stats = StatisticsCollector()
        stats.record_query({1}, set(), query_volume=2.0)
        stats.record_query({1}, set(), query_volume=4.0)
        assert stats.combination_stats({1}).average_query_volume() == pytest.approx(3.0)

    def test_empty_combination_rejected(self):
        stats = StatisticsCollector()
        with pytest.raises(ValueError):
            stats.record_query(set(), set())
        assert stats.combinations() == {}
