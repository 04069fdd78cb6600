"""Unit tests for merge files, the merge directory and routing."""

from __future__ import annotations

import pytest

from repro.core.merge import (
    MergeDirectory,
    MergeFileInfo,
    RouteKind,
    choose_route,
    merge_file_name,
)
from repro.storage.pagedfile import PageExtent, StoredRun


def run(pages: int = 1, records: int = 10, start: int = 0) -> StoredRun:
    return StoredRun(extents=(PageExtent(start, pages),), n_records=records)


def info(ids, entries=None, last_used=0) -> MergeFileInfo:
    combo = frozenset(ids)
    result = MergeFileInfo(combination=combo, file_name=merge_file_name(combo), last_used=last_used)
    for key, dataset_id, stored in entries or []:
        result.add_segment(key, dataset_id, stored)
    return result


def recomputed_pages(merged: MergeFileInfo) -> int:
    return sum(
        stored.n_pages for per_dataset in merged.entries.values() for stored in per_dataset.values()
    )


class TestMergeFileInfo:
    def test_segments_and_pages(self):
        merged = info(
            [1, 2, 3],
            entries=[((0,), 1, run(2)), ((0,), 2, run(3)), ((1,), 1, run(1))],
        )
        assert merged.n_partitions == 2
        assert merged.total_pages == 6
        assert merged.has_segment((0,), 1)
        assert not merged.has_segment((0,), 3)
        assert merged.segment((0,), 2).n_pages == 3

    def test_running_page_count_equals_the_recomputed_sum(self):
        merged = info([1, 2, 3])
        assert merged.total_pages == 0
        steps = [((0,), 1, run(2)), ((0,), 2, run(3)), ((1,), 1, run(1)), ((0,), 1, run(5))]
        for key, dataset_id, stored in steps:  # the last one replaces a segment
            merged.add_segment(key, dataset_id, stored)
            assert merged.total_pages == recomputed_pages(merged)
        assert merged.total_pages == 9
        copy = merged.copy()
        assert copy.total_pages == 9 and copy.entries == merged.entries
        merged.add_segment((2,), 3, run(4))
        assert (merged.total_pages, copy.total_pages) == (13, 9)
        assert recomputed_pages(copy) == 9
        # Entries handed to the constructor are counted too.
        rebuilt = MergeFileInfo(
            combination=merged.combination, file_name=merged.file_name, entries=merged.entries
        )
        assert rebuilt.total_pages == 13

    def test_merge_file_name_is_stable(self):
        assert merge_file_name(frozenset({3, 1, 2})) == merge_file_name(frozenset({2, 3, 1}))


class TestMergeDirectory:
    def test_register_lookup_remove(self):
        directory = MergeDirectory()
        merged = info([1, 2, 3])
        directory.register(merged)
        assert directory.get([3, 2, 1]) is merged
        assert [1, 2, 3] in directory
        assert len(directory) == 1
        directory.remove(frozenset({1, 2, 3}))
        assert directory.get([1, 2, 3]) is None
        with pytest.raises(KeyError):
            directory.remove(frozenset({1, 2, 3}))

    def test_total_pages(self):
        directory = MergeDirectory()
        directory.register(info([1, 2, 3], entries=[((0,), 1, run(2))]))
        directory.register(info([4, 5, 6], entries=[((0,), 4, run(5))]))
        assert directory.total_pages() == 7

    def test_running_total_follows_register_and_remove(self):
        def recomputed() -> int:
            return sum(recomputed_pages(entry) for entry in directory.all_files())

        directory = MergeDirectory()
        first = info([1, 2, 3], entries=[((0,), 1, run(2))])
        directory.register(first)
        directory.register(info([4, 5, 6], entries=[((0,), 4, run(5))]))
        # The merger extends an info in place, then registers it again.
        first.add_segment((1,), 2, run(3))
        directory.register(first)
        assert directory.total_pages() == recomputed() == 10
        # Replacing a combination's info counts the new one only.
        directory.register(info([4, 5, 6], entries=[((0,), 4, run(1))]))
        assert directory.total_pages() == recomputed() == 6
        directory.remove(frozenset({1, 2, 3}))
        assert directory.total_pages() == recomputed() == 1
        assert directory.freeze().total_pages() == 1
        directory.remove(frozenset({4, 5, 6}))
        assert directory.total_pages() == 0

    def test_lru_order(self):
        directory = MergeDirectory()
        old = info([1, 2, 3], last_used=1)
        new = info([4, 5, 6], last_used=9)
        directory.register(new)
        directory.register(old)
        assert directory.lru_order() == [old, new]

    def test_find_superset_prefers_smallest(self):
        directory = MergeDirectory()
        directory.register(info([1, 2, 3, 4, 5]))
        directory.register(info([1, 2, 3, 4]))
        superset = directory.find_superset(frozenset({1, 2, 3}))
        assert superset.combination == frozenset({1, 2, 3, 4})

    def test_find_best_subset_prefers_largest(self):
        directory = MergeDirectory()
        directory.register(info([1, 2, 3]))
        directory.register(info([1, 2, 3, 4]))
        subset = directory.find_best_subset(frozenset({1, 2, 3, 4, 5}))
        assert subset.combination == frozenset({1, 2, 3, 4})


class TestRouting:
    def test_exact_route(self):
        directory = MergeDirectory()
        directory.register(info([1, 2, 3]))
        decision = choose_route(directory, frozenset({1, 2, 3}))
        assert decision.kind is RouteKind.EXACT
        assert decision.covered_datasets == frozenset({1, 2, 3})

    def test_superset_route(self):
        directory = MergeDirectory()
        directory.register(info([1, 2, 3, 4]))
        decision = choose_route(directory, frozenset({1, 2, 3}))
        assert decision.kind is RouteKind.SUPERSET
        # Even via a superset file, only the requested datasets are covered.
        assert decision.covered_datasets == frozenset({1, 2, 3})

    def test_subset_route(self):
        directory = MergeDirectory()
        directory.register(info([1, 2, 3]))
        decision = choose_route(directory, frozenset({1, 2, 3, 4, 5}))
        assert decision.kind is RouteKind.SUBSET
        assert decision.covered_datasets == frozenset({1, 2, 3})

    def test_none_route(self):
        decision = choose_route(MergeDirectory(), frozenset({1, 2}))
        assert decision.kind is RouteKind.NONE
        assert decision.merge_info is None
        assert decision.covered_datasets == frozenset()

    def test_exact_preferred_over_superset_and_subset(self):
        directory = MergeDirectory()
        directory.register(info([1, 2, 3]))
        directory.register(info([1, 2, 3, 4]))
        directory.register(info([1, 2]))
        decision = choose_route(directory, frozenset({1, 2, 3}))
        assert decision.kind is RouteKind.EXACT
        assert decision.merge_info.combination == frozenset({1, 2, 3})
