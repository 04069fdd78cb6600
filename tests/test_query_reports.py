"""Tests for the per-query diagnostics (QueryReport) and exploration summary.

These pin the observability surface the examples and the benchmark harness
rely on: which datasets were initialised, how partitions were routed, how
many refinements and merges a query triggered.
"""

from __future__ import annotations

import pytest

from repro.core.config import OdysseyConfig
from repro.core.odyssey import SpaceOdyssey
from repro.geometry.box import Box

from tests.conftest import make_catalog


@pytest.fixture
def odyssey(disk, universe):
    catalog = make_catalog(disk, universe, n_datasets=3, count=300, seed=71)
    config = OdysseyConfig(
        partitions_per_level=8,
        merge_threshold=1,
        min_merge_combination=3,
    )
    return SpaceOdyssey(catalog, config)


HOT = Box.cube((50.0, 50.0, 50.0), 8.0)


class TestQueryReport:
    def test_first_query_report(self, odyssey):
        odyssey.query(HOT, [0, 2])
        report = odyssey.last_report
        assert report.query_index == 0
        assert report.requested == (0, 2)
        assert report.initialized_datasets == [0, 2]
        assert report.route == "none"
        assert report.partitions_read > 0
        assert report.partitions_from_merge == 0
        assert not report.used_merge_file
        assert report.results == len(odyssey.query(HOT, [0, 2]))  # deterministic answer

    def test_refinements_counted(self, odyssey):
        tiny = Box.cube((50.0, 50.0, 50.0), 1.0)
        odyssey.query(tiny, [0])
        assert odyssey.last_report.refinements >= 1

    def test_merge_reported_once_triggered(self, odyssey):
        for _ in range(3):
            odyssey.query(HOT, [0, 1, 2])
        reports_merged = []
        for _ in range(2):
            odyssey.query(HOT, [0, 1, 2])
            reports_merged.append(odyssey.last_report.used_merge_file)
        assert any(reports_merged)
        assert odyssey.last_report.route == "exact"

    def test_query_index_increments(self, odyssey):
        for expected in range(4):
            odyssey.query(HOT, [0])
            assert odyssey.last_report.query_index == expected

    def test_objects_examined_at_least_results(self, odyssey):
        results = odyssey.query(Box.cube((50.0, 50.0, 50.0), 30.0), [0, 1])
        report = odyssey.last_report
        assert report.objects_examined >= report.results == len(results)


class TestExplorationSummary:
    def test_summary_counts_are_consistent(self, odyssey):
        for _ in range(4):
            odyssey.query(HOT, [0, 1, 2])
        summary = odyssey.summary()
        assert summary.queries_executed == 4
        assert summary.datasets_initialized == 3
        assert summary.total_partitions == sum(
            tree.n_partitions for tree in odyssey.trees.values()
        )
        assert summary.merge_files == len(odyssey.merge_directory)
        assert summary.merge_pages == odyssey.merge_directory.total_pages()
        assert summary.merges_performed == odyssey.merger.merges_performed

    def test_summary_before_any_query(self, odyssey):
        summary = odyssey.summary()
        assert summary.queries_executed == 0
        assert summary.datasets_initialized == 0
        assert summary.total_partitions == 0
        assert summary.max_tree_depth == 0
