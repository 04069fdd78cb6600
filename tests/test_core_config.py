"""Unit tests for OdysseyConfig."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.config import OdysseyConfig


class TestDefaults:
    def test_paper_defaults(self):
        config = OdysseyConfig()
        assert config.refinement_threshold == 4.0
        assert config.partitions_per_level == 64
        assert config.merge_threshold == 2
        assert config.min_merge_combination == 3
        assert config.merge_space_budget_pages is None

    def test_without_merging(self):
        config = OdysseyConfig().without_merging()
        assert config.merge_space_budget_pages == 0
        assert config.refinement_threshold == 4.0

    def test_six_fields(self):
        assert [f.name for f in dataclasses.fields(OdysseyConfig)] == [
            "refinement_threshold",
            "partitions_per_level",
            "merge_threshold",
            "min_merge_combination",
            "merge_space_budget_pages",
            "max_depth",
        ]


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"refinement_threshold": 0},
            {"refinement_threshold": float("nan")},
            {"partitions_per_level": 1},
            {"merge_threshold": -1},
            {"min_merge_combination": 0},
            {"merge_space_budget_pages": -1},
            {"max_depth": 0},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            OdysseyConfig(**kwargs)


class TestSplitsPerDimension:
    def test_octree_in_3d(self):
        assert OdysseyConfig(partitions_per_level=8).splits_per_dimension(3) == 2

    def test_paper_ppl_in_3d(self):
        assert OdysseyConfig(partitions_per_level=64).splits_per_dimension(3) == 4

    def test_quadtree_in_2d(self):
        assert OdysseyConfig(partitions_per_level=4).splits_per_dimension(2) == 2
        assert OdysseyConfig(partitions_per_level=16).splits_per_dimension(2) == 4

    def test_non_perfect_power_rejected(self):
        with pytest.raises(ValueError):
            OdysseyConfig(partitions_per_level=10).splits_per_dimension(3)

    def test_bad_dimension(self):
        with pytest.raises(ValueError):
            OdysseyConfig().splits_per_dimension(0)


class TestConvergenceFormula:
    def test_already_converged(self):
        config = OdysseyConfig(refinement_threshold=4.0, partitions_per_level=64)
        assert config.queries_to_full_refinement(partition_volume=3.0, query_volume=1.0) == 0

    def test_paper_formula(self):
        # log_ppl(Vp / (Vq * rt)): Vp = 64^2 * Vq * rt needs exactly 2 queries.
        config = OdysseyConfig(refinement_threshold=4.0, partitions_per_level=64)
        assert config.queries_to_full_refinement(64 * 64 * 4.0, 1.0) == 2

    def test_larger_ppl_converges_faster(self):
        small = OdysseyConfig(partitions_per_level=8)
        large = OdysseyConfig(partitions_per_level=64)
        volume = 8**6 * 4.0
        assert large.queries_to_full_refinement(volume, 1.0) <= small.queries_to_full_refinement(
            volume, 1.0
        )

    def test_invalid_volumes(self):
        with pytest.raises(ValueError):
            OdysseyConfig().queries_to_full_refinement(0.0, 1.0)
