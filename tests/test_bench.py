"""Unit tests for the benchmark harness (scales, approaches, runner, reporting)."""

from __future__ import annotations

import json

import pytest

from repro.baselines.interface import BruteForceScan
from repro.bench.approaches import (
    APPROACHES,
    FIGURE4_APPROACHES,
    FIGURE5_APPROACHES,
    make_approach,
    odyssey_config_for,
)
from repro.bench.experiments import build_suite, build_workload
from repro.bench.runner import run_approach
from repro.bench.scales import SCALES, ExperimentScale, get_scale
from repro.bench import reporting


@pytest.fixture(scope="module")
def micro_scale() -> ExperimentScale:
    """A very small scale so harness tests stay fast."""
    return SCALES["tiny"].scaled(
        name="micro",
        n_datasets=3,
        objects_per_dataset=400,
        n_queries=10,
        grid_cells_per_dim=4,
    )


@pytest.fixture(scope="module")
def micro_suite(micro_scale):
    return build_suite(micro_scale)


@pytest.fixture(scope="module")
def micro_workload(micro_suite, micro_scale):
    return build_workload(
        micro_suite,
        micro_scale,
        ranges="clustered",
        ids_distribution="zipf",
        datasets_per_query=2,
    )


class TestScales:
    def test_presets_exist(self):
        assert {"tiny", "small", "medium", "paper"} <= set(SCALES)

    def test_get_scale_by_name_and_object(self):
        assert get_scale("tiny") is SCALES["tiny"]
        scale = SCALES["tiny"].scaled(n_queries=5)
        assert get_scale(scale) is scale
        with pytest.raises(ValueError):
            get_scale("huge")

    def test_scaled_overrides(self):
        scale = SCALES["small"].scaled(n_queries=42)
        assert scale.n_queries == 42
        assert scale.n_datasets == SCALES["small"].n_datasets

    def test_disk_model_uses_scale_seek(self):
        scale = SCALES["small"]
        assert scale.disk_model().seek_time_s == scale.seek_time_s

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentScale(name="bad", n_queries=0)
        with pytest.raises(ValueError):
            ExperimentScale(name="bad", query_volume_fraction=2.0)


class TestApproaches:
    def test_registry_contains_paper_approaches(self):
        assert set(FIGURE4_APPROACHES) <= set(APPROACHES)
        assert set(FIGURE5_APPROACHES) <= set(APPROACHES)

    def test_unknown_approach_rejected(self, micro_suite, micro_scale):
        with pytest.raises(ValueError):
            make_approach("BTree", micro_suite, micro_scale)

    def test_odyssey_config_matches_paper(self, micro_scale):
        config = odyssey_config_for(micro_scale)
        assert config.refinement_threshold == 4.0
        assert config.partitions_per_level == 64
        assert config.merge_threshold == 2
        assert not odyssey_config_for(micro_scale, enable_merging=False).enable_merging

    @pytest.mark.parametrize("name", sorted(APPROACHES))
    def test_every_approach_answers_correctly(self, name, micro_suite, micro_scale, micro_workload):
        from repro.baselines.interface import result_keys

        suite = micro_suite.fork()
        approach = make_approach(name, suite, micro_scale)
        approach.build()
        oracle = BruteForceScan(suite.catalog)
        for query in list(micro_workload)[:5]:
            assert result_keys(approach.query(query.box, query.dataset_ids)) == result_keys(
                oracle.query(query.box, query.dataset_ids)
            )


class TestRunner:
    def test_run_static_approach(self, micro_suite, micro_scale, micro_workload):
        suite = micro_suite.fork()
        approach = make_approach("Grid-1fE", suite, micro_scale)
        result = run_approach(approach, micro_workload, suite.disk)
        assert result.approach == "Grid-1fE"
        assert result.indexing_seconds > 0
        assert result.n_queries == len(micro_workload)
        assert result.total_seconds == pytest.approx(
            result.indexing_seconds + result.querying_seconds
        )
        assert len(result.per_query_seconds()) == len(micro_workload)

    def test_run_odyssey_has_no_indexing_time(self, micro_suite, micro_scale, micro_workload):
        suite = micro_suite.fork()
        approach = make_approach("Odyssey", suite, micro_scale)
        result = run_approach(approach, micro_workload, suite.disk)
        assert result.indexing_seconds == 0.0
        assert result.querying_seconds > 0

    def test_validation_against_oracle(self, micro_suite, micro_scale, micro_workload):
        suite = micro_suite.fork()
        approach = make_approach("RTree-Ain1", suite, micro_scale)
        oracle = BruteForceScan(suite.catalog)
        result = run_approach(
            approach, micro_workload, suite.disk, validate_against=oracle
        )
        assert result.validation_failures == 0

    def test_queries_answered_within_budget(self, micro_suite, micro_scale, micro_workload):
        suite = micro_suite.fork()
        approach = make_approach("Odyssey", suite, micro_scale)
        result = run_approach(approach, micro_workload, suite.disk)
        assert result.queries_answered_within(0.0) == 0
        assert result.queries_answered_within(float("inf")) == result.n_queries
        total = result.indexing_seconds + sum(result.per_query_seconds()[:3])
        assert result.queries_answered_within(total) >= 3


class TestReporting:
    def test_to_jsonable_roundtrips_through_json(self, micro_suite, micro_scale, micro_workload):
        suite = micro_suite.fork()
        approach = make_approach("Grid-1fE", suite, micro_scale)
        result = run_approach(approach, micro_workload, suite.disk)
        payload = json.dumps(reporting.to_jsonable(result))
        decoded = json.loads(payload)
        assert decoded["approach"] == "Grid-1fE"

    def test_save_json(self, tmp_path, micro_suite, micro_scale, micro_workload):
        suite = micro_suite.fork()
        approach = make_approach("Grid-1fE", suite, micro_scale)
        result = run_approach(approach, micro_workload, suite.disk)
        path = reporting.save_json(result, tmp_path / "out" / "result.json")
        assert path.exists()
        assert json.loads(path.read_text())["approach"] == "Grid-1fE"
