"""Tests for the SpaceOdyssey facade: correctness, adaptivity, merging, budget."""

from __future__ import annotations

import pytest

from repro.baselines.interface import BruteForceScan, result_keys
from repro.core.config import OdysseyConfig
from repro.core.odyssey import SpaceOdyssey
from repro.geometry.box import Box
from repro.storage import pagedfile as pagedfile_module
from repro.storage.disk import Disk
from repro.workload import ClusteredRangeGenerator, CombinationGenerator, WorkloadBuilder

from tests.conftest import make_catalog
from tests.oracle import check_merge_space


@pytest.fixture
def catalog(disk, universe):
    return make_catalog(disk, universe, n_datasets=4, count=400, seed=41)


@pytest.fixture
def config() -> OdysseyConfig:
    # ppl = 8 keeps the trees small for unit tests; the benchmark uses 64.
    return OdysseyConfig(partitions_per_level=8, merge_threshold=1, min_merge_combination=3)


@pytest.fixture
def odyssey(catalog, config) -> SpaceOdyssey:
    return SpaceOdyssey(catalog, config)


@pytest.fixture
def oracle(catalog) -> BruteForceScan:
    return BruteForceScan(catalog)


def small_queries(universe, count=12, seed=5):
    generator = ClusteredRangeGenerator(
        universe, volume_fraction=2e-3, seed=seed, n_cluster_centers=3
    )
    return list(generator.ranges(count))


class TestBasics:
    def test_no_build_phase(self, odyssey):
        assert odyssey.is_built
        odyssey.build()  # no-op
        assert odyssey.summary().datasets_initialized == 0

    def test_invalid_ppl_for_dimension_fails_fast(self, catalog):
        with pytest.raises(ValueError):
            SpaceOdyssey(catalog, OdysseyConfig(partitions_per_level=10))

    def test_query_requires_datasets(self, odyssey, universe):
        with pytest.raises(ValueError):
            odyssey.query(Box.cube((1.0, 1.0, 1.0), 1.0), [])

    def test_query_rejects_unknown_dataset(self, odyssey, universe):
        with pytest.raises(KeyError):
            odyssey.query(Box.cube((1.0, 1.0, 1.0), 1.0), [99])

    def test_name_reflects_merging(self, catalog, config):
        assert SpaceOdyssey(catalog, config).name == "Odyssey"
        assert (
            SpaceOdyssey(catalog, config.without_merging()).name == "Odyssey w/o merging"
        )


class TestRejectedQueriesChangeNothing:
    """A malformed query is refused, and a failed read aborts, before any state changes.

    Nothing of a query that never commits is journaled, so if it entered
    the statistics or initialised a tree, a recovered engine would diverge
    from the one that crashed.
    """

    BAD_WINDOWS = [
        pytest.param(((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)), TypeError, id="tuple"),
        pytest.param(Box((0.0, 0.0), (1.0, 1.0)), ValueError, id="2-D-box"),
    ]
    BATCH_RUNS = [
        pytest.param(lambda engine, batch: engine.query_batch(batch), id="batch"),
        pytest.param(lambda engine, batch: engine.query_batch(batch, workers=2), id="thread"),
        pytest.param(
            lambda engine, batch: engine.query_batch(batch, snapshot=True), id="snapshot"
        ),
        pytest.param(lambda engine, batch: engine.prepare_batch(batch), id="prepare"),
    ]

    @pytest.fixture
    def engine(self, catalog, config, tmp_path):
        engine = SpaceOdyssey(catalog, config, journal=tmp_path / "journal.log")
        engine.query(Box.cube((50.0, 50.0, 50.0), 10.0), [2])
        return engine

    @staticmethod
    def state(engine):
        return (
            sum(stats.count for stats in engine.statistics.combinations().values()),
            sorted(engine.trees),
            engine.disk.stats.pages_written,
            engine.summary().queries_executed,
            engine.journal.path.read_bytes(),
        )

    @pytest.mark.parametrize("window,error", BAD_WINDOWS)
    def test_query(self, engine, window, error):
        before = self.state(engine)
        with pytest.raises(error):
            engine.query(window, [0, 1])
        assert self.state(engine) == before

    @pytest.mark.parametrize("window,error", BAD_WINDOWS)
    @pytest.mark.parametrize("run", BATCH_RUNS)
    def test_query_batch(self, engine, window, error, run):
        before = self.state(engine)
        valid = (Box.cube((20.0, 20.0, 20.0), 10.0), [0, 1])
        with pytest.raises(error):
            run(engine, [valid, (window, [0, 1])])
        assert self.state(engine) == before

    @pytest.mark.parametrize(
        "run",
        [pytest.param(lambda engine, batch: engine.query(*batch[0]), id="query"), *BATCH_RUNS],
    )
    def test_failed_read(self, engine, run, monkeypatch):
        """A read that raises leaves the clock where it was, on every path.

        Dataset 2 is initialised by the fixture, so first touch writes
        nothing and the read is the first thing that can fail.  Every
        path reads through the one group reader, and with no buffer pool
        it decodes every page it reads: the failure is injected there.
        """

        def failing_decode(*args, **kwargs):
            raise OSError("injected read failure")

        assert engine.disk.buffer_pool.capacity_pages == 0
        monkeypatch.setattr(pagedfile_module, "decode_page_array", failing_decode)
        before = self.state(engine)
        with pytest.raises(OSError, match="injected read failure"):
            run(engine, [(Box.cube((50.0, 50.0, 50.0), 40.0), [2])])
        assert self.state(engine) == before


class TestLazyInitialization:
    def test_first_query_initialises_only_requested_datasets(self, odyssey, universe):
        odyssey.query(Box.cube((50.0, 50.0, 50.0), 10.0), [1])
        assert set(odyssey.trees) == {1}
        report = odyssey.last_report
        assert report.initialized_datasets == [1]

    def test_second_query_does_not_reinitialise(self, odyssey, universe):
        query = Box.cube((50.0, 50.0, 50.0), 10.0)
        odyssey.query(query, [1])
        odyssey.query(query, [1, 2])
        assert odyssey.last_report.initialized_datasets == [2]

    def test_untouched_datasets_never_initialised(self, odyssey, universe):
        for _ in range(5):
            odyssey.query(Box.cube((50.0, 50.0, 50.0), 10.0), [0, 1])
        assert set(odyssey.trees) == {0, 1}


class TestCorrectness:
    def test_matches_bruteforce_across_workload(self, odyssey, oracle, catalog, universe):
        range_gen = ClusteredRangeGenerator(
            universe, volume_fraction=1e-3, seed=3, n_cluster_centers=4
        )
        combo_gen = CombinationGenerator(catalog.dataset_ids(), 3, "zipf", seed=4)
        workload = WorkloadBuilder(range_gen, combo_gen).build(40)
        for query in workload:
            got = result_keys(odyssey.query(query.box, query.dataset_ids))
            expected = result_keys(oracle.query(query.box, query.dataset_ids))
            assert got == expected

    def test_repeated_identical_query_is_stable(self, odyssey, oracle, universe):
        query = Box.cube((40.0, 60.0, 50.0), 15.0)
        expected = result_keys(oracle.query(query, [0, 1, 2]))
        for _ in range(6):
            assert result_keys(odyssey.query(query, [0, 1, 2])) == expected

    def test_results_only_from_requested_datasets(self, odyssey, universe):
        results = odyssey.query(Box.cube((50.0, 50.0, 50.0), 40.0), [2, 3])
        assert {obj.dataset_id for obj in results} <= {2, 3}


class TestAdaptivity:
    def test_hot_areas_get_refined(self, odyssey, universe):
        query = Box.cube((50.0, 50.0, 50.0), 4.0)
        for _ in range(5):
            odyssey.query(query, [0])
        tree = odyssey.trees[0]
        assert tree.depth >= 2
        assert tree.n_partitions > odyssey.config.partitions_per_level

    def test_objects_never_lost_across_refinement(self, odyssey, catalog, universe):
        for box in small_queries(universe, count=15):
            odyssey.query(box, [0, 1])
        for dataset_id, tree in odyssey.trees.items():
            assert tree.total_stored_objects() == catalog.get(dataset_id).n_objects

    def test_per_query_cost_decreases_with_repetition(self, odyssey, universe, disk):
        query = Box.cube((50.0, 50.0, 50.0), 6.0)
        costs = []
        for _ in range(6):
            disk.clear_cache()
            disk.reset_head()
            before = disk.stats_snapshot()
            odyssey.query(query, [0, 1])
            costs.append(disk.stats.delta_since(before).simulated_seconds)
        assert costs[-1] < costs[0]

    def test_summary_reflects_progress(self, odyssey, universe):
        # Each window four times: a window's leaves take two queries to
        # refine to its volume and two more to turn hot.
        windows = small_queries(universe, count=2)
        for box in windows * 4:
            odyssey.query(box, [0, 1, 2])
        summary = odyssey.summary()
        assert summary.merges_performed > 0
        assert summary.queries_executed == 8
        assert summary.datasets_initialized == 3
        assert summary.total_partitions >= 3 * odyssey.config.partitions_per_level


class TestMerging:
    def test_merge_file_created_for_hot_combination(self, odyssey, universe):
        query = Box.cube((50.0, 50.0, 50.0), 8.0)
        for _ in range(4):
            odyssey.query(query, [0, 1, 2])
        assert len(odyssey.merge_directory) == 1
        assert odyssey.merger.merges_performed >= 1
        assert frozenset({0, 1, 2}) in odyssey.merge_directory

    def test_small_combinations_not_merged(self, odyssey, universe):
        query = Box.cube((50.0, 50.0, 50.0), 8.0)
        for _ in range(5):
            odyssey.query(query, [0, 1])
        assert len(odyssey.merge_directory) == 0

    def test_merging_disabled(self, catalog, config, universe):
        odyssey = SpaceOdyssey(catalog, config.without_merging())
        query = Box.cube((50.0, 50.0, 50.0), 8.0)
        for _ in range(5):
            odyssey.query(query, [0, 1, 2])
        assert len(odyssey.merge_directory) == 0

    def test_queries_use_merge_file_after_creation(self, odyssey, universe, oracle):
        query = Box.cube((50.0, 50.0, 50.0), 8.0)
        for _ in range(5):
            odyssey.query(query, [0, 1, 2])
        report = odyssey.last_report
        assert report.route == "exact"
        assert report.partitions_from_merge > 0
        # And the answers remain correct while reading from the merge file.
        assert result_keys(odyssey.query(query, [0, 1, 2])) == result_keys(
            oracle.query(query, [0, 1, 2])
        )

    def test_superset_merge_file_serves_smaller_combination(self, odyssey, universe, oracle):
        query = Box.cube((50.0, 50.0, 50.0), 8.0)
        for _ in range(4):
            odyssey.query(query, [0, 1, 2, 3])
        odyssey.query(query, [0, 1, 2])
        assert odyssey.last_report.route in {"superset", "exact"}
        assert result_keys(odyssey.query(query, [0, 1, 2])) == result_keys(
            oracle.query(query, [0, 1, 2])
        )

    def test_correctness_after_merge_and_further_refinement(self, odyssey, oracle, universe):
        # Queries keep refining after the merge file exists; answers must not change.
        big = Box.cube((50.0, 50.0, 50.0), 12.0)
        small = Box.cube((50.0, 50.0, 50.0), 2.0)
        for _ in range(4):
            odyssey.query(big, [0, 1, 2])
        for _ in range(4):
            odyssey.query(small, [0, 1, 2])
        assert result_keys(odyssey.query(big, [0, 1, 2])) == result_keys(
            oracle.query(big, [0, 1, 2])
        )


class TestSpaceBudget:
    @staticmethod
    def explore(catalog, budget) -> SpaceOdyssey:
        config = OdysseyConfig(
            partitions_per_level=8,
            merge_threshold=1,
            min_merge_combination=3,
            merge_space_budget_pages=budget,
        )
        odyssey = SpaceOdyssey(catalog, config)
        for box, ids in [(Box.cube((30.0,) * 3, 10.0), [0, 1, 2])] * 4 + [
            (Box.cube((70.0,) * 3, 10.0), [1, 2, 3])
        ] * 4:
            odyssey.query(box, ids)
            check_merge_space(odyssey)
        return odyssey

    def test_refuses_past_the_budget(self, catalog, model, universe):
        bounded = self.explore(catalog, 4)
        twin = make_catalog(Disk(model=model, buffer_pages=0), universe, 4, count=400, seed=41)
        unbounded = self.explore(twin, None)
        # Unbounded, the same queries copy more than the budget holds.
        assert unbounded.summary().merge_pages > 4
        assert 0 < bounded.summary().merge_pages <= 4

    def test_an_unbounded_run_refuses_nothing(self, odyssey):
        combination = frozenset({0, 1, 2})
        for _ in range(5):
            odyssey.query(Box.cube((50.0, 50.0, 50.0), 8.0), sorted(combination))
        # Every key that qualifies has been copied.
        stats = odyssey.statistics.combination_stats(combination)
        merged = odyssey.merge_directory.get(combination).entries
        assert merged
        assert not odyssey.merger._qualifying_keys(combination, stats, odyssey.trees, merged)
