"""Ablation benchmarks for Space Odyssey's design choices.

The paper fixes ``rt = 4``, ``ppl = 64`` and ``mt = 2``; these benchmarks
sweep the parameters the paper calls out (and lists as open issues) and
record the total simulated workload time for each setting, so the effect of
every design choice can be quantified at reproduction scale.  Simulated
time is deterministic, so the ppl sweep also asserts the paper's reason
for 64, at the scales where it holds: it converges faster than 8 and
costs less in total.
"""

from __future__ import annotations

import pytest

from repro.bench.approaches import odyssey_config_for
from repro.bench.experiments import build_suite, build_workload
from repro.bench.runner import run_approach
from repro.core.config import OdysseyConfig
from repro.core.odyssey import SpaceOdyssey


@pytest.fixture(scope="module")
def environment(scale):
    """One shared suite + workload for all ablations (forked per run)."""
    suite = build_suite(scale)
    workload = build_workload(
        suite,
        scale,
        ranges="clustered",
        ids_distribution="zipf",
        datasets_per_query=min(3, scale.n_datasets),
    )
    return suite, workload


def _run_odyssey(environment, config: OdysseyConfig) -> float:
    suite, workload = environment
    fork = suite.fork()
    odyssey = SpaceOdyssey(fork.catalog, config)
    result = run_approach(odyssey, workload, fork.disk)
    return result.total_seconds


#: Scales at which ppl = 64 measured a lower simulated total than ppl = 8
#: (ppl 8 / ppl 64, seconds): bench-tiny 0.0823 / 0.0642, tiny 0.1013 /
#: 0.0791, small 0.4756 / 0.3853.  At ``medium`` (3.832 / 5.353) and
#: ``paper`` (13.475 / 21.441) the order is reversed, so there the sweep
#: only records both totals.
PPL_64_COSTS_LESS_AT = frozenset({"bench-tiny", "tiny", "small"})


@pytest.mark.benchmark(group="ablation-ppl")
def test_partitions_per_level(benchmark, environment, scale):
    """The paper's ppl = 64 converges faster than a plain Octree's 8, so it
    costs less -- asserted at the scales of ``PPL_64_COSTS_LESS_AT`` only."""
    base = odyssey_config_for(scale)
    configs = {
        ppl: OdysseyConfig(
            refinement_threshold=base.refinement_threshold,
            partitions_per_level=ppl,
            merge_threshold=base.merge_threshold,
            min_merge_combination=base.min_merge_combination,
        )
        for ppl in (8, 64)
    }
    totals = benchmark.pedantic(
        lambda: {ppl: _run_odyssey(environment, config) for ppl, config in configs.items()},
        rounds=1,
        iterations=1,
    )
    for ppl, total in totals.items():
        benchmark.extra_info[f"total_simulated_s_ppl{ppl}"] = round(total, 4)
    assert totals[8] > 0 and totals[64] > 0
    if scale.name in PPL_64_COSTS_LESS_AT:
        assert totals[64] < totals[8]


@pytest.mark.benchmark(group="ablation-rt")
@pytest.mark.parametrize("rt", [1.0, 4.0, 16.0])
def test_refinement_threshold(benchmark, environment, scale, rt):
    """Sweep the refinement threshold around the paper's rt = 4."""
    base = odyssey_config_for(scale)
    config = OdysseyConfig(
        refinement_threshold=rt,
        partitions_per_level=base.partitions_per_level,
        merge_threshold=base.merge_threshold,
        min_merge_combination=base.min_merge_combination,
    )
    total = benchmark.pedantic(lambda: _run_odyssey(environment, config), rounds=1, iterations=1)
    benchmark.extra_info["rt"] = rt
    benchmark.extra_info["total_simulated_s"] = round(total, 4)
    assert total > 0


@pytest.mark.benchmark(group="ablation-merging")
@pytest.mark.parametrize("merging", ["enabled", "disabled"])
def test_merging_policy(benchmark, environment, scale, merging):
    """Static merging (paper) and no merging; Figure 5c owns the verdict."""
    config = odyssey_config_for(scale)
    if merging == "disabled":
        config = config.without_merging()
    total = benchmark.pedantic(lambda: _run_odyssey(environment, config), rounds=1, iterations=1)
    benchmark.extra_info["merging"] = merging
    benchmark.extra_info["total_simulated_s"] = round(total, 4)
    assert total > 0


@pytest.mark.benchmark(group="ablation-budget")
@pytest.mark.parametrize("budget_pages", [8, 1024, None])
def test_merge_space_budget(benchmark, environment, scale, budget_pages):
    """Merge-file space budget: tight, generous, unbounded (copies past it refused)."""
    base = odyssey_config_for(scale)
    config = OdysseyConfig(
        refinement_threshold=base.refinement_threshold,
        partitions_per_level=base.partitions_per_level,
        merge_threshold=base.merge_threshold,
        min_merge_combination=base.min_merge_combination,
        merge_space_budget_pages=budget_pages,
    )
    total = benchmark.pedantic(lambda: _run_odyssey(environment, config), rounds=1, iterations=1)
    benchmark.extra_info["budget_pages"] = budget_pages if budget_pages is not None else "unbounded"
    benchmark.extra_info["total_simulated_s"] = round(total, 4)
    assert total > 0


@pytest.mark.benchmark(group="ablation-grid")
@pytest.mark.parametrize("cells_per_dim", [4, 10, 20])
def test_grid_resolution_sweep(benchmark, environment, scale, cells_per_dim):
    """The paper tunes its Grid baseline by sweeping the cell count; redo it."""
    from repro.baselines.grid import GridIndex
    from repro.baselines.strategies import OneForEach

    suite, workload = environment

    def run() -> float:
        fork = suite.fork()
        grid = OneForEach(
            fork.catalog,
            lambda name: GridIndex(
                fork.disk, name, fork.universe, cells_per_dim=cells_per_dim
            ),
            f"Grid-1fE-{cells_per_dim}",
        )
        return run_approach(grid, workload, fork.disk).total_seconds

    total = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["cells_per_dim"] = cells_per_dim
    benchmark.extra_info["total_simulated_s"] = round(total, 4)
    assert total > 0
