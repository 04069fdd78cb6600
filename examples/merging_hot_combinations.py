#!/usr/bin/env python3
"""The effect of merging: co-locating partitions queried together.

Section 3.2 of the paper is about the second adaptation Space Odyssey
performs: when the *same combination* of (three or more) datasets keeps
being queried over the same areas, the partitions involved are copied into
an append-only merge file in which every dataset's objects are laid out
sequentially, so the combination can be read with (mostly) sequential I/O.

This example makes the mechanism visible:

* a hot 3-dataset combination is queried repeatedly over a few brain
  regions, with merging enabled and disabled;
* we print when the merge file appears, how queries are routed (exact /
  superset / subset / none), and the per-query simulated cost before and
  after merging.

Run it with:

    python examples/merging_hot_combinations.py
"""

from __future__ import annotations

from statistics import mean

from repro import Box, SpaceOdyssey
from repro.bench.approaches import odyssey_config_for
from repro.bench.scales import SCALES
from repro.data.suite import build_benchmark_suite


def run_session(suite, merging: bool):
    """Query the same 3-dataset combination over 4 hot regions, 12 rounds."""
    scale = SCALES["small"]
    config = odyssey_config_for(scale)
    if not merging:
        config = config.without_merging()
    odyssey = SpaceOdyssey(suite.catalog, config)
    combination = [1, 4, 8]
    query_side = (suite.universe.volume() * 1e-4) ** (1 / 3)
    hot_regions = [
        Box.cube(tuple(center), query_side).clamp(suite.universe)
        for center in suite.generator.microcircuit_centers[:4]
    ]
    per_round_cost = []
    merge_created_at = None
    for round_index in range(12):
        before = suite.disk.stats_snapshot()
        for region in hot_regions:
            suite.disk.clear_cache()
            suite.disk.reset_head()
            odyssey.query(region, combination)
            if merge_created_at is None and odyssey.last_report.merged:
                merge_created_at = round_index
        delta = suite.disk.stats.delta_since(before)
        per_round_cost.append(delta.simulated_seconds)
    return odyssey, per_round_cost, merge_created_at


def main() -> None:
    master = build_benchmark_suite(
        n_datasets=10,
        objects_per_dataset=6_000,
        seed=21,
        buffer_pages=512,
        model=SCALES["small"].disk_model(),
    )

    print("=== merging enabled (paper configuration: mt = 2, |C| >= 3) ===")
    suite = master.fork()
    odyssey, with_merging, created_at = run_session(suite, merging=True)
    summary = odyssey.summary()
    print(f"merge file first created during round {created_at}")
    print(f"merge files: {summary.merge_files}, pages: {summary.merge_pages}, "
          f"merge operations: {summary.merges_performed}")
    print(f"last query routing: {odyssey.last_report.route!r}, "
          f"partitions served from the merge file: {odyssey.last_report.partitions_from_merge}")

    print("\n=== merging disabled (ablation, as in Figure 5c) ===")
    suite = master.fork()
    _, without_merging, _ = run_session(suite, merging=False)

    print("\nper-round simulated cost of the hot combination (seconds):")
    print(f"{'round':>6}{'with merging':>16}{'without merging':>18}")
    for index, (with_m, without_m) in enumerate(zip(with_merging, without_merging)):
        marker = "  <- merge file in use" if created_at is not None and index > created_at else ""
        print(f"{index:>6}{with_m:>16.4f}{without_m:>18.4f}{marker}")

    steady_with = mean(with_merging[-5:])
    steady_without = mean(without_merging[-5:])
    gain = (steady_without - steady_with) / steady_without * 100
    print(f"\nsteady-state gain from merging over the last 5 rounds: {gain:.1f}% "
          f"(the paper reports ~25% on average for merged queries)")


if __name__ == "__main__":
    main()
