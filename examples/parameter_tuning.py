#!/usr/bin/env python3
"""Tuning Space Odyssey: refinement threshold, fan-out and merging policy.

The paper fixes ``rt = 4``, ``ppl = 64`` and ``mt = 2`` and explicitly lists
"a cost model that adapts the parameters at runtime" as future work.  This
example sweeps the two structural parameters and compares the paper's static
merging trigger with no merging at all.

For each configuration it reports, over the same exploration workload:

* total simulated processing time,
* how many partitions were materialised (index footprint),
* how many merge operations were performed and how much merge space used.

Run it with:

    python examples/parameter_tuning.py
"""

from __future__ import annotations

from repro import SpaceOdyssey
from repro.bench.runner import run_approach
from repro.core.config import OdysseyConfig
from repro.data.suite import build_benchmark_suite
from repro.storage.cost_model import DiskModel
from repro.workload import ClusteredRangeGenerator, CombinationGenerator, WorkloadBuilder


def build_environment():
    suite = build_benchmark_suite(
        n_datasets=8,
        objects_per_dataset=4_000,
        seed=5,
        buffer_pages=512,
        model=DiskModel(seek_time_s=1e-4),
    )
    ranges = ClusteredRangeGenerator(
        universe=suite.universe,
        volume_fraction=1e-4,
        seed=11,
        n_cluster_centers=6,
        cluster_centers=suite.generator.microcircuit_centers,
    )
    combinations = CombinationGenerator(
        dataset_ids=suite.catalog.dataset_ids(),
        datasets_per_query=4,
        distribution="zipf",
        seed=12,
    )
    workload = WorkloadBuilder(ranges, combinations).build(80)
    return suite, workload


def evaluate(suite, workload, label: str, config: OdysseyConfig) -> dict:
    fork = suite.fork()
    odyssey = SpaceOdyssey(fork.catalog, config)
    result = run_approach(odyssey, workload, fork.disk)
    summary = odyssey.summary()
    return {
        "label": label,
        "total_s": result.total_seconds,
        "partitions": summary.total_partitions,
        "depth": summary.max_tree_depth,
        "merge_ops": summary.merges_performed,
        "merge_pages": summary.merge_pages,
    }


def main() -> None:
    suite, workload = build_environment()
    rows = []

    # 1. Refinement threshold sweep (rt): lower = more eager refinement.
    for rt in (1.0, 4.0, 16.0):
        rows.append(
            evaluate(suite, workload, f"rt={rt:g}", OdysseyConfig(refinement_threshold=rt))
        )

    # 2. Partitions per level (ppl): 8 = plain Octree, 64 = the paper's choice.
    for ppl in (8, 64):
        rows.append(
            evaluate(suite, workload, f"ppl={ppl}", OdysseyConfig(partitions_per_level=ppl))
        )

    # 3. Merging: off, and the paper's static trigger.
    rows.append(evaluate(suite, workload, "merging off", OdysseyConfig().without_merging()))
    rows.append(evaluate(suite, workload, "merging static mt=2", OdysseyConfig()))

    header = (
        f"{'configuration':<22}{'total sim. s':>14}{'partitions':>12}{'depth':>7}"
        f"{'merge ops':>11}{'merge pages':>13}"
    )
    print(header)
    print("-" * len(header))
    for row in rows:
        print(
            f"{row['label']:<22}{row['total_s']:>14.3f}{row['partitions']:>12}"
            f"{row['depth']:>7}{row['merge_ops']:>11}{row['merge_pages']:>13}"
        )

    print(
        "\nReading the table: a lower rt or higher ppl refines more aggressively "
        "(more partitions, deeper trees) which costs time up front and pays off "
        "only if the same areas keep being queried; merging copies a combination's "
        "hot partitions once it has been retrieved more than mt times."
    )


if __name__ == "__main__":
    main()
