"""Command-line interface for regenerating the paper's figures.

Examples
--------
Run the Figure 4 panel with Zipf-distributed dataset ids at the default
(small) scale and print the table::

    python -m repro.cli fig4 --ids-dist zipf

Run the merging ablation (Figure 5c) at medium scale and save the raw data::

    python -m repro.cli fig5c --scale medium --output results/fig5c.json

Run everything the paper reports::

    python -m repro.cli all --scale small --output-dir results/

Run a short traced workload and export the engine's telemetry snapshot
(all subsystem counters, gauges and latency histograms) as JSON or
Prometheus text, optionally with the span trace::

    python -m repro.cli stats --format prometheus
    python -m repro.cli stats --output stats.json --trace trace.json

Every figure is in *simulated* seconds (the disk cost model); the wall
clock of the same builds and queries is printed and saved next to it
(``indexing_wall_seconds`` and ``querying_wall_seconds`` in the JSON), as
one run's measurement with no repetition.  Wall-clock performance claims
about the engine are measured by ``perfbench/run.py``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.bench import experiments, reporting
from repro.bench.scales import SCALES


def _positive_int(value: str) -> int:
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return number


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale",
        default="small",
        choices=sorted(SCALES),
        help="experiment scale preset (default: small)",
    )
    parser.add_argument(
        "--output",
        default=None,
        help="optional path of a JSON file to write the raw result to",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cli",
        description="Reproduce the evaluation of 'Space Odyssey' (ExploreDB/PODS 2016)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fig4 = sub.add_parser("fig4", help="Figure 4: total processing cost")
    fig4.add_argument(
        "--ids-dist",
        default="zipf",
        choices=["zipf", "heavy_hitter", "self_similar", "uniform"],
        help="distribution of the queried dataset combinations",
    )
    fig4.add_argument(
        "--ranges",
        default="clustered",
        choices=["clustered", "uniform"],
        help="distribution of the query ranges",
    )
    fig4.add_argument(
        "--datasets-queried",
        default="1,3,5,7,9",
        help="comma-separated numbers of datasets queried (x axis)",
    )
    _add_common(fig4)

    fig5a = sub.add_parser("fig5a", help="Figure 5a: per-query times (clustered/self-similar)")
    _add_common(fig5a)
    fig5b = sub.add_parser("fig5b", help="Figure 5b: per-query times (uniform/uniform)")
    _add_common(fig5b)
    fig5c = sub.add_parser("fig5c", help="Figure 5c: effect of merging")
    _add_common(fig5c)

    stats = sub.add_parser(
        "stats",
        help=(
            "run a short traced workload on a fresh engine and export its "
            "telemetry snapshot (JSON or Prometheus text)"
        ),
    )
    stats.add_argument(
        "--scale",
        default="tiny",
        choices=sorted(SCALES),
        help="experiment scale preset of the probe engine (default: tiny)",
    )
    stats.add_argument(
        "--queries",
        type=_positive_int,
        default=32,
        help="workload queries executed before the snapshot (default: 32)",
    )
    stats.add_argument(
        "--batch-size",
        type=_positive_int,
        default=8,
        help="batch size of the probe workload (default: 8)",
    )
    stats.add_argument(
        "--format",
        default="json",
        choices=["json", "prometheus"],
        help="snapshot encoding (default: json)",
    )
    stats.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="write the snapshot here instead of stdout",
    )
    stats.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="also dump the probe run's span trace to this JSON file",
    )

    everything = sub.add_parser("all", help="run every figure and write JSON results")
    everything.add_argument("--scale", default="small", choices=sorted(SCALES))
    everything.add_argument("--output-dir", default="results", help="directory for JSON results")
    return parser


def _maybe_save(result, output: str | None) -> None:
    if output:
        path = reporting.save_json(result, output)
        print(f"\nraw result written to {path}")


def _run_stats(args) -> None:
    """The ``stats`` command: probe workload → telemetry snapshot."""
    from repro.bench.runner import generate_workload
    from repro.bench.scales import get_scale
    from repro.data.suite import build_benchmark_suite
    from repro.obs import snapshot_to_json, snapshot_to_prometheus, write_trace

    scale = get_scale(args.scale)
    suite = build_benchmark_suite(
        n_datasets=scale.n_datasets,
        objects_per_dataset=scale.objects_per_dataset,
        seed=scale.seed,
        model=scale.disk_model(),
    )
    workload = list(
        generate_workload(
            suite.universe,
            suite.catalog.dataset_ids(),
            args.queries,
            seed=scale.seed,
            datasets_per_query=min(2, scale.n_datasets),
            volume_fraction=5e-3,
        )
    )
    from repro.core.odyssey import SpaceOdyssey

    odyssey = SpaceOdyssey(suite.catalog)
    tracer = odyssey.enable_tracing()
    for start in range(0, len(workload), args.batch_size):
        odyssey.query_batch(workload[start : start + args.batch_size])
    snapshot = odyssey.telemetry()
    if args.format == "prometheus":
        rendered = snapshot_to_prometheus(snapshot)
    else:
        rendered = snapshot_to_json(snapshot)
    if args.output:
        Path(args.output).write_text(rendered + "\n")
        print(f"telemetry snapshot written to {args.output}")
    else:
        print(rendered)
    if args.trace:
        count = write_trace(tracer, args.trace)
        print(f"{count} spans written to {args.trace}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    """Entry point of ``python -m repro.cli``."""
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.command == "fig4":
        ks = tuple(int(part) for part in args.datasets_queried.split(",") if part.strip())
        result = experiments.figure4(
            ids_distribution=args.ids_dist,
            ranges=args.ranges,
            scale=args.scale,
            datasets_queried=ks,
        )
        print(reporting.format_figure4_table(result))
        _maybe_save(result, args.output)
    elif args.command == "fig5a":
        result = experiments.figure5a(scale=args.scale)
        print(reporting.format_figure5_summary(result))
        _maybe_save(result, args.output)
    elif args.command == "fig5b":
        result = experiments.figure5b(scale=args.scale)
        print(reporting.format_figure5_summary(result))
        _maybe_save(result, args.output)
    elif args.command == "fig5c":
        result = experiments.figure5c(scale=args.scale)
        print(reporting.format_figure5c_summary(result))
        _maybe_save(result, args.output)
    elif args.command == "stats":
        _run_stats(args)
    elif args.command == "all":
        output_dir = Path(args.output_dir)
        panels = {
            "fig4a": lambda: experiments.figure4("zipf", "clustered", args.scale),
            "fig4b": lambda: experiments.figure4("heavy_hitter", "clustered", args.scale),
            "fig4c": lambda: experiments.figure4("self_similar", "clustered", args.scale),
            "fig4d": lambda: experiments.figure4("uniform", "uniform", args.scale),
            "fig5a": lambda: experiments.figure5a(args.scale),
            "fig5b": lambda: experiments.figure5b(args.scale),
            "fig5c": lambda: experiments.figure5c(args.scale),
        }
        for name, runner in panels.items():
            print(f"=== {name} ===")
            result = runner()
            if name.startswith("fig4"):
                print(reporting.format_figure4_table(result))
            elif name == "fig5c":
                print(reporting.format_figure5c_summary(result))
            else:
                print(reporting.format_figure5_summary(result))
            reporting.save_json(result, output_dir / f"{name}.json")
            print()
        print(f"raw results written to {output_dir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
