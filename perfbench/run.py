#!/usr/bin/env python3
"""perfbench entry point: run one workload and print its metrics.

    python3 perfbench/run.py --workload explore --seed 11 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``).
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SOURCE = os.path.join(os.path.dirname(HERE), "src")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("explore", "converged", "serve", "durable"))
    parser.add_argument("--seed", type=int, default=11, help="seeds the query generators only")
    parser.add_argument("--seconds", type=float, default=10.0, help="how long the timed passes repeat")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "rehearsal"), default="full")
    args = parser.parse_args(argv)

    # Measure this checkout's engine, never one installed elsewhere.
    sys.path[:0] = [SOURCE, HERE]
    import repro

    if not os.path.abspath(repro.__file__).startswith(SOURCE + os.sep):
        print(f"perfbench: repro was imported from {repro.__file__}, not {SOURCE}", file=sys.stderr)
        return 2

    from pbench.harness import load_spec, run
    from pbench.inputs import SCALES

    outcome = run(args.workload, args.seed, args.seconds, bool(args.trace), SCALES[args.scale])
    result = outcome.result(load_spec(), per_layer=bool(args.trace))
    for name, cell in result["metrics"].items():
        print(f"  {name:40s} {cell['value']:16.6f} {cell['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
