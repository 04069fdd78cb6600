#!/usr/bin/env python3
"""Prove the benchmark measures: slow one layer down, watch the right cell move.

    python3 perfbench/perturb.py [--passes 4] [--scale full] [--seed 11]

From the harness only (no file under ``src/`` changes), one layer entry
point at a time gets a calibrated busy-wait in front of it.  For every
injection two workloads are measured with and without it:

* the workload the layer's row *predicts* (``qps`` there must lose at
  least 70 % of the injected time);
* a workload the row says must *not* move beyond what was injected there
  — nothing at all when its input never reaches the entry point.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from pbench.harness import load_spec, reference_pass, scratch_directory  # noqa: E402
from pbench.inputs import SCALES  # noqa: E402
from pbench.workloads import WORKLOADS  # noqa: E402

#: (module, class, method, busy-wait seconds, predicted workload, unmoved workload)
INJECTIONS = (
    ("repro.core.merger", "Merger", "maybe_merge", 1e-3, "explore", "converged"),
    ("repro.data.columnar", "DecodedGroup", "materialize", 50e-6, "converged", "explore"),
    ("repro.storage.journal", "ManifestJournal", "commit", 2e-3, "durable", "explore"),
    ("repro.core.odyssey", "SpaceOdyssey", "prepare_batch", 5e-3, "serve", "converged"),
)


class Delay:
    """Context manager: ``seconds`` of busy-wait before every call of a method."""

    def __init__(self, module: str, cls: str, method: str, seconds: float) -> None:
        self._owner = getattr(importlib.import_module(module), cls)
        self._method = method
        self._seconds = seconds
        self.calls = 0

    def __enter__(self) -> "Delay":
        self._original = original = vars(self._owner)[self._method]
        perf = time.perf_counter
        seconds = self._seconds

        def delayed(*args, **kwargs):
            self.calls += 1
            until = perf() + seconds
            while perf() < until:
                pass
            return original(*args, **kwargs)

        setattr(self._owner, self._method, delayed)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        setattr(self._owner, self._method, self._original)


def walls(name, injection, scale, seed, passes) -> tuple[float, float, float]:
    """Median pass wall without and with the injection, and seconds injected per pass."""
    module, cls, method, seconds, _predicted, _unmoved = injection
    workload = WORKLOADS[name](scale, seed)
    try:
        workload.setup()
        workload.prepare_checks()
        gc.collect()
        plain = [workload.measure() for _ in range(passes)]
        with Delay(module, cls, method, seconds) as delay:
            slowed = [workload.measure() for _ in range(passes)]
        injected = delay.calls * seconds / passes
        typical = [
            statistics.median(reference_pass(workload, sample)[1] for sample in samples)
            for samples in (plain, slowed)
        ]
        return typical[0], typical[1], injected
    finally:
        workload.discard()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--passes", type=int, default=4)
    parser.add_argument("--scale", choices=tuple(SCALES), default="full")
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args(argv)
    scale = SCALES[args.scale]
    bound = next(e["bound"] for e in load_spec()["end_to_end"] if e["name"] == "qps")

    failed = False
    with scratch_directory("perturb-"):
        for injection in INJECTIONS:
            module, cls, method, seconds, predicted, unmoved = injection
            print(f"{cls}.{method} +{seconds * 1e6:.0f} us per call")
            plain, slowed, injected = walls(predicted, injection, scale, args.seed, args.passes)
            moved = slowed - plain
            ok = moved >= 0.7 * injected
            failed |= not ok
            print(
                f"  qps@{predicted:9s} wall {plain:.3f} -> {slowed:.3f} s: lost {moved:.3f} s of"
                f" {injected:.3f} s injected ({moved / injected:.0%}, needs >= 70%)  {'ok' if ok else 'FAILED'}"
            )
            plain, slowed, injected = walls(unmoved, injection, scale, args.seed, args.passes)
            drift = abs(slowed - plain - injected) / plain
            ok = drift <= bound
            failed |= not ok
            print(
                f"  qps@{unmoved:9s} wall {plain:.3f} -> {slowed:.3f} s with {injected:.3f} s injected:"
                f" {drift:.1%} unexplained (bound {bound:.0%})  {'ok' if ok else 'FAILED'}"
            )
    print("perturbation check " + ("FAILED" if failed else "passed"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
