"""Smoke test: the four workloads at the rehearsal scale, traced.

Runs the identical procedure as the full benchmark on a dataset small
enough for tier-1 and checks what the driver's contract needs: the output
matches ``BENCHMARK.json`` name for name, every cell is finite, answers
are correct, and the trace wrappers are gone afterwards.
"""

from __future__ import annotations

import importlib
import math
import os
import re
import sys

import pytest

PERFBENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, PERFBENCH)

from pbench.harness import OUT_DIR, load_spec, run  # noqa: E402
from pbench.inputs import REHEARSAL  # noqa: E402
from pbench.tracing import TARGETS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _patched_attributes() -> list:
    found = []
    for _span, module_name, class_name, attr, _attrs in TARGETS:
        module = importlib.import_module(module_name)
        owner = getattr(module, class_name) if class_name else module
        found.append(vars(owner)[attr])
    return found


def test_spec_shape():
    spec = load_spec()
    assert [w["name"] for w in spec["workloads"]] == ["explore", "converged", "serve", "durable"]
    assert len(spec["end_to_end"]) == 9
    assert 1 <= len(spec["per_layer"]) <= 128
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert any(
        m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
        for m in spec["end_to_end"]
    )
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


@pytest.mark.parametrize("workload", ["explore", "converged", "serve", "durable"])
def test_rehearsal_run(workload):
    spec = load_spec()
    before = _patched_attributes()
    left_before = set(os.listdir(OUT_DIR)) if os.path.isdir(OUT_DIR) else set()
    outcome = run(workload, seed=11, seconds=0, trace=True, scale=REHEARSAL, report=lambda line: None)
    assert all(a is b for a, b in zip(_patched_attributes(), before)), "trace wrappers left installed"
    assert outcome.failures == []
    assert outcome.attempted >= REHEARSAL.min_passes * 60

    layers = outcome.result(spec, per_layer=True)
    assert layers["correct"] and layers["failed"] == 0
    assert list(layers["metrics"]) == [m["name"] for m in spec["per_layer"]]
    end_to_end = outcome.result(spec, per_layer=False)
    assert list(end_to_end["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    for name, cell in {**layers["metrics"], **end_to_end["metrics"]}.items():
        assert math.isfinite(cell["value"]), name
    # An end-to-end metric may never read 0: a regression bound is a share of it.
    assert all(cell["value"] > 0 for cell in end_to_end["metrics"].values())
    assert layers["metrics"]["perfbench.trace_targets_missing"]["value"] == 0
    # Nothing but the trace file stays behind: temp directories are removed.
    assert set(os.listdir(OUT_DIR)) - left_before <= {f"trace_{workload}.json"}
