"""Benchmark harness: regenerates every figure of the paper's evaluation.

* :mod:`repro.bench.scales` — experiment scale presets (the paper's setup
  scaled down to laptop-friendly sizes while preserving the ratios that
  drive the results);
* :mod:`repro.bench.approaches` — registry of the competing approaches
  (FLAT-Ain1, FLAT-1fE, RTree-Ain1, RTree-1fE, Grid-1fE, Grid-Ain1,
  Odyssey, Odyssey without merging);
* :mod:`repro.bench.runner` — runs one approach over one workload, charging
  indexing and querying to the simulated disk and recording per-query
  timings;
* :mod:`repro.bench.experiments` — the experiment definitions for
  Figure 4a–d and Figure 5a–c;
* :mod:`repro.bench.reporting` — text tables and JSON dumps.
"""

from repro.bench.approaches import APPROACHES, make_approach
from repro.bench.experiments import figure4, figure5a, figure5b, figure5c
from repro.bench.runner import ApproachResult, QueryTiming, run_approach
from repro.bench.scales import SCALES, ExperimentScale

__all__ = [
    "APPROACHES",
    "ApproachResult",
    "ExperimentScale",
    "QueryTiming",
    "SCALES",
    "figure4",
    "figure5a",
    "figure5b",
    "figure5c",
    "make_approach",
    "run_approach",
]
