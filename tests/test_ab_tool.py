"""The arithmetic of ``tools/ab.py`` on canned perfbench run lines."""

from __future__ import annotations

import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location("ab", os.path.join(ROOT, "tools", "ab.py"))
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)


def run_line(qps: float, pages: float = 9.0, correct: bool = True, failed: int = 0) -> dict:
    """A perfbench ``--trace 0`` result line with every end-to-end metric."""
    metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in SPEC["end_to_end"]}
    metrics["qps"]["value"] = qps
    metrics["read_pages_per_q"]["value"] = pages
    return {"correct": correct, "attempted": 100, "failed": failed, "metrics": metrics}


def test_quartiles_interpolate_inclusively():
    assert ab.summary([4.0]) == {"median": 4.0, "q1": 4.0, "q3": 4.0, "iqr": 0.0}
    stats = ab.summary([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0])
    assert stats["median"] == 5.5
    assert (stats["q1"], stats["q3"]) == (3.25, 7.75)
    assert stats["iqr"] == 4.5
    assert ab.summary([3.0, 1.0, 2.0])["median"] == 2.0


def test_pairs_won_count_no_ties():
    cell = ab.compare([100.0, 100.0, 100.0], [110.0, 100.0, 90.0], "higher", 0.25)
    assert cell["won"] == 1 and cell["pairs"] == 3
    cell = ab.compare([1.0, 1.0], [0.5, 1.0], "lower", 0.25)
    assert cell["won"] == 1


def test_a_gain_needs_nine_tenths_of_the_pairs_and_more_than_the_iqr():
    parent = [1000.0, 1010.0, 990.0, 1005.0, 995.0, 1002.0, 998.0, 1001.0, 999.0, 1000.0]
    change = [value + 60.0 for value in parent]
    assert ab.compare(parent, change, "higher", 0.25)["verdict"] == "gain"
    # Nine wins of ten still claim; eight do not.
    nine = change[:9] + [parent[9] - 1.0]
    assert ab.compare(parent, nine, "higher", 0.25)["verdict"] == "gain"
    eight = change[:8] + [parent[8] - 1.0, parent[9] - 1.0]
    assert ab.compare(parent, eight, "higher", 0.25)["verdict"] == "same"
    # Fewer than ten pairs never claim.
    assert ab.compare(parent[:9], change[:9], "higher", 0.25)["verdict"] == "same"
    # Every pair won, but by less than the parent's spread.
    small = [value + 1.0 for value in parent]
    assert ab.compare(parent, small, "higher", 0.25)["verdict"] == "same"


def test_worse_beyond_the_bound_and_unresolved_beyond_the_spread():
    parent = [10.0, 10.0, 10.0, 10.0]
    assert ab.compare(parent, [12.6] * 4, "lower", 0.25)["verdict"] == "worse"
    assert ab.compare(parent, [12.4] * 4, "lower", 0.25)["verdict"] == "same"
    assert ab.compare(parent, [7.4] * 4, "higher", 0.25)["verdict"] == "worse"
    wide = [5.0, 10.0, 15.0, 20.0]
    assert ab.compare(wide, [14.0, 11.0, 13.0, 12.0], "lower", 0.25)["verdict"] == "unresolved"
    # Every change run better than every parent run is never unresolved.
    assert ab.compare(wide, [1.0, 2.0, 3.0, 4.0], "lower", 0.25)["verdict"] != "unresolved"


def test_counts_and_health():
    parent = [run_line(900.0), run_line(950.0)]
    assert ab.counts_equal(parent, [run_line(1000.0), run_line(1.0)])
    assert not ab.counts_equal(parent, [run_line(1000.0), run_line(1.0, pages=9.000001)])
    assert ab.healthy(run_line(1.0))
    assert not ab.healthy(run_line(1.0, correct=False))
    assert not ab.healthy(run_line(1.0, failed=2))
    assert not ab.healthy({"correct": True, "metrics": {}})


def test_history_line_and_table():
    runs = {"explore": [run_line(900.0), run_line(1000.0), run_line(1100.0)]}
    line = ab.history_line("change", "abc", runs, {"nproc": 2, "python": "3.11", "numpy": "2"})
    assert line["role"] == "change" and line["sha"] == "abc" and line["nproc"] == 2
    assert line["cells"]["qps@explore"] == {"median": 1000.0, "iqr": 100.0}
    assert len(line["cells"]) == len(SPEC["end_to_end"])
    results = {
        "explore": {
            "counts_equal": True,
            "metrics": {
                metric["name"]: ab.compare([1.0, 1.0], [1.0, 1.0], metric["better"], metric["bound"])
                for metric in SPEC["end_to_end"]
            },
        }
    }
    rows = ab.table(results, SPEC)
    assert len(rows) == 3
    assert rows[2].startswith("| `explore` |") and rows[2].endswith("| equal |")
    assert rows[2].count("(0/2, same)") == len(SPEC["end_to_end"])


def test_a_metric_one_side_lacks_is_na():
    parent = [run_line(900.0), run_line(950.0)]
    for run in parent:
        del run["metrics"]["peak_rss_mb"]
        del run["metrics"]["seeks_per_q"]
    change = [run_line(1000.0), run_line(1000.0)]
    entry = ab.compare_workload(parent, change, SPEC)
    assert entry["metrics"]["peak_rss_mb"] is None
    assert entry["metrics"]["qps"]["won"] == 2
    # The count both sides report still decides equality.
    assert entry["counts_equal"]
    change[1]["metrics"]["read_pages_per_q"]["value"] = 10.0
    assert not ab.compare_workload(parent, change, SPEC)["counts_equal"]
    row = ab.table({"explore": entry}, SPEC)[2]
    assert row.count("n/a") == 2 and row.endswith("| equal |")


@pytest.mark.parametrize("direction", ["lower", "higher"])
def test_better_follows_the_direction(direction):
    assert ab.better(1.0, 2.0, direction) == (direction == "lower")
    assert not ab.better(1.0, 1.0, direction)
