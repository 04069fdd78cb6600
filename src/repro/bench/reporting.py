"""Text and JSON reporting of experiment results.

These functions print the same rows and series the paper's figures report:
Figure 4 becomes a table of indexing/querying/total simulated seconds per
approach and per number of datasets queried; Figure 5 becomes per-query time
series summaries (first query, median, tail) plus the raw series in JSON for
plotting.  Both also show the measured wall clock of the same runs (the
``[wall]`` block and column), and the JSON carries it per cell and series.
"""

from __future__ import annotations

import json
from dataclasses import asdict, is_dataclass
from pathlib import Path
from statistics import median
from typing import Any

from repro.bench.experiments import (
    Figure4Result,
    Figure5Result,
    Figure5cResult,
)


def _fmt(seconds: float) -> str:
    return f"{seconds:10.2f}"


def format_figure4_table(result: Figure4Result) -> str:
    """Figure 4 as a text table (one block per x-axis position)."""
    lines = [
        f"Figure 4 — ranges: {result.ranges}, dataset ids: {result.ids_distribution}, "
        f"scale: {result.scale}, {result.n_queries} queries "
        f"(simulated seconds; [wall] is the measured wall clock)",
        "",
    ]
    header = f"{'#datasets (#combos)':<22}" + "".join(
        f"{name:>14}" for name in result.approaches
    )
    lines.append(header)
    lines.append("-" * len(header))
    for kind in ("indexing", "querying", "total", "wall"):
        lines.append(f"[{kind}]")
        for point in result.points:
            label = f"{point.datasets_queried} ({point.combinations_queried})"
            row = f"{label:<22}"
            for name in result.approaches:
                cell = point.cells[name]
                if kind == "indexing":
                    value = cell.indexing_seconds
                elif kind == "querying":
                    value = cell.querying_seconds
                elif kind == "total":
                    value = cell.total_seconds
                else:
                    value = cell.indexing_wall_seconds + cell.querying_wall_seconds
                row += f"{value:>14.2f}"
            lines.append(row)
        lines.append("")
    lines.append("[queries Odyssey answers before Grid-1fE finishes indexing]")
    for point in result.points:
        answered = point.odyssey_queries_within_grid_build
        if answered is not None:
            lines.append(
                f"  {point.datasets_queried} datasets: {answered} of {result.n_queries}"
            )
    return "\n".join(lines)


def format_figure5_summary(result: Figure5Result) -> str:
    """Figure 5a/5b as a text summary of each approach's per-query series."""
    lines = [
        f"Figure 5 ({result.label}) — ranges: {result.ranges}, dataset ids: "
        f"{result.ids_distribution}, #datasets queried: {result.datasets_per_query}, "
        f"scale: {result.scale} (simulated seconds; wall is the measured wall clock)",
        "",
        f"{'approach':<14}{'indexing':>12}{'first query':>14}{'median query':>14}"
        f"{'tail mean':>12}{'total':>12}{'wall':>10}",
    ]
    for name, series in result.series.items():
        per_query = series.per_query_seconds
        lines.append(
            f"{name:<14}"
            f"{_fmt(series.indexing_seconds)!s:>12}"
            f"{per_query[0]:>14.4f}"
            f"{median(per_query):>14.4f}"
            f"{series.tail_mean():>12.4f}"
            f"{series.total_seconds:>12.2f}"
            f"{series.indexing_wall_seconds + series.querying_wall_seconds:>10.2f}"
        )
    return "\n".join(lines)


def format_figure5c_summary(result: Figure5cResult) -> str:
    """Figure 5c as a text summary of the merging ablation."""
    lines = [
        f"Figure 5c — effect of merging (scale: {result.scale})",
        f"most popular combination: {result.popular_combination} "
        f"(queried {result.popular_query_count} times)",
        f"merge operations performed: {result.merges_performed}, "
        f"merge files: {result.merge_files}",
        f"average per-query gain from merging: {result.average_gain_percent:.1f}% "
        f"(paper reports ~25%)",
        f"gain on total time of the popular combination: {result.total_gain_percent:.1f}%",
    ]
    return "\n".join(lines)


def to_jsonable(value: Any) -> Any:
    """Recursively convert experiment results into JSON-serialisable data."""
    if is_dataclass(value) and not isinstance(value, type):
        return {key: to_jsonable(item) for key, item in asdict(value).items()}
    if isinstance(value, dict):
        return {str(key): to_jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [to_jsonable(item) for item in value]
    return value


def save_json(result: Any, path: str | Path) -> Path:
    """Write an experiment result to a JSON file and return the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(to_jsonable(result), indent=2, sort_keys=True))
    return path
