"""Tests for the experiment definitions and the command-line interface."""

from __future__ import annotations

import argparse
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench import experiments, reporting
from repro.bench.scales import SCALES
from repro.cli import _build_parser, main


@pytest.fixture(scope="module")
def micro_scale():
    return SCALES["tiny"].scaled(
        name="micro",
        n_datasets=4,
        objects_per_dataset=500,
        n_queries=12,
        grid_cells_per_dim=4,
    )


class TestFigure4:
    @pytest.fixture(scope="class")
    def result(self, micro_scale):
        return experiments.figure4(
            ids_distribution="zipf",
            ranges="clustered",
            scale=micro_scale,
            datasets_queried=(1, 3),
            approaches=("Grid-1fE", "Odyssey"),
        )

    def test_structure(self, result):
        assert [p.datasets_queried for p in result.points] == [1, 3]
        for point in result.points:
            assert set(point.cells) == {"Grid-1fE", "Odyssey"}
            assert point.combinations_queried >= 1
            assert point.odyssey_queries_within_grid_build is not None

    def test_totals_are_consistent(self, result):
        for point in result.points:
            for cell in point.cells.values():
                assert cell.total_seconds == pytest.approx(
                    cell.indexing_seconds + cell.querying_seconds
                )
            assert point.total("Odyssey") > 0

    def test_point_lookup(self, result):
        assert result.point(1).datasets_queried == 1
        with pytest.raises(KeyError):
            result.point(9)

    def test_table_formatting(self, result):
        table = reporting.format_figure4_table(result)
        assert "Grid-1fE" in table
        assert "Odyssey" in table
        assert "[indexing]" in table and "[total]" in table

    def test_invalid_inputs(self, micro_scale):
        with pytest.raises(ValueError):
            experiments.figure4(ranges="spiral", scale=micro_scale, datasets_queried=(1,))
        with pytest.raises(ValueError):
            experiments.figure4(ids_distribution="nope", scale=micro_scale, datasets_queried=(1,))


class TestFigure5:
    def test_figure5a_series(self, micro_scale):
        result = experiments.figure5a(scale=micro_scale, approaches=("Grid-1fE", "Odyssey"))
        assert set(result.series) == {"Grid-1fE", "Odyssey"}
        series = result.get("Odyssey")
        assert len(series.per_query_seconds) == micro_scale.n_queries
        assert series.indexing_seconds == 0.0
        assert series.total_seconds > 0
        summary = reporting.format_figure5_summary(result)
        assert "Odyssey" in summary

    def test_figure5b_uses_uniform_distributions(self, micro_scale):
        result = experiments.figure5b(scale=micro_scale, approaches=("Odyssey",))
        assert result.ranges == "uniform"
        assert result.ids_distribution == "uniform"

    def test_figure5c_structure(self, micro_scale):
        result = experiments.figure5c(scale=micro_scale, datasets_per_query=3)
        assert result.popular_query_count == len(result.with_merging)
        assert len(result.with_merging) == len(result.without_merging)
        assert len(result.popular_combination) == 3
        summary = reporting.format_figure5c_summary(result)
        assert "merging" in summary


class TestCLI:
    def test_fig5a_command(self, capsys, micro_scale, monkeypatch):
        monkeypatch.setitem(SCALES, "micro", micro_scale)
        exit_code = main(["fig5a", "--scale", "micro"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Figure 5" in out

    def test_fig4_command_with_output(self, capsys, tmp_path, micro_scale, monkeypatch):
        monkeypatch.setitem(SCALES, "micro", micro_scale)
        output = tmp_path / "fig4.json"
        exit_code = main(
            [
                "fig4",
                "--scale",
                "micro",
                "--ids-dist",
                "heavy_hitter",
                "--datasets-queried",
                "1,3",
                "--output",
                str(output),
            ]
        )
        assert exit_code == 0
        assert output.exists()
        payload = json.loads(output.read_text())
        assert payload["ids_distribution"] == "heavy_hitter"

    def test_unknown_command_fails(self):
        with pytest.raises(SystemExit):
            main(["figure9000"])

    def test_unknown_scale_fails(self):
        with pytest.raises(SystemExit):
            main(["fig5a", "--scale", "galactic"])


# --------------------------------------------------------------------------- #
# The command line, CI and the docs name only what exists
# --------------------------------------------------------------------------- #

REPO = Path(__file__).resolve().parents[1]
CI_YML = REPO / ".github" / "workflows" / "ci.yml"
#: Every file that quotes command lines or environment knobs at a reader.
QUOTING_FILES = (
    REPO / "README.md",
    REPO / ".claude" / "skills" / "verify" / "SKILL.md",
    CI_YML,
    REPO / "src" / "repro" / "cli.py",
)
SUBCOMMANDS = {"fig4", "fig5a", "fig5b", "fig5c", "stats", "all"}


def _quoted_cli_commands(text: str) -> list[list[str]]:
    """Argument lists of every ``python -m repro.cli ...`` line in ``text``.

    Continuation lines (a trailing backslash, or the ``--option`` lines of
    a folded YAML scalar) are joined; ``{a,b}`` in the subcommand slot
    expands to one command per alternative.
    """
    commands = []
    lines = text.splitlines()
    for number, line in enumerate(lines):
        match = re.search(r"python -m repro\.cli((?:[ \t]+[^\s`]+)*)", line)
        if match is None:
            continue
        quoted = match.group(1).rstrip("\\ ")
        for follow in lines[number + 1 :]:
            if not follow.strip().startswith("--"):
                break
            quoted += " " + follow.strip().rstrip("\\ ")
        argv = shlex.split(quoted, comments=True)
        if argv:
            subcommands = argv[0].strip("{}").split(",")
            commands.extend([subcommand, *argv[1:]] for subcommand in subcommands)
    return commands


class TestOneInstrument:
    def test_subcommand_set_is_exact(self):
        (sub,) = (
            action
            for action in _build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        assert set(sub.choices) == SUBCOMMANDS

    @pytest.mark.parametrize("retired", ["bench", "serve-bench"])
    def test_retired_commands_are_usage_errors(self, retired, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([retired])
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("path", QUOTING_FILES, ids=lambda path: path.name)
    def test_quoted_command_lines_parse(self, path):
        text = path.read_text()
        commands = _quoted_cli_commands(text)
        assert commands, f"{path.name} quotes no `python -m repro.cli` line"
        parser = _build_parser()
        for argv in commands:
            try:
                parser.parse_args(argv)
            except SystemExit:
                pytest.fail(f"{path.name} quotes a command that does not parse: {argv}")
        # Prose mentions without the interpreter prefix name real commands too.
        assert set(re.findall(r"`repro\.cli ([a-z0-9-]+)", text)) <= SUBCOMMANDS

    def test_quoted_environment_knobs_are_read(self):
        read = set()
        for root in ("src", "tests", "benchmarks"):
            for source in (REPO / root).rglob("*.py"):
                read.update(
                    re.findall(
                        r"os\.environ(?:\.get)?[\[(]\s*\"(REPRO_[A-Z_]+)\"",
                        source.read_text(),
                    )
                )
        for path in QUOTING_FILES:
            quoted = set(re.findall(r"REPRO_[A-Z_]+", path.read_text()))
            assert quoted <= read, f"{path.name} names knobs nothing reads: {quoted - read}"

    def test_ci_workflow_loads_as_yaml(self):
        yaml = pytest.importorskip("yaml")
        workflow = yaml.safe_load(CI_YML.read_text())
        assert set(workflow["jobs"]) == {"tests", "deep-oracles"}
        for job in workflow["jobs"].values():
            assert all("run" in step or "uses" in step for step in job["steps"])

    def test_ci_workflow_names_existing_test_files(self):
        named = re.findall(r"\b(?:tests|benchmarks)/[\w/]+\.py", CI_YML.read_text())
        assert named
        assert [path for path in named if not (REPO / path).exists()] == []


class TestRetiredModes:
    """The process executor, the sharded buffer pool, the two-in-flight
    serving pipeline, the per-record engine switch, the epoch switch, the
    serving thread fan-out, the refinement level budget, the adaptive
    merge trigger and the two merge-policy settings (the hot-key hit count
    and merging only converged partitions) are gone: naming one of their
    options is a ``TypeError``, never a silently ignored knob.
    The thread and epoch executor subclasses are gone too: one batch
    executor takes both choices as arguments.  The figure commands run
    one query at a time and take no batch or thread flags."""

    @pytest.fixture(scope="class")
    def suite(self):
        from repro.data.suite import build_benchmark_suite

        return build_benchmark_suite(n_datasets=2, objects_per_dataset=200, seed=3)

    @pytest.mark.parametrize(
        "call",
        [
            "config_batch_executor",
            "config_columnar",
            "config_snapshot_reads",
            "config_refine_levels_per_query",
            "config_adaptive_merge_threshold",
            "config_merge_partition_min_hits",
            "config_merge_only_converged",
            "query_batch_executor",
            "serve_pipeline",
            "service_pipeline",
            "serve_workers",
            "service_workers",
            "disk_buffer_shards",
            "suite_buffer_shards",
            "fork_buffer_shards",
        ],
    )
    def test_retired_option_raises_type_error(self, suite, call):
        from repro.core.config import OdysseyConfig
        from repro.core.odyssey import SpaceOdyssey
        from repro.data.suite import build_benchmark_suite
        from repro.serve.service import QueryService
        from repro.storage.disk import Disk

        engine = SpaceOdyssey(suite.fork().catalog)
        calls = {
            "config_batch_executor": lambda: OdysseyConfig(batch_executor="thread"),
            "config_columnar": lambda: OdysseyConfig(columnar=False),
            "config_snapshot_reads": lambda: OdysseyConfig(snapshot_reads=False),
            "config_refine_levels_per_query": lambda: OdysseyConfig(refine_levels_per_query=2),
            "config_adaptive_merge_threshold": lambda: OdysseyConfig(
                adaptive_merge_threshold=True
            ),
            "config_merge_partition_min_hits": lambda: OdysseyConfig(
                merge_partition_min_hits=1
            ),
            "config_merge_only_converged": lambda: OdysseyConfig(merge_only_converged=False),
            "query_batch_executor": lambda: engine.query_batch(
                [(suite.universe, [0])], executor="thread"
            ),
            "serve_pipeline": lambda: engine.serve(pipeline=False),
            "service_pipeline": lambda: QueryService(engine, pipeline=False),
            "serve_workers": lambda: engine.serve(workers=2),
            "service_workers": lambda: QueryService(engine, workers=2),
            "disk_buffer_shards": lambda: Disk(buffer_shards=2),
            "suite_buffer_shards": lambda: build_benchmark_suite(
                n_datasets=1, objects_per_dataset=10, buffer_shards=2
            ),
            "fork_buffer_shards": lambda: suite.fork(buffer_shards=2),
        }
        with pytest.raises(TypeError):
            calls[call]()
        assert engine.summary().queries_executed == 0

    @pytest.mark.parametrize("flag", ["--workers", "--batch-size"])
    def test_figures_take_no_batch_or_thread_flags(self, flag, capsys):
        # The figures run the paper's methodology: one query at a time.
        value = "2" if flag == "--workers" else "4"
        with pytest.raises(SystemExit) as exit_info:
            main(["fig5b", flag, value])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_core_exports_no_executor_subclasses(self):
        import repro.core
        import repro.core.epoch
        import repro.core.parallel

        assert "ParallelExecutor" not in repro.core.__all__
        assert not hasattr(repro.core, "ParallelExecutor")
        assert not hasattr(repro.core.parallel, "ParallelExecutor")
        assert not hasattr(repro.core.epoch, "EpochExecutor")

    def test_batches_load_no_process_machinery(self):
        script = (
            "import sys\n"
            "from repro import SpaceOdyssey, build_benchmark_suite\n"
            "suite = build_benchmark_suite(n_datasets=2, objects_per_dataset=200, seed=3)\n"
            "SpaceOdyssey(suite.catalog).query_batch([(suite.universe, [0, 1])])\n"
            "print(sorted({'multiprocessing.shared_memory', 'mmap'} & set(sys.modules)))\n"
        )
        completed = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        )
        assert completed.stdout.strip() == "[]"
