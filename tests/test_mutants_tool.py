"""The mutant set of ``tools/mutants.py`` still applies to ``src/``.

Scoring the mutants runs pytest once per mutant, so it stays outside
tier-1; this guard keeps the set from rotting silently when the code it
mutates moves: every anchor occurs exactly once, every mutated file still
compiles, every owning selection still names tests, and ``--list`` runs.
"""

from __future__ import annotations

import importlib.util
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
TOOL = os.path.join(ROOT, "tools", "mutants.py")
_spec = importlib.util.spec_from_file_location("mutants", TOOL)
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda mutant: mutant.name)
def test_each_anchor_occurs_once_and_the_mutant_compiles(mutant, tmp_path):
    assert mutants.anchor_count(SRC, mutant) == 1
    target = tmp_path / "src" / mutant.path
    target.parent.mkdir(parents=True)
    shutil.copy(os.path.join(SRC, mutant.path), target)
    mutants.apply(str(tmp_path / "src"), mutant)
    text = target.read_text()
    assert mutant.replacement in text and mutant.anchor not in text
    compile(text, str(target), "exec")


def test_list_runs_and_names_each_mutant_once():
    done = subprocess.run(
        [sys.executable, TOOL, "--list"], capture_output=True, text=True, check=True
    )
    listed = [line.split()[0] for line in done.stdout.splitlines()]
    assert listed == [mutant.name for mutant in mutants.MUTANTS]
    assert len(set(listed)) == len(listed)


def test_every_owner_selection_collects():
    # A renamed or retired owner id would otherwise fail only the scoring run.
    # One collection for all: pytest exits 0 when a missing test's class is
    # selected too, so each selection must also name a collected test.
    selections = list(dict.fromkeys(arg for m in mutants.MUTANTS for arg in m.killer))
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider"]
        + selections,
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    collected = done.stdout.splitlines()
    for selection in selections:
        assert any(
            test == selection or test.startswith((selection + "::", selection + "["))
            for test in collected
        ), f"{selection} selects no test"
