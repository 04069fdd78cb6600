#!/usr/bin/env python3
"""Score the tests by the seeded bugs they catch.

    python3 tools/mutants.py [--list] [--repo PATH] [-- PYTEST_ARGS ...]

Each mutant in :data:`MUTANTS` is one textual replacement in one file
under ``src/``: an anchor that must occur exactly once, and the text that
replaces it.  For every mutant the script copies ``PATH/src`` (default:
this checkout) into a temporary directory, applies the replacement there
and runs ``python -m pytest -x -q SELECTION`` from ``PATH`` with
``PYTHONPATH`` pointing at the mutated copy.  The checkout itself is never
written.  A mutant is *killed* when pytest reports a failure (the first
failing test is printed), *survived* when the selection passes, and an
*error* when pytest cannot run it (a usage error, no tests collected).

Without ``PYTEST_ARGS`` every mutant runs against the selection that owns
it (its ``killer``): the engine oracle, ``tests/test_engine_fuzz.py``,
unless the bug is one the oracle cannot reach — a hand-crafted journal
tail or another header version, an append behind a torn tail, a journal write
that raised, a fact that names another step, the order of decodes inside
one group read, the CPU charges of a batch that stops early, a circuit
breaker that counts client errors.  With ``PYTEST_ARGS`` every mutant
runs against that one selection, which is how two test batteries are
compared.

Before any mutant, the unmutated copy must pass each selection used, or
every mutant would read as killed.  ``--list`` prints the mutants and
their killers and exits; ``--repo`` scores another checkout (an export of
the parent commit, say) with the same mutant set.  The exit status is 1
when a mutant survives or errs, and 2 when an anchor does not occur
exactly once or a baseline fails.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: The engine oracle: the selection that owns every mutant it can reach.
ORACLE = ("tests/test_engine_fuzz.py",)


class Mutant(NamedTuple):
    name: str
    description: str
    path: str  # relative to src/
    anchor: str
    replacement: str
    killer: tuple[str, ...] = ORACLE


MUTANTS = (
    Mutant(
        "split-drops-overflow",
        "a split drops its last overflow page",
        "repro/storage/pagedfile.py",
        "cursor = self._disk.append_run(self._name, pending_appends) if pending_appends else 0",
        # With reused pages (a split), the last overflow page is never appended.
        "kept = pending_appends[: len(pending_appends) - bool(reuse)]\n"
        "        cursor = self._disk.append_run(self._name, kept) if pending_appends else 0",
    ),
    Mutant(
        "plan-merge-last",
        "plan_reads puts merge segments after partition runs",
        "repro/core/query_processor.py",
        "plan[:0] = [(dataset_id, file, run) for _, dataset_id, run in merged]",
        "plan += [(dataset_id, file, run) for _, dataset_id, run in merged]",
    ),
    Mutant(
        "no-hot-keys",
        "record_query skips the hot-key update",
        "repro/core/statistics.py",
        "stats.hot_keys |= query_keys & stats.seen_keys",
        "stats.hot_keys |= set()",
    ),
    Mutant(
        "empty-keys-recorded",
        "commit_query records every overlapped key, empty leaves included",
        "repro/core/query_processor.py",
        "keys.update(map(table.keys.__getitem__, occupied.tolist()))",
        "keys.update(map(table.keys.__getitem__, rows.tolist()))",
    ),
    Mutant(
        "replay-reversed",
        "_replay_updates replays the batch in reverse",
        "repro/core/batch.py",
        "in zip(prepared.batch.queries, prepared.read_tallies):",
        "in reversed(list(zip(prepared.batch.queries, prepared.read_tallies))):",
    ),
    Mutant(
        "stale-route",
        "the batch reuses its planned route after MergeDirectory.version moved",
        "repro/core/batch.py",
        "if directory.version == prepared.route_version:",
        "if True:",
    ),
    Mutant(
        "cpu-charged-up-front",
        "the batch replay charges every query's CPU before the first writer half",
        "repro/core/batch.py",
        "disk.charge_cpu_records(prepared.examined[index])",
        "if query is prepared.batch.queries[0]:\n"
        "                for each in prepared.batch.queries:\n"
        "                    disk.charge_cpu_records(prepared.examined[each.index])",
        ("tests/test_serve_faults.py::TestWriterHalfFailure",),
    ),
    Mutant(
        "journal-any-delta",
        "ManifestJournal.read_last accepts a delta that does not continue its base",
        "repro/storage/journal.py",
        'elif base is not None and record["committed"] == len(queries) + len(added):',
        "elif base is not None:",
        ("tests/test_storage_journal.py",),
    ),
    Mutant(
        "append-after-torn-tail",
        "ManifestJournal appends at the end of the file, behind a torn tail",
        "repro/storage/journal.py",
        "            if self._tail:\n                os.ftruncate(fd, self._end)",
        "            self._end = os.fstat(fd).st_size",
        ("tests/test_storage_journal.py",),
    ),
    Mutant(
        "failed-commit-forgotten",
        "ManifestJournal.commit drops the entries of a write that raised",
        "repro/storage/journal.py",
        "        self._pending += entries",
        "        self._pending = list(entries)",
        ("tests/test_recovery.py::TestFailedJournalWrite",),
    ),
    Mutant(
        "no-crc",
        "verify_page skips the CRC comparison",
        "repro/storage/codec.py",
        "    if stored != actual:",
        "    if False:",
    ),
    Mutant(
        "decode-after-plan",
        "read_groups decodes only after the whole plan is read",
        "repro/storage/pagedfile.py",
        "    with closing(disk.read_runs(runs, lookup, event, decode_page_array)) as reads:",
        "    raw = list(disk.read_runs([run[:3] for run in runs], lookup, event))\n"
        "    reads = iter([\n"
        "        disk.buffer_pool.decode_run(run[0], run[1], pages, decode_page_array, run[3])\n"
        "        for run, pages in zip(runs, raw)\n"
        "    ])\n"
        "    with __import__('contextlib').nullcontext():",
        ("tests/test_read_differential.py",),
    ),
    Mutant(
        "serve-reversed",
        "QueryService._dispatch resolves its futures in reverse",
        "repro/serve/service.py",
        "for submission, hits in zip(batch, result.results):",
        "for submission, hits in zip(batch, result.results[::-1]):",
    ),
    Mutant(
        "breaker-counts-client-errors",
        "the circuit breaker counts every batch with a failed query, client errors too",
        "repro/serve/service.py",
        "self._breaker_record(any(isinstance(error, StorageError) for error in failures))",
        "self._breaker_record(bool(failures))",
        ("tests/test_serve_faults.py",),
    ),
    Mutant(
        "budget-admits-overshoot",
        "the merger's budget fit test admits a merge's first key past the budget",
        "repro/core/merger.py",
        "            if pages <= free:",
        "            if pages <= free or not kept:",
    ),
    Mutant(
        "other-version-recovered",
        "recover() admits a version-5 journal besides today's",
        "repro/core/recovery.py",
        '    if manifest.get("version") != MANIFEST_VERSION:',
        '    if manifest.get("version") not in (5, MANIFEST_VERSION):',
        ("tests/test_recovery.py::TestRecoveryEdgeCases::test_unsupported_manifest_version_raises",),
    ),
    Mutant(
        "facts-no-name-check",
        "FactPlayer.step skips its name check",
        "repro/core/facts.py",
        "if fact is None or fact[0] != kind or fact[1] != name:",
        "if fact is None or fact[0] != kind:",
        ("tests/test_recovery.py::TestFastPath",),
    ),
)


def anchor_count(src: str, mutant: Mutant) -> int:
    """How often ``mutant``'s anchor occurs in its file under ``src``."""
    with open(os.path.join(src, mutant.path)) as handle:
        return handle.read().count(mutant.anchor)


def apply(src: str, mutant: Mutant) -> None:
    """Replace ``mutant``'s anchor in its file under ``src`` (in place)."""
    path = os.path.join(src, mutant.path)
    with open(path) as handle:
        text = handle.read()
    if text.count(mutant.anchor) != 1:
        raise ValueError(f"{mutant.name}: anchor occurs {text.count(mutant.anchor)} times")
    with open(path, "w") as handle:
        handle.write(text.replace(mutant.anchor, mutant.replacement))


def run_selection(repo: str, mutant: Mutant | None, selection) -> tuple[str, float]:
    """``(outcome, seconds)`` of the selection over a copy of ``repo/src``."""
    with tempfile.TemporaryDirectory(prefix="repro-mutant-") as scratch:
        src = os.path.join(scratch, "src")
        shutil.copytree(
            os.path.join(repo, "src"), src, ignore=shutil.ignore_patterns("__pycache__")
        )
        if mutant is not None:
            apply(src, mutant)
        env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "-rf"]
        started = time.perf_counter()
        done = subprocess.run(
            command + list(selection), cwd=repo, env=env, capture_output=True, text=True
        )
        seconds = time.perf_counter() - started
    if done.returncode == 0:
        return "survived", seconds
    if done.returncode == 1:
        failed = [line.split()[1] for line in done.stdout.splitlines() if line[:7] == "FAILED "]
        return f"killed by `{failed[0] if failed else '?'}`", seconds
    sys.stderr.write(done.stdout[-2000:] + done.stderr[-2000:])
    return f"error ({done.returncode})", seconds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--list", action="store_true", help="print the mutants and exit")
    parser.add_argument("--repo", default=ROOT, help="checkout to score (default: this one)")
    parser.add_argument("selection", nargs="*", help="pytest arguments (after --)")
    args = parser.parse_args(argv)

    if args.list:
        for mutant in MUTANTS:
            print(f"{mutant.name:22} {mutant.description}  [{' '.join(mutant.killer)}]")
        return 0
    repo = os.path.abspath(args.repo)
    src = os.path.join(repo, "src")
    misplaced = [m.name for m in MUTANTS if anchor_count(src, m) != 1]
    if misplaced:
        print(f"anchors not found exactly once in {src}: {', '.join(misplaced)}")
        return 2
    selections = {m.name: tuple(args.selection) or m.killer for m in MUTANTS}
    for selection in dict.fromkeys(selections.values()):
        outcome, seconds = run_selection(repo, None, selection)
        print(f"baseline {' '.join(selection)}: {outcome} in {seconds:.1f} s", flush=True)
        if outcome != "survived":
            print("the unmutated selection must pass")
            return 2

    print("| mutant | what it breaks | outcome | seconds |\n|---|---|---|---|")
    killed = 0
    for mutant in MUTANTS:
        outcome, seconds = run_selection(repo, mutant, selections[mutant.name])
        killed += outcome.startswith("killed")
        print(f"| `{mutant.name}` | {mutant.description} | {outcome} | {seconds:.1f} |", flush=True)
    scored = f"`{' '.join(args.selection)}`" if args.selection else "each mutant's killer"
    print(f"\n{killed}/{len(MUTANTS)} killed by {scored} in {repo}")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
