"""Crash-consistent recovery: differential parity, crash-point sweep, edge cases.

The contract under test (see :mod:`repro.core.recovery`): an engine
recovered from its manifest journal is **bit-identical** — adaptive
state, on-disk derived bytes, and the answers of every subsequent query —
to an engine that executed the same committed query prefix without ever
crashing.  The sweep drives a simulated crash into every journaled write
site (all six named journal crash points, plus scheduled crashes on the
Nth backend page mutation with torn-page persistence), proves the
contract holds from each, and checks which path recovery took: the fast
path that keeps the files after a crash between commits, or the full
replay after a crash mid-query.

Every test runs in one pretended boot (the boot-id reader is patched), so
whether the fast path is taken never depends on the host.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import math
import shutil
import struct
import zlib
from collections import Counter

import pytest

import repro.core.batch as batch_module
import repro.core.query_processor as query_processor_module
import repro.core.recovery as recovery_module
from repro.bench.runner import generate_workload
from repro.core.adaptor import Adaptor
from repro.core.config import OdysseyConfig
from repro.core.facts import NO_FACTS
from repro.core.odyssey import SpaceOdyssey
from repro.core.recovery import MANIFEST_VERSION, RecoveryError, encode_query, recover
from repro.data.columnar import DecodedGroup
from repro.data.dataset import Dataset, DatasetCatalog, raw_file_name
from repro.data.suite import BenchmarkSuite, build_benchmark_suite
from repro.geometry.box import Box
from repro.storage.backend import FileSystemBackend
from repro.storage.cost_model import DiskModel
from repro.storage.disk import Disk
from repro.storage.errors import CorruptPageError, SimulatedCrash
from repro.storage.faults import FaultInjectingBackend, FaultPlan
from repro.storage.journal import ManifestJournal

from tests.oracle import (
    DURABLE_SITES,
    JOURNAL_CRASH_POINTS,
    REPORT_FIELDS,
    adaptive_state,
    check_merge_space,
    check_tree,
    disk_files,
    fork_with,
    make_workload,
    packed_hits,
    raise_once_at,
    recover_logged,
)

CONFIG = OdysseyConfig(merge_threshold=1, min_merge_combination=2)


@pytest.fixture(autouse=True)
def one_boot(monkeypatch):
    """Every engine and recovery of a test runs in the same pretended boot."""
    monkeypatch.setattr(recovery_module, "boot_id", lambda: "boot-1")


@pytest.fixture(scope="module")
def base_suite() -> BenchmarkSuite:
    return build_benchmark_suite(
        n_datasets=3,
        objects_per_dataset=250,
        seed=13,
        buffer_pages=64,
        model=DiskModel(seek_time_s=1e-4),
    )


@pytest.fixture(scope="module")
def reference(base_suite):
    """A never-crashed run with a full state snapshot after every query.

    ``snapshots[k]`` is the (adaptive_state, disk_files) pair after the
    first ``k`` queries — the oracle a recovered engine with ``k``
    committed queries must match bit-for-bit.
    """
    workload = make_workload(base_suite)
    engine = SpaceOdyssey(base_suite.fork().catalog, CONFIG)
    snapshots = [(adaptive_state(engine), disk_files(engine))]
    hits = []
    for query in workload:
        hits.append(engine.query(query.box, query.dataset_ids))
        snapshots.append((adaptive_state(engine), disk_files(engine)))
    return workload, engine, snapshots, hits


def framed(record: dict) -> bytes:
    """One journal record, framed byte for byte by hand (not by today's code)."""
    payload = json.dumps(record, separators=(",", ":"), sort_keys=True).encode()
    return struct.pack("<II", len(payload), zlib.crc32(payload)) + payload


def assert_matches_reference(recovered, reference, committed: int) -> None:
    workload, ref_engine, snapshots, ref_hits = reference
    state, files = snapshots[committed]
    assert adaptive_state(recovered) == state, (
        f"adaptive state after recovery at commit {committed} diverged"
    )
    assert disk_files(recovered) == files, (
        f"on-disk bytes after recovery at commit {committed} diverged"
    )
    # Finishing the workload must land on the reference's final state.
    for j in range(committed, len(workload)):
        hits = recovered.query(workload[j].box, workload[j].dataset_ids)
        assert packed_hits(recovered, hits) == packed_hits(ref_engine, ref_hits[j]), (
            f"post-recovery answer for query {j} diverged"
        )
    assert adaptive_state(recovered) == snapshots[-1][0]
    assert disk_files(recovered) == snapshots[-1][1]


# ---------------------------------------------------------------------- #
# Differential parity
# ---------------------------------------------------------------------- #


class TestRecoveryParity:
    def test_recover_filesystem_backend_argument_free(self, tmp_path):
        model = DiskModel(seek_time_s=1e-4)
        disk = Disk(
            backend=FileSystemBackend(tmp_path / "pages", page_size=model.page_size),
            model=model,
            buffer_pages=64,
        )
        suite = build_benchmark_suite(
            n_datasets=2, objects_per_dataset=200, seed=3, disk=disk
        )
        workload = make_workload(suite, n=6, seed=9)

        ref = SpaceOdyssey(suite.fork().catalog, CONFIG)
        for query in workload:
            ref.query(query.box, query.dataset_ids)

        path = tmp_path / "journal.log"
        engine = SpaceOdyssey(suite.catalog, CONFIG, journal=path)
        for query in workload:
            engine.query(query.box, query.dataset_ids)
        del engine  # the page files and the journal survive on disk

        # The manifest records the filesystem root: no arguments needed.
        recovered = SpaceOdyssey.recover(path)
        assert recovered.summary().queries_executed == len(workload)
        assert adaptive_state(recovered) == adaptive_state(ref)
        assert disk_files(recovered) == disk_files(ref)


# ---------------------------------------------------------------------- #
# A journaled store is relocatable
# ---------------------------------------------------------------------- #


def filesystem_suite(directory, seed: int = 3) -> BenchmarkSuite:
    """A small suite whose page files live under ``directory / "pages"``."""
    model = DiskModel(seek_time_s=1e-4)
    disk = Disk(
        backend=FileSystemBackend(directory / "pages", page_size=model.page_size),
        model=model,
        buffer_pages=64,
    )
    return build_benchmark_suite(n_datasets=2, objects_per_dataset=200, seed=seed, disk=disk)


def tree_digests(directory) -> dict[str, str]:
    """SHA-256 of every file under ``directory``, by relative path."""
    return {
        str(path.relative_to(directory)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.rglob("*"))
        if path.is_file()
    }


class TestRelocatableStore:
    def crash(self, directory, suite, workload, crash_on: int) -> None:
        """Run a journaled engine on ``suite``, journal under ``directory``;
        crash it mid-commit."""
        armed = []

        def tear_the_commit(point: str) -> None:
            if armed and point == "journal.commit.torn":
                raise SimulatedCrash(point)

        journal = ManifestJournal(directory / "journal.log", crash_hook=tear_the_commit)
        engine = SpaceOdyssey(suite.catalog, CONFIG, journal=journal)
        for query in workload[:crash_on]:
            engine.query(query.box, query.dataset_ids)
        armed.append(True)
        with pytest.raises(SimulatedCrash):
            engine.query(workload[crash_on].box, workload[crash_on].dataset_ids)
        del engine

    def finish(self, engine, workload) -> tuple:
        hits = [
            packed_hits(engine, engine.query(query.box, query.dataset_ids))
            for query in workload[engine.summary().queries_executed :]
        ]
        return engine.summary(), hits, file_digests(engine)

    def test_a_copied_store_recovers_from_the_copy(self, tmp_path):
        original = tmp_path / "store"
        suite = filesystem_suite(original)
        workload = make_workload(suite, n=10, seed=9)
        self.crash(original, suite, workload, crash_on=6)
        copy = tmp_path / "a-copy-of-the-store-at-a-longer-path"
        shutil.copytree(original, copy)
        before = tree_digests(original)

        moved = SpaceOdyssey.recover(copy / "journal.log")
        assert moved.summary().queries_executed == 6
        assert str(moved.disk.backend.root) == str(copy / "pages")
        outcome = self.finish(moved, workload)
        assert tree_digests(original) == before, "recovering the copy wrote to the original"

        in_place = SpaceOdyssey.recover(original / "journal.log")
        assert self.finish(in_place, workload) == outcome

    def test_journal_bytes_do_not_depend_on_the_directory(self, tmp_path):
        journals = []
        for name in ("a", "a-directory-with-a-much-longer-name"):
            directory = tmp_path / name
            suite = filesystem_suite(directory)
            engine = SpaceOdyssey(suite.catalog, CONFIG, journal=directory / "journal.log")
            for query in make_workload(suite, n=8, seed=9):
                engine.query(query.box, query.dataset_ids)
            assert engine.summary().merges_performed > 0
            del engine
            journals.append((directory / "journal.log").read_bytes())
        assert journals[0] == journals[1]
        assert ManifestJournal(tmp_path / "a" / "journal.log").read_last()["catalog"][
            "store"
        ] == {"kind": "filesystem", "root": "pages"}


# ---------------------------------------------------------------------- #
# Replay applies the writer half only
# ---------------------------------------------------------------------- #

#: A merge-space budget of two pages: the 16-query workload below first
#: touches every dataset, refines, merges and refuses copies past the budget.
REFUSING = OdysseyConfig(merge_threshold=1, min_merge_combination=2, merge_space_budget_pages=2)


def decode_box(data: dict) -> Box:
    return Box(tuple(data["lo"]), tuple(data["hi"]))


def reference_recover(path, survivor) -> SpaceOdyssey:
    """The replay ``recover()`` did before it skipped the read half: wipe the
    derived files, then one full ``query()`` per committed entry."""
    manifest = ManifestJournal(path).read_last()
    disk = Disk(
        backend=survivor,
        model=DiskModel(**manifest["catalog"]["model"]),
        buffer_pages=manifest["catalog"]["buffer_pages"],
    )
    specs = manifest["catalog"]["datasets"]
    raw = {raw_file_name(spec["name"]) for spec in specs}
    for name in disk.list_files():
        if name not in raw:
            disk.delete_file(name)
    datasets = [
        Dataset.open(disk, spec["id"], spec["name"], universe=decode_box(spec["universe"]))
        for spec in specs
    ]
    engine = SpaceOdyssey(DatasetCatalog(datasets), OdysseyConfig(**manifest["config"]))
    for entry in manifest["queries"]:
        engine.query(decode_box(entry), entry["ids"])
    return engine


def leaf_tables(engine: SpaceOdyssey) -> dict:
    """Every column ``check_tree`` compares, per dataset, after checking it."""
    tables = {}
    for dataset_id, tree in sorted(engine.trees.items()):
        check_tree(tree, f"dataset {dataset_id}")
        table = tree.leaf_snapshot()
        tables[dataset_id] = (
            table.keys,
            table.runs,
            table.n_records.tolist(),
            table.level.tolist(),
            table.volume.tolist(),
            table.lo.tobytes(),
            table.hi.tobytes(),
        )
    return tables


def file_digests(engine: SpaceOdyssey) -> dict[str, str]:
    """SHA-256 of every page file, pages in order."""
    digests = {}
    for name, pages in disk_files(engine).items():
        digest = hashlib.sha256()
        for page in pages:
            digest.update(page)
        digests[name] = digest.hexdigest()
    return digests


class TestWriterHalfReplay:
    def test_recover_reads_no_answer_and_matches_the_query_replay(
        self, base_suite, tmp_path, monkeypatch
    ):
        workload = make_workload(base_suite, n=16)
        path = tmp_path / "journal.log"
        engine = SpaceOdyssey(base_suite.fork().catalog, REFUSING, journal=path)
        reports = []
        for query in workload:
            engine.query(query.box, query.dataset_ids)
            reports.append(engine.last_report)
        # The journal exercises every writer-half branch recovery replays.
        assert sum(len(report.initialized_datasets) for report in reports) == 3
        assert sum(report.refinements for report in reports) > 0
        assert sum(report.merged for report in reports) > 0
        # ... and the budget refuses: unbounded (CONFIG), the same queries copy more.
        unbounded = SpaceOdyssey(base_suite.fork().catalog, CONFIG)
        for query in workload:
            unbounded.query(query.box, query.dataset_ids)
        assert unbounded.summary().merge_pages > 2 >= engine.summary().merge_pages
        survivor = engine.disk.backend.clone()
        del engine

        counts: Counter = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for module in (query_processor_module, batch_module):
            for name in ("plan_reads", "filter_groups"):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        monkeypatch.setattr(
            DecodedGroup, "materialize", counted("materialize", DecodedGroup.materialize)
        )
        recovered = SpaceOdyssey.recover(path, backend=survivor.clone())
        assert counts == Counter(), f"recovery ran the read half: {dict(counts)}"

        replayed = reference_recover(path, survivor.clone())
        assert counts["plan_reads"] == len(workload)  # the counters do count
        assert leaf_tables(recovered) == leaf_tables(replayed)
        assert adaptive_state(recovered) == adaptive_state(replayed)
        assert recovered.summary() == replayed.summary()
        assert file_digests(recovered) == file_digests(replayed)
        check_merge_space(recovered)

        # The last replayed report: the writer half's fields, no answer.
        report, reference = recovered.last_report, replayed.last_report
        for name in REPORT_FIELDS:
            if name != "results":
                assert getattr(report, name) == getattr(reference, name), name
        assert report.objects_examined == report.results == 0


class TestRawFilesReadAtFirstTouch:
    """Opening a raw file reads nothing: a full replay reads the raw files it touches.

    Each test recovers through a dirty journal (an intent after the last
    commit: the crash came mid-query), so recovery replays in full.  After
    a clean crash recovery reads no page at all, raw or derived:
    ``TestFastPath.test_clean_crash_reads_writes_creates_and_deletes_nothing``
    succeeds the first test there, and the other two cannot arise — a
    fast recovery never reads a raw page, intact or not.
    """

    @pytest.fixture
    def journaled(self, base_suite, tmp_path):
        """A dirty journal whose queries touch datasets 0 and 1 of three; its survivor."""
        path = tmp_path / "journal.log"
        engine = SpaceOdyssey(base_suite.fork().catalog, CONFIG, journal=path)
        for query in generate_workload(
            base_suite.universe, [0, 1], 6, seed=5, datasets_per_query=2, volume_fraction=5e-3
        ):
            engine.query(query.box, query.dataset_ids)
        survivor = engine.disk.backend.clone()
        del engine
        ManifestJournal(path).intent()  # the crash came after the next query's first write
        return path, survivor, base_suite.datasets

    @staticmethod
    def corrupt(survivor, dataset) -> None:
        name = raw_file_name(dataset.name)
        page = bytearray(survivor.read(name, 1))
        page[200] ^= 0xFF
        survivor.write(name, 1, bytes(page))

    def test_recover_reads_only_the_raw_files_it_touches(self, journaled, monkeypatch):
        path, survivor, datasets = journaled
        reads: Counter = Counter()
        real_read = type(survivor).read

        def counting_read(self, name, page_no):
            reads[name] += 1
            return real_read(self, name, page_no)

        monkeypatch.setattr(type(survivor), "read", counting_read)
        recovered = recover(path, backend=survivor)
        raw_names = [raw_file_name(dataset.name) for dataset in datasets]
        touched = {name: survivor.num_pages(name) for name in raw_names[:2]}
        assert {name: reads[name] for name in raw_names if reads[name]} == touched
        assert sorted(recovered.trees) == [0, 1]

    def test_corrupt_raw_page_of_an_untouched_dataset_does_not_stop_recovery(self, journaled):
        path, survivor, datasets = journaled
        intact = recover(path, backend=survivor.clone())
        self.corrupt(survivor, datasets[2])
        recovered = recover(path, backend=survivor)
        assert recovered.summary() == intact.summary()
        assert adaptive_state(recovered) == adaptive_state(intact)

    def test_corrupt_raw_page_of_a_touched_dataset_raises_at_first_touch(
        self, journaled, monkeypatch
    ):
        path, survivor, datasets = journaled
        bad = datasets[0]
        self.corrupt(survivor, bad)
        opened = Dataset.open(Disk(backend=survivor.clone()), 0, bad.name, bad.universe)
        with pytest.raises(CorruptPageError) as counted:
            opened.n_objects
        failed = []
        initialize = Adaptor.initialize

        def watched(self, tree):
            try:
                initialize(self, tree)
            except CorruptPageError:
                failed.append(tree.dataset.dataset_id)
                raise

        monkeypatch.setattr(Adaptor, "initialize", watched)
        with pytest.raises(CorruptPageError) as replayed:
            recover(path, backend=survivor)
        assert failed == [0]
        assert str(replayed.value) == str(counted.value)


# ---------------------------------------------------------------------- #
# Crash-point sweep
# ---------------------------------------------------------------------- #

#: The crash sites of a commit's delta, and of a rewrite: a journal is
#: rewritten only at its first base, a taint and a full replay.
COMMIT_POINTS, REWRITE_POINTS = JOURNAL_CRASH_POINTS[:3], JOURNAL_CRASH_POINTS[3:]


def first_writing_query(snapshots) -> int:
    """The index of the first query after the first that changes a file."""
    return next(i for i in range(1, len(snapshots) - 1) if snapshots[i][1] != snapshots[i + 1][1])


class TestCrashPointSweep:
    @pytest.mark.parametrize("point", COMMIT_POINTS)
    def test_crash_at_every_journal_site(
        self, base_suite, reference, tmp_path, point
    ):
        workload, _engine, snapshots, _hits = reference
        holder: dict[str, FaultInjectingBackend] = {}

        def wrap(backend):
            holder["fault"] = FaultInjectingBackend(
                backend, FaultPlan(crash_points=frozenset({point}))
            )
            return holder["fault"]

        forked = fork_with(base_suite, wrap)
        fault = holder["fault"]
        fault.disarm()  # construction commits the initial checkpoint cleanly
        path = tmp_path / "journal.log"
        journal = ManifestJournal(path, crash_hook=fault.maybe_crash)
        engine = SpaceOdyssey(forked.catalog, CONFIG, journal=journal)
        fault.rearm()

        crashed_on = None
        for index, query in enumerate(workload):
            try:
                engine.query(query.box, query.dataset_ids)
            except SimulatedCrash:
                crashed_on = index
                break
        assert crashed_on is not None, f"crash point {point} never fired"
        del engine

        fault.disarm()  # restart on healthy hardware
        recovered, taken, _why = recover_logged(ManifestJournal(path), backend=fault)
        committed = recovered.summary().queries_executed
        # Crashing before durability loses the in-flight query; crashing
        # after keeps it.  Nothing else is acceptable.
        assert committed in (crashed_on, crashed_on + 1), (
            f"{point}: crash on query {crashed_on} recovered {committed} queries"
        )
        # The files are kept unless the in-flight query changed one and
        # then died before its commit was down.
        mutated = snapshots[crashed_on][1] != snapshots[crashed_on + 1][1]
        expected = "full" if mutated and point not in DURABLE_SITES else "fast"
        assert taken == expected, f"{point}: crash on query {crashed_on}"
        assert_matches_reference(recovered, reference, committed=committed)


    @pytest.mark.parametrize("point", REWRITE_POINTS)
    def test_crash_at_a_rewrite_site_during_a_taint(
        self, base_suite, reference, tmp_path, monkeypatch, point
    ):
        # A writer half raises after its intent: the next commit carries
        # the taint, so it rewrites the journal, and crashes doing so.
        from repro.core.statistics import StatisticsCollector

        workload, _engine, snapshots, _hits = reference
        failing = first_writing_query(snapshots)
        armed = [False]

        def hook(name):
            if armed[0] and name == point:
                raise SimulatedCrash(name)

        forked = base_suite.fork()
        path = tmp_path / "journal.log"
        engine = SpaceOdyssey(forked.catalog, CONFIG, journal=ManifestJournal(path, crash_hook=hook))
        for query in workload[:failing]:
            engine.query(query.box, query.dataset_ids)
        record_query = StatisticsCollector.record_query

        def raising(self, *args, **kwargs):
            raise RuntimeError("injected writer-half failure")

        monkeypatch.setattr(StatisticsCollector, "record_query", raising)
        with pytest.raises(RuntimeError, match="injected"):
            engine.query(workload[failing].box, workload[failing].dataset_ids)
        monkeypatch.setattr(StatisticsCollector, "record_query", record_query)
        armed[0] = True
        crashed_on = failing + 1
        with pytest.raises(SimulatedCrash):
            engine.query(workload[crashed_on].box, workload[crashed_on].dataset_ids)
        del engine

        recovered, taken, _why = recover_logged(path, backend=forked.disk.backend)
        committed = recovered.summary().queries_executed
        # ``failing`` queries were committed before the crashing commit.
        assert committed in (failing, failing + 1), (
            f"{point}: crash on query {crashed_on} recovered {committed} queries"
        )
        assert committed == failing + (point in DURABLE_SITES)
        # Dirty before the rewrite, tainted after it: replayed in full.
        assert taken == "full", f"{point}: crash on query {crashed_on}"
        truth = SpaceOdyssey(base_suite.fork().catalog, CONFIG)
        for query in (workload[:failing] + workload[crashed_on:])[:committed]:
            truth.query(query.box, query.dataset_ids)
        assert adaptive_state(recovered) == adaptive_state(truth)
        assert disk_files(recovered) == disk_files(truth)

    @pytest.mark.parametrize("nth", (1, 2), ids=("tainted-base", "healed-base"))
    @pytest.mark.parametrize("point", REWRITE_POINTS)
    def test_crash_at_a_rewrite_site_during_a_full_recovery(
        self, base_suite, reference, tmp_path, point, nth
    ):
        # The engine crashes after query ``crashed_on`` changed a file and
        # before its commit; the full replay that follows rewrites the
        # journal twice (tainted, then healed) and crashes at the ``nth``.
        workload, _engine, snapshots, _hits = reference
        crashed_on = first_writing_query(snapshots)
        forked = base_suite.fork()
        path = tmp_path / "journal.log"
        hook = raise_once_at("journal.commit.start", crashed_on + 1, SimulatedCrash("commit"))
        engine = SpaceOdyssey(forked.catalog, CONFIG, journal=ManifestJournal(path, crash_hook=hook))
        for query in workload[:crashed_on]:
            engine.query(query.box, query.dataset_ids)
        with pytest.raises(SimulatedCrash):
            engine.query(workload[crashed_on].box, workload[crashed_on].dataset_ids)
        del engine

        hook = raise_once_at(point, nth, SimulatedCrash(point))
        crashing = ManifestJournal(path, crash_hook=hook)
        with pytest.raises(SimulatedCrash):
            SpaceOdyssey.recover(crashing, backend=forked.disk.backend)
        recovered, taken, _why = recover_logged(path, backend=forked.disk.backend)
        committed = recovered.summary().queries_executed
        assert committed in (crashed_on, crashed_on + 1), (
            f"{point}: crash on query {crashed_on} recovered {committed} queries"
        )
        assert committed == crashed_on
        # Only a crash after the healed base is down finds files it describes.
        healed = nth == 2 and point in DURABLE_SITES
        assert taken == ("fast" if healed else "full"), f"{point}, rewrite {nth}"
        assert_matches_reference(recovered, reference, committed=committed)

    @pytest.mark.parametrize("nth_mutation", (1, 3, 10, 25, 60))
    def test_crash_on_nth_page_mutation(
        self, base_suite, reference, tmp_path, nth_mutation
    ):
        # Power loss mid-write: the Nth page mutation persists a torn page
        # (checksum-detectable) and kills the process.
        workload = reference[0]
        holder: dict[str, FaultInjectingBackend] = {}

        def wrap(backend):
            holder["fault"] = FaultInjectingBackend(
                backend,
                FaultPlan(crash_after_mutations=nth_mutation, torn_crash=True),
            )
            return holder["fault"]

        forked = fork_with(base_suite, wrap)
        fault = holder["fault"]
        fault.disarm()
        path = tmp_path / "journal.log"
        engine = SpaceOdyssey(forked.catalog, CONFIG, journal=path)
        fault.rearm()

        crashed_on = None
        for index, query in enumerate(workload):
            try:
                engine.query(query.box, query.dataset_ids)
            except SimulatedCrash:
                crashed_on = index
                break
        del engine
        fault.disarm()

        recovered, taken, _why = recover_logged(path, backend=fault)
        committed = recovered.summary().queries_executed
        if crashed_on is None:
            # The workload performed fewer mutations than the schedule.
            assert committed == len(workload)
            assert taken == "fast"
        else:
            # Page mutations happen strictly before the query commits.
            assert committed == crashed_on
            assert taken == "full"
        assert_matches_reference(recovered, reference, committed=committed)


class TestFailedJournalWrite:
    @pytest.mark.parametrize("failing", (2, 6))
    def test_a_commit_whose_write_raised_is_journaled_with_the_next(
        self, tmp_path, failing
    ):
        # The journal write of query ``failing`` raises half way through
        # its record: the query raises to its caller, whose state already
        # holds it, and the queries after it commit.  The journal must
        # still fold every query the engine executed.
        suite = filesystem_suite(tmp_path)
        workload = make_workload(suite, n=9)
        path = tmp_path / "journal.log"
        hook = raise_once_at("journal.commit.torn", failing + 1, OSError("disk full"))
        engine = SpaceOdyssey(suite.catalog, CONFIG, journal=ManifestJournal(path, crash_hook=hook))
        for index, query in enumerate(workload):
            if index == failing:
                with pytest.raises(OSError, match="disk full"):
                    engine.query(query.box, query.dataset_ids)
            else:
                engine.query(query.box, query.dataset_ids)
        folded = ManifestJournal(path).read_last()
        assert [decode_box(entry) for entry in folded["queries"]] == [q.box for q in workload]
        summary, state, files = engine.summary(), adaptive_state(engine), disk_files(engine)
        assert summary.queries_executed == len(workload)
        del engine

        recovered, _taken, _why = recover_logged(path)
        assert recovered.summary() == summary
        assert (adaptive_state(recovered), disk_files(recovered)) == (state, files)

    def test_recovering_through_the_journal_object_drops_what_it_kept(self, tmp_path):
        # The kept entry belongs to the engine whose write raised; an
        # engine recovered from the file never ran it, so the recovered
        # engine's journal must not write it.
        suite = filesystem_suite(tmp_path)
        workload = make_workload(suite, n=12)
        probe = SpaceOdyssey(suite.fork().catalog, CONFIG)
        changed = []
        for query in workload:
            before = disk_files(probe)
            probe.query(query.box, query.dataset_ids)
            changed.append(disk_files(probe) != before)
        failing = changed.index(False, 1)  # changes no file: recovery keeps them
        path = tmp_path / "journal.log"
        hook = raise_once_at("journal.commit.torn", failing + 1, OSError("disk full"))
        engine = SpaceOdyssey(suite.catalog, CONFIG, journal=ManifestJournal(path, crash_hook=hook))
        for query in workload[:failing]:
            engine.query(query.box, query.dataset_ids)
        with pytest.raises(OSError, match="disk full"):
            engine.query(workload[failing].box, workload[failing].dataset_ids)
        journal = engine.journal
        del engine

        recovered, taken, _why = recover_logged(journal)
        assert taken == "fast"
        after = workload[failing + 1]
        recovered.query(after.box, after.dataset_ids)
        folded = ManifestJournal(path).read_last()
        expected = [query.box for query in workload[:failing]] + [after.box]
        assert [decode_box(entry) for entry in folded["queries"]] == expected


# ---------------------------------------------------------------------- #
# The fast path: a crash between commits keeps the files
# ---------------------------------------------------------------------- #


def crash_between_commits(directory, workload, config=REFUSING):
    """A journaled filesystem engine under ``directory`` runs ``workload``
    and crashes after its last commit; the journal ends in a torn record.
    Returns the pre-crash summary."""
    suite = filesystem_suite(directory)
    engine = SpaceOdyssey(suite.catalog, config, journal=directory / "journal.log")
    for query in workload:
        engine.query(query.box, query.dataset_ids)
    summary = engine.summary()
    del engine
    with (directory / "journal.log").open("ab") as handle:
        handle.write(struct.pack("<II", 4096, 0) + b"\0" * 2048)
    return summary


def journal_records(path) -> list[dict]:
    """Every intact record of a journal, intents included, framed by hand."""
    blob, offset, records = path.read_bytes(), 0, []
    while offset + 8 <= len(blob):
        length, checksum = struct.unpack_from("<II", blob, offset)
        payload = blob[offset + 8 : offset + 8 + length]
        if len(payload) < length or zlib.crc32(payload) != checksum:
            break
        records.append(json.loads(payload))
        offset += 8 + length
    return records


class TestFastPath:
    def test_clean_crash_reads_writes_creates_and_deletes_nothing(
        self, tmp_path, monkeypatch
    ):
        store = tmp_path / "store"
        workload = make_workload(filesystem_suite(tmp_path / "probe"), n=16)
        summary = crash_between_commits(store, workload)
        # The same crash, to be replayed in full: its journal is dirty.
        replay = tmp_path / "replay"
        shutil.copytree(store, replay)
        ManifestJournal(replay / "journal.log").intent()
        pages = tree_digests(store / "pages")

        calls: Counter = Counter()
        for name in ("read", "write", "append", "create", "delete"):
            real = getattr(FileSystemBackend, name)

            def counted(self, *args, _name=name, _real=real, **kwargs):
                calls[_name] += 1
                return _real(self, *args, **kwargs)

            monkeypatch.setattr(FileSystemBackend, name, counted)
        recovered, taken, why = recover_logged(store / "journal.log")
        assert (taken, why) == ("fast", None)
        assert calls == Counter(), f"a clean crash's recovery touched pages: {dict(calls)}"
        stats = recovered.disk.stats_snapshot()
        assert stats.pages_read == stats.pages_written == stats.seeks == 0
        assert tree_digests(store / "pages") == pages  # same files, same bytes
        assert recovered.summary() == summary
        monkeypatch.undo()

        monkeypatch.setattr(recovery_module, "boot_id", lambda: "boot-1")
        full, taken, why = recover_logged(replay / "journal.log")
        assert taken == "full" and why == "a file changed after the last commit"
        assert leaf_tables(recovered) == leaf_tables(full)
        assert adaptive_state(recovered) == adaptive_state(full)
        assert recovered.summary() == full.summary()
        assert file_digests(recovered) == file_digests(full)
        assert tree_digests(replay / "pages") == pages
        # The two go on alike.
        for query in make_workload(filesystem_suite(tmp_path / "more"), n=8, seed=11):
            assert packed_hits(recovered, recovered.query(query.box, query.dataset_ids)) == (
                packed_hits(full, full.query(query.box, query.dataset_ids))
            )
        assert file_digests(recovered) == file_digests(full)
        # The fast path appended to the journal it found, the full path
        # rewrote it: the two hold the same history.
        folded = ManifestJournal(store / "journal.log").read_last()
        assert folded == ManifestJournal(replay / "journal.log").read_last()

    def test_each_mutating_query_writes_one_intent_before_its_commit(self, tmp_path):
        suite = filesystem_suite(tmp_path)
        path = tmp_path / "journal.log"
        engine = SpaceOdyssey(suite.catalog, REFUSING, journal=path)
        changed = []
        for query in make_workload(suite, n=16):
            before = {name: engine.disk.num_pages(name) for name in engine.disk.list_files()}
            written = engine.disk.stats.pages_written
            engine.query(query.box, query.dataset_ids)
            after = {name: engine.disk.num_pages(name) for name in engine.disk.list_files()}
            changed.append(after != before or engine.disk.stats.pages_written > written)
        assert any(changed) and not all(changed)
        kinds = [
            "intent" if "intent" in record else "commit"
            for record in journal_records(path)[1:]  # after the first base
        ]
        expected = [kind for mutated in changed for kind in ("intent",) * mutated + ("commit",)]
        assert kinds == expected

    def test_concurrent_snapshot_batches_journal_facts_a_fast_recovery_replays(
        self, base_suite, tmp_path
    ):
        # Snapshot batches first-touch their datasets before their commits
        # and commit in arrival order, so a first touch's facts may land
        # in another batch's entry: the one the replay initialises it in.
        import sys
        import threading

        workload = make_workload(base_suite, n=48, seed=21)
        path = tmp_path / "journal.log"
        engine = SpaceOdyssey(base_suite.fork().catalog, REFUSING, journal=path)
        slices = [workload[i::6] for i in range(6)]
        failures = []

        def client(queries):
            try:
                for start in range(0, len(queries), 2):
                    engine.query_batch(queries[start : start + 2], snapshot=True)
            except BaseException as error:  # reported below
                failures.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=client, args=(part,)) for part in slices]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads) and failures == []
        survivor = engine.disk.backend.clone()
        del engine

        dirty = tmp_path / "dirty.log"
        shutil.copyfile(path, dirty)
        ManifestJournal(dirty).intent()
        fast, taken, why = recover_logged(path, backend=survivor.clone())
        assert (taken, why) == ("fast", None)
        full, taken, _why = recover_logged(dirty, backend=survivor.clone())
        assert taken == "full"
        assert fast.summary().queries_executed == len(workload)
        assert leaf_tables(fast) == leaf_tables(full)
        assert adaptive_state(fast) == adaptive_state(full)
        assert file_digests(fast) == file_digests(full)

    def test_an_engine_without_a_journal_keeps_no_facts(self, base_suite):
        engine = SpaceOdyssey(base_suite.fork().catalog, CONFIG)
        for query in make_workload(base_suite, n=4):
            engine.query(query.box, query.dataset_ids)
        assert engine._processor.adaptor.facts is NO_FACTS and engine.merger.facts is NO_FACTS

    def test_a_changed_boot_replays_in_full(self, tmp_path, monkeypatch):
        store = tmp_path / "store"
        workload = make_workload(filesystem_suite(tmp_path / "w"), n=10)
        summary = crash_between_commits(store, workload)
        for other in ("boot-2", None):  # a reboot; no boot id to read
            monkeypatch.setattr(recovery_module, "boot_id", lambda other=other: other)
            recovered, taken, why = recover_logged(store / "journal.log")
            assert (taken, why) == ("full", "the journal was written before the last boot")
            assert recovered.summary() == summary
            del recovered
        # The full replay wrote the boot it ran in: the next clean crash
        # in that boot keeps the files.
        monkeypatch.setattr(recovery_module, "boot_id", lambda: "boot-3")
        recovered, taken, _why = recover_logged(store / "journal.log")
        assert taken == "full"
        del recovered
        recovered, taken, _why = recover_logged(store / "journal.log")
        assert taken == "fast" and recovered.summary() == summary

    def test_a_taint_replays_in_full_until_a_full_replay_clears_it(
        self, tmp_path, monkeypatch
    ):
        from repro.core.statistics import StatisticsCollector

        suite = filesystem_suite(tmp_path / "store")
        workload = make_workload(suite, n=12)
        # The first query after the first whose writer half writes a page.
        probe = SpaceOdyssey(suite.fork().catalog, REFUSING)
        written = []
        for query in workload:
            probe.query(query.box, query.dataset_ids)
            written.append(probe.disk.stats.pages_written)
        failing_at = next(i for i in range(1, len(workload)) if written[i] > written[i - 1])
        path = tmp_path / "store" / "journal.log"
        engine = SpaceOdyssey(suite.catalog, REFUSING, journal=path)
        for query in workload[:failing_at]:
            engine.query(query.box, query.dataset_ids)
        # That query's writer half refines or merges (its intent is down),
        # then raises: the pages it wrote belong to no committed query.
        record_query = StatisticsCollector.record_query

        def failing(self, *args, **kwargs):
            raise RuntimeError("injected writer-half failure")

        monkeypatch.setattr(StatisticsCollector, "record_query", failing)
        pages_written = engine.disk.stats.pages_written
        with pytest.raises(RuntimeError, match="injected"):
            engine.query(workload[failing_at].box, workload[failing_at].dataset_ids)
        assert engine.disk.stats.pages_written > pages_written
        monkeypatch.setattr(StatisticsCollector, "record_query", record_query)
        assert ManifestJournal(path).dirty
        for query in workload[failing_at + 1 :]:
            engine.query(query.box, query.dataset_ids)
        # The next commit carried the taint; compaction keeps it.
        assert ManifestJournal(path).read_last()["tainted"] is True
        engine.journal.rewrite(engine.journal.read_last())
        assert ManifestJournal(path).read_last()["tainted"] is True
        del engine

        committed = ManifestJournal(path).read_last()["queries"]
        recovered, taken, why = recover_logged(path)
        assert (taken, why) == ("full", "a writer half raised since the last full replay")
        assert recovered.summary().queries_executed == len(committed) == len(workload) - 1
        state, digests = adaptive_state(recovered), file_digests(recovered)
        del recovered
        assert ManifestJournal(path).read_last()["tainted"] is False
        again, taken, _why = recover_logged(path)
        assert taken == "fast"
        assert (adaptive_state(again), file_digests(again)) == (state, digests)

    @pytest.mark.parametrize("damage", ["renamed", "dropped", "extra", "stray file"])
    def test_a_fact_mismatch_falls_back_to_the_full_replay(
        self, base_suite, reference, tmp_path, damage
    ):
        workload = reference[0]
        committed = 11
        engine = SpaceOdyssey(base_suite.fork().catalog, CONFIG, journal=tmp_path / "ok.log")
        for query in workload[:committed]:
            engine.query(query.box, query.dataset_ids)
        manifest = engine.journal.read_last()
        survivor = engine.disk.backend.clone()
        del engine

        entry = next(e for e in manifest["queries"] if any(f[0] == "refine" for f in e["facts"]))
        index = next(i for i, fact in enumerate(entry["facts"]) if fact[0] == "refine")
        fact = entry["facts"][index]
        if damage == "renamed":  # the journal names another leaf
            entry["facts"][index] = [fact[0], [fact[1][0], fact[1][1] + [0]], fact[2]]
        elif damage == "dropped":
            del entry["facts"][index]
        elif damage == "extra":
            entry["facts"].append(fact)
        else:  # a derived file no committed query explains
            survivor.create("odyssey_stray.dat")
            survivor.append("odyssey_stray.dat", b"stray")
        path = tmp_path / "damaged.log"
        path.write_bytes(framed(manifest))

        recovered, taken, why = recover_logged(path, backend=survivor)
        assert taken == "full", why
        assert "odyssey_stray.dat" not in recovered.disk.list_files()
        assert_matches_reference(recovered, reference, committed=committed)


# ---------------------------------------------------------------------- #
# Edge cases
# ---------------------------------------------------------------------- #


class TestRecoveryEdgeCases:
    def test_empty_journal_raises(self, tmp_path):
        with pytest.raises(RecoveryError, match="no intact manifest"):
            recover(tmp_path / "journal.log")

    def test_missing_journal_creates_no_directory(self, tmp_path):
        with pytest.raises(RecoveryError, match="no intact manifest"):
            recover(tmp_path / "a" / "b" / "manifest.journal")
        assert list(tmp_path.iterdir()) == []

    def test_wholly_torn_journal_raises(self, tmp_path):
        path = tmp_path / "journal.log"
        path.write_bytes(struct.pack("<II", 100, 0) + b"torn")
        with pytest.raises(RecoveryError, match="no intact manifest"):
            recover(path)

    def test_corrupt_tail_exposes_previous_commit(
        self, base_suite, reference, tmp_path
    ):
        workload = reference[0]
        path = tmp_path / "journal.log"
        engine = SpaceOdyssey(base_suite.fork().catalog, CONFIG, journal=path)
        for query in workload[:5]:
            engine.query(query.box, query.dataset_ids)
        survivor = engine.disk.backend.clone()
        del engine

        path.write_bytes(path.read_bytes()[:-3])  # tear the final record

        recovered = SpaceOdyssey.recover(path, backend=survivor)
        assert recovered.summary().queries_executed == 4
        assert_matches_reference(recovered, reference, committed=4)

    def test_delta_that_does_not_continue_its_base_is_the_torn_tail(
        self, base_suite, reference, tmp_path
    ):
        workload = reference[0]
        path = tmp_path / "journal.log"
        engine = SpaceOdyssey(base_suite.fork().catalog, CONFIG, journal=path)
        for query in workload[:5]:
            engine.query(query.box, query.dataset_ids)
        survivor = engine.disk.backend.clone()
        del engine

        # A well-formed, checksummed delta from some other history: its
        # count says it follows 8 queries, this journal holds 5.
        stray = {"committed": 9, "queries": [encode_query(workload[5].box, [0, 1])]}
        with path.open("ab") as handle:
            handle.write(ManifestJournal._encode(stray))

        recovered = SpaceOdyssey.recover(path, backend=survivor)
        assert recovered.summary().queries_executed == 5
        assert_matches_reference(recovered, reference, committed=5)

    def test_journal_with_a_nan_threshold_is_rejected(self, base_suite, tmp_path):
        # ``json`` writes and reads NaN, so a journal can carry one; the
        # configuration it rebuilds must refuse it like any other.
        engine = SpaceOdyssey(base_suite.fork().catalog, CONFIG, journal=tmp_path / "ok.log")
        query = make_workload(base_suite, n=1)[0]
        engine.query(query.box, query.dataset_ids)
        header = engine.journal.read_last()
        survivor = engine.disk.backend.clone()
        del engine
        path = tmp_path / "nan.log"
        path.write_bytes(
            framed({**header, "config": {**header["config"], "refinement_threshold": math.nan}})
        )
        assert math.isnan(ManifestJournal(path).read_last()["config"]["refinement_threshold"])
        with pytest.raises(ValueError, match="refinement_threshold"):
            recover(path, backend=survivor)

    @pytest.mark.parametrize("version", (1, 2, 3, 4, 999))
    def test_unsupported_manifest_version_raises(self, tmp_path, version):
        # Today's journal of a store with derived files, its base relabelled.
        # Any other version is refused before a file is touched: the journal,
        # its directory and the store stay byte for byte as they were.
        suite = filesystem_suite(tmp_path)
        path = tmp_path / "journal.log"
        engine = SpaceOdyssey(suite.catalog, CONFIG, journal=path)
        for query in make_workload(suite, n=6, seed=9):
            engine.query(query.box, query.dataset_ids)
        assert engine.summary().merges_performed > 0
        manifest = engine.journal.read_last()
        del engine
        path.write_bytes(framed({**manifest, "version": version}))
        files, before = sorted(suite.disk.list_files()), tree_digests(tmp_path)
        assert len(files) > len(manifest["catalog"]["datasets"])  # derived files too

        refused = f"version {version}; only version {MANIFEST_VERSION} is read"
        with pytest.raises(RecoveryError, match=refused):
            recover(path)
        assert sorted(suite.disk.list_files()) == files
        assert tree_digests(tmp_path) == before

    @pytest.mark.parametrize(
        "entry", (recover, SpaceOdyssey.recover), ids=("module", "engine")
    )
    def test_recover_takes_a_journal_and_a_backend_only(self, entry):
        params = inspect.signature(entry).parameters
        assert list(params) == ["journal_path", "backend"]
        assert params["backend"].kind is inspect.Parameter.KEYWORD_ONLY
        assert params["backend"].default is None

    def test_refusal_uses_no_backend(self, tmp_path):
        class Untouchable:
            def __getattr__(self, name):
                raise AssertionError(f"the backend's {name} was used")

        path = tmp_path / "journal.log"
        path.write_bytes(framed({"version": 4, "queries": []}))
        with pytest.raises(RecoveryError, match="version 4"):
            recover(path, backend=Untouchable())

    def test_the_engine_entry_point_refuses_another_version(self, tmp_path):
        path = tmp_path / "journal.log"
        path.write_bytes(framed({"version": MANIFEST_VERSION + 1, "queries": []}))
        with pytest.raises(RecoveryError, match="open the raw datasets and start a fresh"):
            SpaceOdyssey.recover(path)
        assert list(tmp_path.iterdir()) == [path]

    def test_memory_backend_requires_survivor(self, base_suite, tmp_path):
        path = tmp_path / "journal.log"
        engine = SpaceOdyssey(base_suite.fork().catalog, CONFIG, journal=path)
        workload = make_workload(base_suite, n=1)
        engine.query(workload[0].box, workload[0].dataset_ids)
        with pytest.raises(RecoveryError, match="in-memory"):
            recover(path)  # no backend passed: the bytes died with the process

    def test_missing_raw_file_raises(self, base_suite, tmp_path):
        path = tmp_path / "journal.log"
        engine = SpaceOdyssey(base_suite.fork().catalog, CONFIG, journal=path)
        workload = make_workload(base_suite, n=2)
        for query in workload:
            engine.query(query.box, query.dataset_ids)
        survivor = engine.disk.backend.clone()
        raw = next(name for name in survivor.list_files() if name.startswith("raw"))
        survivor.delete(raw)
        with pytest.raises(RecoveryError, match="missing"):
            recover(path, backend=survivor)

    def test_fresh_engine_rejects_used_journal(self, base_suite, tmp_path):
        path = tmp_path / "journal.log"
        engine = SpaceOdyssey(base_suite.fork().catalog, CONFIG, journal=path)
        workload = make_workload(base_suite, n=1)
        engine.query(workload[0].box, workload[0].dataset_ids)
        del engine
        with pytest.raises(ValueError, match="recover"):
            SpaceOdyssey(base_suite.fork().catalog, CONFIG, journal=path)
