"""Crash-consistent recovery: differential parity, crash-point sweep, edge cases.

The contract under test (see :mod:`repro.core.recovery`): an engine
recovered from its manifest journal is **bit-identical** — adaptive
state, on-disk derived bytes, and the answers of every subsequent query —
to an engine that executed the same committed query prefix without ever
crashing.  The sweep drives a simulated crash into every journaled write
site (all six named journal crash points, plus scheduled crashes on the
Nth backend page mutation with torn-page persistence) and proves the
contract holds from each.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import replace

import pytest

from repro.bench.runner import generate_workload
from repro.core.config import OdysseyConfig
from repro.core.odyssey import SpaceOdyssey
from repro.core.recovery import MANIFEST_VERSION, RecoveryError, encode_query, recover
from repro.data.dataset import Dataset, DatasetCatalog
from repro.data.spatial_object import spatial_object_codec
from repro.data.suite import BenchmarkSuite, build_benchmark_suite
from repro.storage.backend import FileSystemBackend
from repro.storage.cost_model import DiskModel
from repro.storage.disk import Disk
from repro.storage.errors import SimulatedCrash
from repro.storage.faults import FaultInjectingBackend, FaultPlan
from repro.storage.journal import ManifestJournal
from repro.storage.pagedfile import PagedFile

from tests.test_batch_differential import adaptive_state, disk_files, packed_hits

CONFIG = OdysseyConfig(merge_threshold=1, min_merge_combination=2)

N_QUERIES = 12


@pytest.fixture(scope="module")
def base_suite() -> BenchmarkSuite:
    return build_benchmark_suite(
        n_datasets=3,
        objects_per_dataset=250,
        seed=13,
        buffer_pages=64,
        model=DiskModel(seek_time_s=1e-4),
    )


def make_workload(suite: BenchmarkSuite, n: int = N_QUERIES, seed: int = 5):
    return list(
        generate_workload(
            suite.universe,
            suite.catalog.dataset_ids(),
            n,
            seed=seed,
            datasets_per_query=2,
            volume_fraction=5e-3,
        )
    )


def fork_with(suite: BenchmarkSuite, wrap) -> BenchmarkSuite:
    """`BenchmarkSuite.fork`, but with the cloned backend wrapped first."""
    disk = Disk(
        backend=wrap(suite.disk.backend.clone()),
        model=suite.disk.model,
        buffer_pages=suite.disk.buffer_pool.capacity_pages,
        buffer_shards=getattr(suite.disk.buffer_pool, "n_shards", 1),
    )
    datasets = [
        Dataset(
            dataset_id=dataset.dataset_id,
            name=dataset.name,
            universe=dataset.universe,
            n_objects=dataset.n_objects,
            disk=disk,
            file=PagedFile(
                disk, dataset.file.name, spatial_object_codec(dataset.dimension)
            ),
        )
        for dataset in suite.datasets
    ]
    return BenchmarkSuite(
        disk=disk,
        catalog=DatasetCatalog(datasets),
        generator=suite.generator,
        seed=suite.seed,
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
    def test_recover_memory_backend(self, base_suite, reference, tmp_path):
        workload = reference[0]
        path = tmp_path / "journal.log"
        engine = SpaceOdyssey(base_suite.fork().catalog, CONFIG, journal=path)
        for query in workload[:8]:
            engine.query(query.box, query.dataset_ids)
        survivor = engine.disk.backend.clone()  # the bytes a crash leaves
        del engine

        recovered = SpaceOdyssey.recover(path, backend=survivor)
        assert recovered.summary().queries_executed == 8
        assert_matches_reference(recovered, reference, committed=8)
        # The recovered engine keeps journaling: the log now covers the
        # continuation queries too.
        assert len(ManifestJournal(path).read_last()["queries"]) == len(workload)

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

    def test_batch_and_epoch_paths_are_journaled(self, base_suite, tmp_path):
        workload = make_workload(base_suite)
        path = tmp_path / "journal.log"
        engine = SpaceOdyssey(base_suite.fork().catalog, CONFIG, journal=path)
        engine.query_batch(workload[:4])
        engine.query_batch(workload[4:8], snapshot=True, workers=2)
        engine.query_batch(workload[8:])

        recovered = SpaceOdyssey.recover(path, backend=engine.disk.backend.clone())
        assert recovered.summary().queries_executed == len(workload)
        assert adaptive_state(recovered) == adaptive_state(engine)
        assert disk_files(recovered) == disk_files(engine)

    def test_recover_with_snapshot_reads_disabled(self, base_suite, tmp_path):
        config = replace(CONFIG, snapshot_reads=False)
        workload = make_workload(base_suite, n=6)
        path = tmp_path / "journal.log"
        engine = SpaceOdyssey(base_suite.fork().catalog, config, journal=path)
        for query in workload:
            engine.query(query.box, query.dataset_ids)

        recovered = SpaceOdyssey.recover(path, backend=engine.disk.backend.clone())
        assert recovered.config == config
        assert adaptive_state(recovered) == adaptive_state(engine)
        assert disk_files(recovered) == disk_files(engine)

    def test_recovery_is_idempotent(self, base_suite, tmp_path):
        # A crash *during* recovery just means recovery runs again: replay
        # writes nothing to the journal, so a second pass over the same
        # survivor bytes lands on the same state.
        workload = make_workload(base_suite, n=6)
        path = tmp_path / "journal.log"
        engine = SpaceOdyssey(base_suite.fork().catalog, CONFIG, journal=path)
        for query in workload:
            engine.query(query.box, query.dataset_ids)
        survivor = engine.disk.backend.clone()
        del engine

        first = SpaceOdyssey.recover(path, backend=survivor)
        state, files = adaptive_state(first), disk_files(first)
        del first
        again = SpaceOdyssey.recover(path, backend=survivor)
        assert adaptive_state(again) == state
        assert disk_files(again) == files


# ---------------------------------------------------------------------- #
# Crash-point sweep
# ---------------------------------------------------------------------- #

JOURNAL_CRASH_POINTS = (
    "journal.commit.start",
    "journal.commit.torn",
    "journal.commit.end",
    "journal.rewrite.start",
    "journal.rewrite.before_rename",
    "journal.rewrite.end",
)


class TestCrashPointSweep:
    @pytest.mark.parametrize("point", JOURNAL_CRASH_POINTS)
    def test_crash_at_every_journal_site(self, base_suite, reference, tmp_path, point):
        workload = reference[0]
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
        journal = ManifestJournal(path, compact_every=3, crash_hook=fault.maybe_crash)
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
        recovered = SpaceOdyssey.recover(
            ManifestJournal(path, compact_every=3), backend=fault
        )
        committed = recovered.summary().queries_executed
        # Crashing before durability loses the in-flight query; crashing
        # after keeps it.  Nothing else is acceptable.
        assert committed in (crashed_on, crashed_on + 1), (
            f"{point}: crash on query {crashed_on} recovered {committed} queries"
        )
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

        recovered = SpaceOdyssey.recover(path, backend=fault)
        committed = recovered.summary().queries_executed
        if crashed_on is None:
            # The workload performed fewer mutations than the schedule.
            assert committed == len(workload)
        else:
            # Page mutations happen strictly before the query commits.
            assert committed == crashed_on
        assert_matches_reference(recovered, reference, committed=committed)


# ---------------------------------------------------------------------- #
# Edge cases
# ---------------------------------------------------------------------- #


class TestRecoveryEdgeCases:
    def test_empty_journal_raises(self, tmp_path):
        with pytest.raises(RecoveryError, match="no intact manifest"):
            recover(tmp_path / "journal.log")

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

    def test_version_1_journal_recovers(self, base_suite, reference, tmp_path):
        # The layout before deltas: every commit appended one full
        # manifest.  Built here byte for byte, not written by today's code.
        workload = reference[0]
        committed = 7
        engine = SpaceOdyssey(
            base_suite.fork().catalog, CONFIG, journal=tmp_path / "today.log"
        )
        for query in workload[:committed]:
            engine.query(query.box, query.dataset_ids)
        today = engine.journal.read_last()
        survivor = engine.disk.backend.clone()
        summary = engine.summary()
        del engine

        def framed(record: dict) -> bytes:
            payload = json.dumps(record, separators=(",", ":"), sort_keys=True).encode()
            return struct.pack("<II", len(payload), zlib.crc32(payload)) + payload

        path = tmp_path / "v1.log"
        path.write_bytes(
            b"".join(
                framed({**today, "version": 1, "queries": today["queries"][:n]})
                for n in range(committed + 1)
            )
        )
        assert all("committed" not in r for r in ManifestJournal(path).records())

        recovered = SpaceOdyssey.recover(path, backend=survivor)
        assert recovered.summary() == summary
        # The log it keeps writing is today's: one base, then deltas.
        first, *rest = recovered.journal.records()
        assert first["version"] == MANIFEST_VERSION and rest == []
        assert_matches_reference(recovered, reference, committed=committed)
        first, *rest = recovered.journal.records()
        assert len(first["queries"]) == committed
        assert [r["committed"] for r in rest] == list(
            range(committed + 1, len(workload) + 1)
        )

    def test_unsupported_manifest_version_raises(self, tmp_path):
        path = tmp_path / "journal.log"
        ManifestJournal(path).commit({"version": 999, "queries": []})
        with pytest.raises(RecoveryError, match="version"):
            recover(path)

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
