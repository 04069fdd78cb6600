"""Structural guard for the durable path: work per change, counted, not timed.

Below the engine, a journaled filesystem run must cost what changed, not
what exists: a page file is opened once per backend and then addressed
through that descriptor (never an ``open`` per page), a commit appends one
small delta however long the history is, and re-attaching to a raw file
counts its records without building an object per record.  A per-page
``open``, a manifest re-serialised per commit or a scalar recount is a
regression these counts catch without a stopwatch.

The second half is descriptor hygiene: long-lived descriptors must be
given back — on ``delete``, on ``close()``, when a backend is dropped —
and stay under :data:`~repro.storage.backend.MAX_OPEN_FILES` whatever the
number of page files.
"""

from __future__ import annotations

import gc
import os
import sys
import threading
from collections import Counter

import pytest

from repro.core.config import OdysseyConfig
from repro.core.odyssey import SpaceOdyssey
from repro.data.dataset import Dataset
from repro.data.suite import build_benchmark_suite
from repro.storage import backend as backend_module
from repro.storage import pagedfile as pagedfile_module
from repro.storage.backend import MAX_OPEN_FILES, FileSystemBackend
from repro.storage.cost_model import DiskModel
from repro.storage.disk import Disk
from repro.storage.journal import ManifestJournal

from tests.test_recovery import make_workload

CONFIG = OdysseyConfig(merge_threshold=1, min_merge_combination=2)


def fs_suite(root, buffer_pages=8):
    disk = Disk(
        backend=FileSystemBackend(root),
        model=DiskModel(seek_time_s=1e-4),
        buffer_pages=buffer_pages,
    )
    return build_benchmark_suite(n_datasets=3, objects_per_dataset=250, seed=13, disk=disk)


# ---------------------------------------------------------------------- #
# Counts
# ---------------------------------------------------------------------- #


@pytest.fixture
def opens(monkeypatch):
    """``os.open`` calls on page files, by path; and those made inside ``read``."""
    counts = {"by_path": Counter(), "inside_read": 0}
    reading = [0]
    real_open = os.open
    real_read = FileSystemBackend.read

    def counting_open(path, *args, **kwargs):
        if str(path).endswith(".pages"):
            counts["by_path"][str(path)] += 1
            counts["inside_read"] += reading[0]
        return real_open(path, *args, **kwargs)

    def flagged_read(self, name, page_no):
        reading[0] = 1
        try:
            return real_read(self, name, page_no)
        finally:
            reading[0] = 0

    monkeypatch.setattr(backend_module.os, "open", counting_open)
    monkeypatch.setattr(FileSystemBackend, "read", flagged_read)
    return counts


class TestCostsPerChange:
    def test_one_open_per_page_file_and_none_per_read(self, tmp_path, opens):
        suite = fs_suite(tmp_path / "pages")
        engine = SpaceOdyssey(suite.catalog, CONFIG, journal=tmp_path / "journal.log")
        for query in make_workload(suite, n=24):
            engine.query(query.box, query.dataset_ids)
        files = engine.disk.list_files()
        assert any(name.startswith("odyssey_") for name in files)
        assert any(name.startswith("merge_") for name in files)
        # One backend: every page file it ever touched was opened once.
        stats = engine.disk.stats_snapshot()
        assert stats.pages_read + stats.pages_written > 5 * len(opens["by_path"]) > 0
        assert max(opens["by_path"].values()) == 1
        assert opens["inside_read"] == 0

    def test_commit_record_does_not_grow_with_the_history(self, tmp_path):
        suite = fs_suite(tmp_path / "pages")
        path = tmp_path / "journal.log"
        journal = ManifestJournal(path, compact_every=10_000)
        engine = SpaceOdyssey(suite.catalog, CONFIG, journal=journal)
        query = make_workload(suite, n=1)[0]
        grown = []
        for _ in range(150):
            before = path.stat().st_size
            engine.query(query.box, query.dataset_ids)  # equal-sized queries
            grown.append(path.stat().st_size - before)
        assert abs(grown[149] - grown[9]) <= 4  # the digits of the count
        assert grown[149] < 400
        assert len(journal.read_last()["queries"]) == 150

    def test_reattaching_counts_records_without_decoding_objects(
        self, tmp_path, monkeypatch
    ):
        suite = fs_suite(tmp_path / "pages", buffer_pages=4)
        dataset = suite.datasets[0]
        scalar_decodes = [0]
        real_decode = pagedfile_module.decode_page

        def counting_decode(*args, **kwargs):
            scalar_decodes[0] += 1
            return real_decode(*args, **kwargs)

        monkeypatch.setattr(pagedfile_module, "decode_page", counting_decode)

        scalar = suite.fork()
        scalar_count = sum(1 for _ in scalar.datasets[0].file.scan())
        assert scalar_decodes[0] == dataset.size_pages() > 1
        charged = scalar.disk.stats_snapshot()

        scalar_decodes[0] = 0
        fresh = suite.fork().disk
        reopened = Dataset.open(
            fresh, dataset.dataset_id, dataset.name, universe=dataset.universe
        )
        assert scalar_decodes[0] == 0
        assert reopened.n_objects == scalar_count == dataset.n_objects
        stats = fresh.stats_snapshot()
        assert (stats.pages_read, stats.seeks, stats.io_seconds) == (
            charged.pages_read,
            charged.seeks,
            charged.io_seconds,
        )


# ---------------------------------------------------------------------- #
# Descriptor hygiene
# ---------------------------------------------------------------------- #

needs_proc = pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
)


def open_descriptors() -> int:
    gc.collect()  # engines hold reference cycles: finalise dropped backends
    return len(os.listdir("/proc/self/fd"))


def page(tag: int, size: int = 128) -> bytes:
    return bytes([tag % 251]) * size


@needs_proc
class TestDescriptorHygiene:
    def test_delete_gives_the_descriptor_back(self, tmp_path):
        fs = FileSystemBackend(tmp_path, page_size=128)
        start = open_descriptors()
        fs.create("f")
        fs.append("f", page(1))
        assert open_descriptors() == start + 1
        fs.delete("f")
        assert open_descriptors() == start

    def test_disk_delete_file_gives_the_descriptor_back(self, tmp_path):
        disk = Disk(backend=FileSystemBackend(tmp_path), buffer_pages=4)
        start = open_descriptors()
        disk.create_file("f")
        disk.append_page("f", b"x")
        disk.delete_file("f")
        assert open_descriptors() == start

    def test_close_gives_every_descriptor_back_and_the_backend_still_works(
        self, tmp_path
    ):
        fs = FileSystemBackend(tmp_path, page_size=128)
        start = open_descriptors()
        for name in "abc":
            fs.create(name)
            fs.append(name, page(ord(name)))
        assert open_descriptors() == start + 3
        fs.close()
        assert open_descriptors() == start
        assert fs.read("b", 0) == page(ord("b"))
        fs.close()
        assert open_descriptors() == start

    def test_dropped_backend_and_discarded_clone_give_theirs_back(self, tmp_path):
        start = open_descriptors()
        fs = FileSystemBackend(tmp_path, page_size=128)
        fs.create("f")
        fs.append("f", page(1))
        clone = fs.clone()
        assert clone.read("f", 0) == page(1)
        assert open_descriptors() == start + 2
        del clone
        assert open_descriptors() == start + 1
        del fs
        assert open_descriptors() == start

    def test_discarded_fork_and_crashed_engine_give_theirs_back(self, tmp_path):
        suite = fs_suite(tmp_path / "pages")
        workload = make_workload(suite, n=6)
        start = open_descriptors()

        fork = suite.fork()
        for dataset in fork.datasets:
            assert sum(len(chunk) for chunk in dataset.scan_arrays()) == dataset.n_objects
        assert open_descriptors() == start + len(fork.datasets)
        del fork, dataset
        assert open_descriptors() == start

        path = tmp_path / "journal.log"
        engine = SpaceOdyssey(suite.fork().catalog, CONFIG, journal=path)
        for query in workload:
            engine.query(query.box, query.dataset_ids)
        summary = engine.summary()
        assert open_descriptors() > start
        del engine  # the crash: no shutdown, nothing closed by hand
        recovered = SpaceOdyssey.recover(path)
        assert recovered.summary() == summary
        held = open_descriptors() - start
        assert 0 < held <= len(recovered.disk.list_files())
        del recovered
        assert open_descriptors() == start

    def test_more_page_files_than_the_cap(self, tmp_path):
        fs = FileSystemBackend(tmp_path, page_size=128)
        start = open_descriptors()
        n_files = MAX_OPEN_FILES + 9
        for index in range(n_files):
            fs.create(f"f{index}")
            fs.append(f"f{index}", page(index))
            assert len(os.listdir("/proc/self/fd")) - start <= MAX_OPEN_FILES
        assert open_descriptors() - start == MAX_OPEN_FILES
        # f0..f8 were evicted: reads, writes and appends through re-opened
        # descriptors see and produce the same bytes.
        for index in range(n_files):
            assert fs.read(f"f{index}", 0) == page(index)
            fs.write(f"f{index}", 0, page(index + 1))
            assert fs.append(f"f{index}", page(index + 2)) == 1
        for index in range(n_files):
            assert fs.num_pages(f"f{index}") == 2
            assert fs.read(f"f{index}", 0) == page(index + 1)
            assert fs.read(f"f{index}", 1) == page(index + 2)
            assert (tmp_path / f"f{index}.pages").read_bytes() == page(index + 1) + page(
                index + 2
            )
        assert open_descriptors() - start == MAX_OPEN_FILES
        fs.close()
        assert open_descriptors() == start

    def test_threads_sharing_one_backend_past_the_cap(self, tmp_path):
        # More threads than cores, more files than descriptors: evictions
        # race with reads and writes of other files.  A descriptor closed
        # (and its number reused) under a reader would show up as another
        # file's bytes or an EBADF.
        fs = FileSystemBackend(tmp_path, page_size=128)
        start = open_descriptors()
        n_threads, files_each, rounds = 8, MAX_OPEN_FILES // 8 + 3, 40
        for worker in range(n_threads):
            for index in range(files_each):
                fs.create(f"w{worker}_{index}")
                fs.append(f"w{worker}_{index}", page(worker))
        failures: list[BaseException] = []

        def run(worker: int) -> None:
            try:
                for round_no in range(rounds):
                    for index in range(files_each):
                        name = f"w{worker}_{index}"
                        assert fs.read(name, 0) == page(worker + round_no)
                        fs.write(name, 0, page(worker + round_no + 1))
                        assert fs.num_pages(name) == 1
            except BaseException as error:  # surfaced by the assert below
                failures.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run, args=(w,)) for w in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert len(os.listdir("/proc/self/fd")) - start <= MAX_OPEN_FILES
        for worker in range(n_threads):
            assert fs.read(f"w{worker}_0", 0) == page(worker + rounds)
        fs.close()
        assert open_descriptors() == start
