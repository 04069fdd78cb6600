"""Unit tests for batches whose read phases run on threads.

Bit-identity with the serial batch (answers in order, reports, group
reads, CPU seconds, adaptive state and page bytes) is the thread row of
the engine oracle, ``tests/test_engine_fuzz.py``; this file covers
``query_batch(workers=)``'s edge cases and the thread-safe read set
directly.
"""

from __future__ import annotations

import threading

import pytest

from repro.core.batch import BatchReadSet, QueryBatch
from repro.core.odyssey import SpaceOdyssey
from repro.core.parallel import ParallelReadSet
from repro.data.spatial_object import spatial_object_codec
from repro.storage.cost_model import DiskModel
from repro.storage.disk import Disk
from repro.storage.pagedfile import PagedFile

from tests.conftest import make_random_objects
from tests.oracle import hot_workload


class TestParallelExecutor:
    def test_workers_one_uses_serial_engine(self, suite):
        workload = hot_workload(suite, 4)
        for workers, label, reads in ((None, "serial", 0), (1, "serial", 0), (8, "thread", 4)):
            odyssey = SpaceOdyssey(suite.fork().catalog)
            tracer = odyssey.enable_tracing()
            odyssey.query_batch(workload, workers=workers)
            # A single-query batch never fans out, whatever the worker count.
            odyssey.query_batch(workload[:1], workers=workers)
            spans = tracer.finished()
            roots = [span for span in spans if span.name == "batch"]
            assert {span.attributes["executor"] for span in roots} == {label}
            # Only a pooled batch's reads run as per-query tasks; the filter is one call.
            assert sum(span.name == "query.read" for span in spans) == reads
            assert not any(span.name == "query.filter" for span in spans)

    def test_invalid_workers_rejected(self, suite):
        odyssey = SpaceOdyssey(suite.fork().catalog)
        workload = hot_workload(suite, 2)
        with pytest.raises(ValueError):
            odyssey.query_batch([], workers=0)
        with pytest.raises(ValueError):
            odyssey.query_batch(workload, workers=-2)
        with pytest.raises(ValueError):
            odyssey.query_batch(workload, workers=0, snapshot=True)
        with pytest.raises(ValueError):
            odyssey.prepare_batch(workload, workers=0)
        assert odyssey.summary().queries_executed == 0

    def test_empty_and_single_query_batches(self, suite):
        odyssey = SpaceOdyssey(suite.fork().catalog)
        empty = odyssey.query_batch([], workers=4)
        assert len(empty) == 0 and empty.reports == []
        workload = hot_workload(suite, 1)
        single = odyssey.query_batch(workload, workers=4)
        assert len(single) == 1
        assert odyssey.summary().queries_executed == 1

    def test_accepts_prebuilt_query_batch(self, suite):
        workload = hot_workload(suite, 6)
        batch = QueryBatch(workload)
        odyssey = SpaceOdyssey(suite.fork().catalog)
        result = odyssey.query_batch(batch, workers=2)
        assert len(result) == 6

    def test_invalid_dataset_id_fails_before_any_work(self, suite):
        odyssey = SpaceOdyssey(suite.fork().catalog)
        workload = hot_workload(suite, 4)
        bad = [(workload[0].box, (0, 99))] + [
            (q.box, q.dataset_ids) for q in workload[1:]
        ]
        with pytest.raises(KeyError):
            odyssey.query_batch(bad, workers=3)
        assert odyssey.summary().queries_executed == 0
        assert odyssey.trees == {}


class TestParallelReadSet:
    @pytest.fixture
    def stored_groups(self):
        disk = Disk(model=DiskModel(), buffer_pages=64)
        file = PagedFile(disk, "objs.dat", spatial_object_codec(3))
        from repro.geometry.box import Box

        universe = Box((0.0, 0.0, 0.0), (100.0, 100.0, 100.0))
        runs = [
            file.append_group(
                make_random_objects(universe, 120, dataset_id=d, seed=d)
            )
            for d in range(3)
        ]
        return file, runs

    def test_counters_match_serial_read_set(self, stored_groups):
        file, runs = stored_groups
        serial = BatchReadSet()
        parallel = ParallelReadSet()
        plans = [[runs[0], runs[1]], [runs[0], runs[2], runs[1]], [], [runs[0]]]
        for plan in plans:
            entries = [(0, file, run) for run in plan]
            assert [
                records.tobytes() for records in serial.read(entries)
            ] == [records.tobytes() for records in parallel.read(entries)]
        read = sum(len(plan) for plan in plans)
        assert parallel.group_reads == serial.group_reads == read
        assert parallel.dedup_hits == serial.dedup_hits == read - len(runs)

    def test_concurrent_reads_decode_each_group_once(self, stored_groups):
        file, runs = stored_groups
        read_set = ParallelReadSet()
        seen = []
        barrier = threading.Barrier(6)

        def reader() -> None:
            barrier.wait(timeout=10)
            for run in runs:
                seen.extend(read_set.read([(0, file, run)]))

        threads = [threading.Thread(target=reader) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert read_set.group_reads == 6 * len(runs)
        assert read_set.dedup_hits == 6 * len(runs) - len(runs)
        # Every reader got the same records array per stored group.
        distinct = {id(group) for group in seen}
        assert len(distinct) == len(runs)

