"""Unit tests for batches whose read phases run on threads.

The heavy equivalence checking lives in the fuzz harness
(``tests/test_engine_fuzz.py``); this file covers ``query_batch(workers=)``
and the thread-safe read set directly.
"""

from __future__ import annotations

import threading

import pytest

from repro.bench.runner import generate_workload
from repro.core.batch import BatchReadSet, QueryBatch
from repro.core.config import OdysseyConfig
from repro.core.odyssey import SpaceOdyssey
from repro.core.parallel import ParallelReadSet
from repro.data.spatial_object import spatial_object_codec
from repro.storage.cost_model import DiskModel
from repro.storage.disk import Disk
from repro.storage.pagedfile import PagedFile

from tests.conftest import make_random_objects
from tests.test_batch_differential import (
    REPORT_FIELDS,
    adaptive_state,
    disk_files,
)


MERGE_CONFIG = OdysseyConfig(
    merge_threshold=1,
    min_merge_combination=2,
)


def _workload(suite, n=24, seed=61):
    return list(
        generate_workload(
            suite.universe,
            suite.catalog.dataset_ids(),
            n,
            seed=seed,
            datasets_per_query=3,
            volume_fraction=5e-3,
            ranges="clustered",
            ids_distribution="heavy_hitter",
        )
    )


class TestParallelExecutor:
    def test_bit_identical_to_serial_batch(self, suite):
        workload = _workload(suite)
        serial = SpaceOdyssey(suite.fork().catalog, MERGE_CONFIG)
        parallel = SpaceOdyssey(suite.fork().catalog, MERGE_CONFIG)
        serial_result = serial.query_batch(workload)
        parallel_result = parallel.query_batch(workload, workers=4)
        assert parallel_result.results == serial_result.results  # order included
        for expected, actual in zip(serial_result.reports, parallel_result.reports):
            for field in REPORT_FIELDS + ("objects_examined",):
                assert getattr(actual, field) == getattr(expected, field)
        assert parallel_result.group_reads == serial_result.group_reads
        assert (
            parallel_result.group_reads_deduped == serial_result.group_reads_deduped
        )
        assert adaptive_state(parallel) == adaptive_state(serial)
        assert disk_files(parallel) == disk_files(serial)

    def test_cpu_seconds_match_serial_batch(self, suite):
        windows = _workload(suite, n=16)
        workload = windows + windows  # every window twice, so keys turn hot and merge
        serial = SpaceOdyssey(suite.fork().catalog, MERGE_CONFIG)
        parallel = SpaceOdyssey(suite.fork().catalog, MERGE_CONFIG)
        serial.query_batch(workload)
        parallel.query_batch(workload, workers=3)
        assert serial.summary().merges_performed > 0, "the workload never merged"
        # The deterministic writer phase charges CPU in submission order,
        # so the accumulated float is the identical sum.
        assert parallel.disk.stats.cpu_seconds == serial.disk.stats.cpu_seconds

    def test_workers_one_uses_serial_engine(self, suite):
        workload = _workload(suite, n=4)
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
        workload = _workload(suite, n=2)
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
        workload = _workload(suite, n=1)
        single = odyssey.query_batch(workload, workers=4)
        assert len(single) == 1
        assert odyssey.summary().queries_executed == 1

    def test_accepts_prebuilt_query_batch(self, suite):
        workload = _workload(suite, n=6)
        batch = QueryBatch(workload)
        odyssey = SpaceOdyssey(suite.fork().catalog)
        result = odyssey.query_batch(batch, workers=2)
        assert len(result) == 6

    def test_invalid_dataset_id_fails_before_any_work(self, suite):
        odyssey = SpaceOdyssey(suite.fork().catalog)
        workload = _workload(suite, n=4)
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

