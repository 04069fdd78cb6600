"""Unit tests of the batched execution engine's building blocks.

The end-to-end guarantees (batch == sequential, batch == brute force,
batch never costs more pages) live in ``test_engine_fuzz.py``,
``test_properties.py`` and ``test_batch_cost.py``; this module covers the
pieces in isolation: batch normalisation, the leaf snapshot cache, the
vectorized overlap search, the columnar page decode and the shared read
set's deduplication.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.adaptor import Adaptor
from repro.core.batch import BatchReadSet, QueryBatch
from repro.core.config import OdysseyConfig
from repro.core.odyssey import SpaceOdyssey
from repro.data.columnar import DecodedGroup
from repro.data.spatial_object import spatial_object_codec, spatial_object_dtype
from repro.geometry.box import Box
from repro.geometry.vectorized import boxes_to_arrays
from repro.workload.query import RangeQuery

from tests.conftest import make_catalog, make_dataset, make_random_objects
from tests.scalar_reference import (
    leaves_overlapping, read_partition, reference_tree, row_of, search_order,
)


class TestQueryBatch:
    def test_accepts_pairs_and_range_queries(self, universe):
        box = Box.cube((50.0, 50.0, 50.0), 10.0)
        batch = QueryBatch(
            [
                (box, [2, 0]),
                RangeQuery(qid=1, box=box, dataset_ids=(1,)),
            ]
        )
        assert len(batch) == 2
        assert batch.queries[0].requested == frozenset({0, 2})
        assert batch.queries[1].requested == frozenset({1})
        assert [q.index for q in batch] == [0, 1]

    def test_rejects_empty_combinations_and_junk(self):
        box = Box.cube((1.0, 1.0, 1.0), 1.0)
        with pytest.raises(ValueError, match="requests no datasets"):
            QueryBatch([(box, [])])
        with pytest.raises(TypeError):
            QueryBatch([42])
        with pytest.raises(TypeError):
            QueryBatch([("not a box", [0])])

    def test_groups_by_combination_preserving_order(self):
        box = Box.cube((1.0, 1.0, 1.0), 1.0)
        batch = QueryBatch([(box, [0, 1]), (box, [2]), (box, [1, 0])])
        groups = batch.groups()
        assert set(groups) == {frozenset({0, 1}), frozenset({2})}
        assert [q.index for q in groups[frozenset({0, 1})]] == [0, 2]
        assert batch.combinations() == {frozenset({0, 1}), frozenset({2})}


class TestLeafSnapshot:
    def _tree(self, disk, universe, count=400):
        dataset = make_dataset(disk, universe, count=count, seed=5)
        adaptor = Adaptor(OdysseyConfig(partitions_per_level=8))
        tree = adaptor.create_tree(dataset)
        adaptor.initialize(tree)
        return tree, adaptor

    def test_snapshot_is_cached_until_structure_changes(self, disk, universe):
        tree, adaptor = self._tree(disk, universe)
        first = tree.leaf_snapshot()
        assert tree.leaf_snapshot() is first
        assert first.version == tree.version
        adaptor.refine(tree, int(np.argmax(first.n_records)))
        second = tree.leaf_snapshot()
        assert second is not first
        assert second.version == tree.version > first.version
        # ppl rows appended; the parent's row stays, retired.
        assert len(second) == len(first) + tree.partitions_per_level
        assert tree.n_partitions == len(first) + tree.partitions_per_level - 1

    def test_snapshot_arrays_match_leaf_boxes(self, disk, universe):
        tree, adaptor = self._tree(disk, universe)
        adaptor.refine(tree, int(np.argmax(tree.leaf_snapshot().n_records)))
        snapshot = tree.leaf_snapshot()
        assert snapshot.lo.shape == (len(snapshot), universe.dimension)
        rows = search_order(tree)
        for row, leaf in zip(rows, reference_tree(tree).leaves(), strict=True):
            assert snapshot.keys[row] == leaf.key
            assert tuple(snapshot.lo[row]) == leaf.box.lo
            assert tuple(snapshot.hi[row]) == leaf.box.hi

    def test_batch_search_matches_scalar_search_and_order(self, disk, universe):
        tree, adaptor = self._tree(disk, universe)
        queries = [
            Box.cube((25.0, 25.0, 25.0), 30.0),
            Box.cube((80.0, 10.0, 60.0), 5.0),
            universe,
            Box((10.0, 10.0, 10.0), (10.0, 10.0, 10.0)),  # degenerate point
        ]
        # Refine a few leaves so the tree has mixed depths.
        for key in tree.leaf_snapshot().keys[:3]:
            row = row_of(tree, key)
            if tree.leaf_snapshot().n_records[row]:
                adaptor.refine(tree, row)
        batched = tree.leaves_overlapping_batch(*boxes_to_arrays(queries))
        keys = tree.leaf_snapshot().keys
        for box, rows in zip(queries, batched):
            scalar = leaves_overlapping(tree, box)
            # Rows ascending; in key order, descending, they are the walk's order.
            assert rows.tolist() == sorted(rows.tolist())
            ordered = sorted((keys[row] for row in rows), reverse=True)
            assert ordered == [leaf.key for leaf in scalar]

    def test_uninitialised_tree_raises(self, disk, universe):
        dataset = make_dataset(disk, universe, count=10, seed=1)
        tree = Adaptor(OdysseyConfig(partitions_per_level=8)).create_tree(dataset)
        with pytest.raises(RuntimeError):
            tree.leaf_snapshot()
        with pytest.raises(RuntimeError):
            tree.leaves_overlapping_batch(*boxes_to_arrays([Box.cube((1.0, 1.0, 1.0), 1.0)]))


class TestColumnarDecode:
    def test_dtype_layout_matches_codec(self):
        codec = spatial_object_codec(3)
        dtype = spatial_object_dtype(3)
        assert dtype.itemsize == codec.record_size
        objects = make_random_objects(Box.unit(3), 5, dataset_id=7, seed=2)
        packed = b"".join(codec.pack(obj) for obj in objects)
        decoded = np.frombuffer(packed, dtype=dtype)
        for row, obj in zip(decoded, objects):
            assert int(row["oid"]) == obj.oid
            assert int(row["dataset_id"]) == obj.dataset_id
            assert tuple(row["lo"]) == obj.box.lo
            assert tuple(row["hi"]) == obj.box.hi

    def test_read_set_roundtrips_and_dedupes(self, disk, universe):
        dataset = make_dataset(disk, universe, count=150, seed=9)
        adaptor = Adaptor(OdysseyConfig(partitions_per_level=8))
        tree = adaptor.create_tree(dataset)
        adaptor.initialize(tree)
        read_set = BatchReadSet()
        leaf = max(reference_tree(tree).leaves(), key=lambda node: node.n_objects)
        (records,) = read_set.read([(0, tree.file, leaf.run)])
        group = DecodedGroup.from_records(records, universe.dimension)
        expected = read_partition(tree, leaf)
        assert group.n_records == len(expected)
        materialized = group.materialize(np.ones(group.n_records, dtype=bool))
        assert materialized == expected
        pages_before = disk.stats.pages_read
        (again,) = read_set.read([(0, tree.file, leaf.run)])
        assert again is records
        assert disk.stats.pages_read == pages_before
        assert read_set.group_reads == 2
        assert read_set.dedup_hits == 1


class TestQueryBatchExecution:
    def _odyssey(self, disk, universe, n_datasets=3):
        catalog = make_catalog(disk, universe, n_datasets=n_datasets, count=250)
        return SpaceOdyssey(catalog, OdysseyConfig(partitions_per_level=8))

    def test_empty_batch_is_a_noop(self, disk, universe):
        odyssey = self._odyssey(disk, universe)
        result = odyssey.query_batch([])
        assert len(result) == 0
        assert result.reports == []
        assert odyssey.summary().queries_executed == 0

    def test_single_query_batch_equals_sequential(self, disk, universe, model):
        from repro.storage.disk import Disk

        box = Box.cube((40.0, 40.0, 40.0), 25.0)
        seq_disk = Disk(model=model, buffer_pages=0)
        seq = self._odyssey(seq_disk, universe)
        expected = seq.query(box, [0, 2])

        odyssey = self._odyssey(disk, universe)
        result = odyssey.query_batch([(box, [0, 2])])
        assert len(result) == 1
        assert result[0] == expected
        assert result.hit_counts() == [len(expected)]
        assert result.total_results() == len(expected)
        report = result.reports[0]
        assert report.results == len(expected)
        assert report.requested == (0, 2)
        assert odyssey.last_report is report
        assert odyssey.summary().queries_executed == 1

    def test_duplicate_queries_share_page_reads(self, disk, universe):
        odyssey = self._odyssey(disk, universe)
        box = Box.cube((50.0, 50.0, 50.0), 30.0)
        result = odyssey.query_batch([(box, [0, 1]), (box, [0, 1]), (box, [0, 1])])
        assert result.group_reads_deduped > 0
        assert result.hit_counts()[0] == result.hit_counts()[1] == result.hit_counts()[2]
        keys = [{obj.key() for obj in hits} for hits in result.results]
        assert keys[0] == keys[1] == keys[2]

    def test_unknown_dataset_id_fails_before_any_state_change(self, disk, universe):
        odyssey = self._odyssey(disk, universe)
        box = Box.cube((10.0, 10.0, 10.0), 5.0)
        with pytest.raises(KeyError):
            odyssey.query_batch([(box, [0]), (box, [99])])
        # The failing batch must not have executed its valid prefix.
        assert odyssey.summary().queries_executed == 0
        assert odyssey.trees == {}

    def test_workload_object_is_accepted(self, disk, universe):
        from repro.bench.runner import generate_workload

        odyssey = self._odyssey(disk, universe)
        workload = generate_workload(
            universe,
            odyssey.catalog.dataset_ids(),
            6,
            seed=4,
            datasets_per_query=2,
            volume_fraction=1e-2,
        )
        result = odyssey.query_batch(workload)
        assert len(result) == 6
        assert odyssey.summary().queries_executed == 6


class TestFailedReadHalf:
    """A batch whose read half raises commits nothing, in every mode.

    Every tree is initialised first, so the failed batch has no first
    touch to do: its only effects could be the commit's — CPU charges,
    the query count, refinement and statistics, the journal.
    """

    @pytest.mark.parametrize(
        "options", [{}, {"workers": 2}, {"snapshot": True}], ids=["serial", "thread", "snapshot"]
    )
    def test_failed_batch_leaves_commit_state_unchanged(
        self, suite, tmp_path, monkeypatch, options
    ):
        from repro.bench.runner import generate_workload
        from repro.storage import pagedfile as pagedfile_module

        from tests.oracle import adaptive_state, packed_hits

        workload = list(
            generate_workload(
                suite.universe,
                suite.catalog.dataset_ids(),
                4,
                seed=29,
                datasets_per_query=2,
                volume_fraction=5e-2,
            )
        )

        def engine(name):
            odyssey = SpaceOdyssey(suite.fork().catalog, journal=tmp_path / name)
            odyssey.query(suite.universe, suite.catalog.dataset_ids())
            assert odyssey.disk.buffer_pool.capacity_pages == 0  # every page read decodes
            return odyssey

        # The one group reader decodes every page a batch reads; the
        # failure is injected at the batch's last page.
        decode = pagedfile_module.decode_page_array
        calls = {"made": 0, "fail_at": None}

        def counted(dtype, data):
            calls["made"] += 1
            if calls["made"] == calls["fail_at"]:
                raise RuntimeError("injected decode failure")
            return decode(dtype, data)

        monkeypatch.setattr(pagedfile_module, "decode_page_array", counted)
        reference = engine("reference.log")
        calls["made"] = 0
        expected = reference.query_batch(workload, **options)
        batch_decodes = calls["made"]
        assert batch_decodes >= 4, "the batch must read several pages"

        odyssey = engine("failing.log")
        before = (
            odyssey.disk.stats.cpu_seconds,
            odyssey.summary(),
            adaptive_state(odyssey),
            (tmp_path / "failing.log").read_bytes(),
        )
        calls["made"], calls["fail_at"] = 0, batch_decodes  # the batch's last page
        with pytest.raises(RuntimeError, match="injected decode failure"):
            odyssey.query_batch(workload, **options)
        after = (
            odyssey.disk.stats.cpu_seconds,
            odyssey.summary(),
            adaptive_state(odyssey),
            (tmp_path / "failing.log").read_bytes(),
        )
        assert after == before

        calls["fail_at"] = None
        result = odyssey.query_batch(workload, **options)
        assert [packed_hits(odyssey, hits) for hits in result] == [
            packed_hits(reference, hits) for hits in expected
        ]
        assert odyssey.disk.stats.cpu_seconds == reference.disk.stats.cpu_seconds


class TestFailedWriterHalf:
    """A batch whose writer half raises at query ``k`` keeps the first ``k``
    committed and journaled, in every mode, as sequential execution does."""

    @pytest.mark.parametrize(
        "options", [{}, {"workers": 2}, {"snapshot": True}], ids=["serial", "thread", "snapshot"]
    )
    def test_the_committed_prefix_is_journaled(self, suite, tmp_path, monkeypatch, options):
        from repro.core.statistics import StatisticsCollector
        from repro.storage.errors import CorruptPageError
        from repro.storage.journal import ManifestJournal

        from tests.oracle import adaptive_state, make_workload, packed_hits

        workload = make_workload(suite, n=4, seed=29)
        real, calls = StatisticsCollector.record_query, []

        def record_query(collector, *args, **kwargs):
            calls.append(None)
            if len(calls) == 3:
                raise CorruptPageError("injected writer-half failure")
            return real(collector, *args, **kwargs)

        monkeypatch.setattr(StatisticsCollector, "record_query", record_query)
        reference = SpaceOdyssey(suite.fork().catalog, journal=tmp_path / "reference.log")
        expected = [reference.query(q.box, q.dataset_ids) for q in workload[:2]]
        with pytest.raises(CorruptPageError):
            reference.query(workload[2].box, workload[2].dataset_ids)

        calls.clear()
        odyssey = SpaceOdyssey(suite.fork().catalog, journal=tmp_path / "batch.log")
        with pytest.raises(CorruptPageError) as raised:
            odyssey.query_batch(workload, **options)
        assert [packed_hits(odyssey, hits) for hits in raised.value.committed_results] == [
            packed_hits(reference, hits) for hits in expected
        ]
        assert adaptive_state(odyssey) == adaptive_state(reference)
        for name in ("reference.log", "batch.log"):
            assert len(ManifestJournal(tmp_path / name).read_last()["queries"]) == 2
