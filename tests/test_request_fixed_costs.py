"""Structural guard for a served request's fixed costs: counted, not timed.

At a fixed point a request should pay for the rows it reads, so the
bookkeeping whose inputs stay fixed for a whole batch runs once per
batch, once per query boundary or once per run:

* the rows a query reads — the overlapped rows that hold records — are
  selected once per query and tree by ``query()`` and once per tree by a
  batch (:meth:`repro.core.partition.LeafSnapshot.occupied`); the read
  plan, the statistics and the refinement test share that selection;
* the rows each query would refine come from one candidate program per
  requested tree and batch (:meth:`repro.core.adaptor.Adaptor.
  candidates_batch`), not from one ``Adaptor.candidates`` per query and
  tree;
* each combination is routed once per batch, and the commit reuses the
  route while the merge directory is unchanged;
* each query's ``cache`` report is built from the pool's counter tally
  at its boundaries: no ``BufferPool.counters()`` snapshot in the batch;
* a run the pool holds whole is one pool call, decodings included;
* a hit is built with no ``SpatialObject.__init__`` frame.

Where a tree refines mid-batch, or a merge changes the directory, the
later queries of the batch fall back to the per-query calls, and the
batch still ends exactly as sequential execution.  The frame-free hits
equal constructed ones on equality, hash, repr, frozenness and pickling.
"""

from __future__ import annotations

import dataclasses
import math
import pickle
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import batch as batch_module
from repro.core import query_processor as query_processor_module
from repro.core.adaptor import Adaptor
from repro.core.odyssey import SpaceOdyssey
from repro.core.partition import LeafSnapshot
from repro.data import columnar as columnar_module
from repro.data.spatial_object import SpatialObject, trusted_objects
from repro.data.suite import build_benchmark_suite
from repro.geometry.box import Box
from repro.storage.buffer import BufferPool
from repro.storage.cost_model import DiskModel
from repro.storage.disk import Disk

from tests.oracle import EXPLORE_CONFIG as CONFIG, explore, mixed_workload

#: Every BufferPool method that looks up or stores a page, on either layer.
POOL_CALLS = ("get", "get_run", "decode_run", "put", "invalidate_page")


@pytest.fixture(scope="module")
def scenario():
    """A suite whose pool holds every page, and a workload that refines and merges."""
    suite = build_benchmark_suite(
        n_datasets=4,
        objects_per_dataset=350,
        seed=41,
        buffer_pages=4096,
        model=DiskModel(seek_time_s=1e-4),
    )
    return suite, mixed_workload(suite, 41, n_triples=24, n_pairs=16)


@pytest.fixture
def calls(monkeypatch) -> Counter:
    """Counts of the per-request bookkeeping calls and of the runs read."""
    counts: Counter = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("candidates", "candidates_batch"):
        monkeypatch.setattr(Adaptor, name, counted(name, getattr(Adaptor, name)))
    monkeypatch.setattr(LeafSnapshot, "occupied", counted("occupied", LeafSnapshot.occupied))
    for module in (batch_module, query_processor_module):
        monkeypatch.setattr(module, "choose_route", counted("route", module.choose_route))
    monkeypatch.setattr(BufferPool, "counters", counted("counters", BufferPool.counters))
    depth = [0]

    def entered(fn):
        """Counts calls into the pool; the pool's calls to itself are its own business."""

        def wrapper(*args, **kwargs):
            counts["pool"] += not depth[0]
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1

        return wrapper

    for name in POOL_CALLS:
        monkeypatch.setattr(BufferPool, name, entered(getattr(BufferPool, name)))
    monkeypatch.setattr(SpatialObject, "__init__", counted("init", SpatialObject.__init__))
    read_runs = Disk.read_runs

    def counted_runs(self, runs, *args, **kwargs):
        runs = list(runs)
        counts["runs"] += len(runs)
        return read_runs(self, runs, *args, **kwargs)

    monkeypatch.setattr(Disk, "read_runs", counted_runs)
    materialize = columnar_module.DecodedGroup.materialize

    def counted_materialize(self, mask):
        before = counts["init"]
        hits = materialize(self, mask)
        counts["hits"] += len(hits)
        counts["init_in_materialize"] += counts["init"] - before
        return hits

    monkeypatch.setattr(columnar_module.DecodedGroup, "materialize", counted_materialize)
    return counts


def converged_engine(suite, queries) -> SpaceOdyssey:
    engine = SpaceOdyssey(suite.fork().catalog, CONFIG)
    explore(engine, queries)
    return engine


def test_a_fixed_point_batch_pays_its_bookkeeping_once(scenario, calls):
    """Per batch: one row selection and one candidate program per tree, one
    route per combination, no counter snapshot, one pool call per cached
    run, no ``__init__`` frame."""
    suite, queries = scenario
    engine = converged_engine(suite, queries)
    pool = engine.disk.buffer_pool
    total_hits = 0
    for offset in range(0, len(queries), 16):
        chunk = queries[offset : offset + 16]
        engine.query_batch(chunk)  # warms the pool: the pages of every run
        assert pool.evictions == 0, "the pool must hold every page"
        calls.clear()
        result = engine.query_batch(chunk)
        assert not any(report.refinements or report.merged for report in result.reports)
        trees = {d for _, ids in chunk for d in ids}
        combinations = {frozenset(ids) for _, ids in chunk}
        assert calls["occupied"] == len(trees)
        assert calls["candidates_batch"] == len(trees)
        assert calls["candidates"] == 0
        assert calls["route"] == len(combinations)
        assert calls["counters"] == 0
        assert calls["runs"] > 0
        assert calls["pool"] == calls["runs"], "a cached run is one pool call"
        assert calls["init_in_materialize"] == 0
        for report in result.reports:
            assert report.cache.misses == 0 and report.cache.decoded_misses == 0
        total_hits += calls["hits"]
    assert total_hits > 0


def test_sequential_query_takes_no_counter_snapshot(scenario, calls):
    suite, queries = scenario
    engine = converged_engine(suite, queries)
    calls.clear()
    for box, ids in queries:
        engine.query(box, ids)
        assert engine.last_report.cache is not None
    assert calls["counters"] == 0
    assert calls["init_in_materialize"] == 0 and calls["hits"] > 0


def test_a_fixed_point_query_selects_its_rows_once_per_tree(scenario, calls):
    """``query()`` selects each requested tree's occupied rows once: the
    plan reads them and the writer half records and tests them, with no
    second selection while no tree refines."""
    suite, queries = scenario
    engine = converged_engine(suite, queries)
    for box, ids in queries:
        calls.clear()
        engine.query(box, ids)
        report = engine.last_report
        assert not report.refinements and not report.merged
        assert calls["occupied"] == len(set(ids))
        assert calls["candidates"] == len(set(ids))


def test_a_tree_that_refines_mid_batch_falls_back_per_query(scenario, calls):
    """From a cold start the trees refine inside the batch (and the merge
    directory changes): the later queries re-resolve their candidates and
    their route, and the batch ends exactly as sequential execution."""
    suite, queries = scenario
    batched = SpaceOdyssey(suite.fork().catalog, CONFIG)
    sequential = SpaceOdyssey(suite.fork().catalog, CONFIG)
    for _ in range(2):
        calls.clear()
        result = batched.query_batch(queries)
        assert calls["candidates"] > 0, "no tree refined before a later query of the batch"
        assert calls["occupied"] > len({d for _, ids in queries for d in ids})
        assert calls["route"] > len({frozenset(ids) for _, ids in queries})
        expected = []
        for box, ids in queries:
            hits = sequential.query(box, ids)
            expected.append((sorted(hit.key() for hit in hits), sequential.last_report))
        for hits, report, (expected_keys, expected_report) in zip(
            result.results, result.reports, expected
        ):
            assert sorted(hit.key() for hit in hits) == expected_keys
            for field in ("route", "partitions_read", "partitions_from_merge", "refinements",
                          "merged", "merge_new_partitions", "results"):
                assert getattr(report, field) == getattr(expected_report, field), field
    assert any(report.merged for report in result.reports) or batched.summary().merge_files
    assert batched.summary() == sequential.summary()


# ---------------------------------------------------------------------- #
# Frame-free hits against constructed ones
# ---------------------------------------------------------------------- #

coordinates = st.floats(allow_nan=False, allow_infinity=False, width=64)


@st.composite
def rows(draw):
    dimension = draw(st.integers(1, 3))
    lo = tuple(draw(coordinates) for _ in range(dimension))
    hi = tuple(low + draw(st.floats(0, 1e6)) for low in lo)
    hi = tuple(max(low, high) for low, high in zip(lo, hi))  # overflow guard
    return draw(st.integers(-(2**63), 2**63 - 1)), draw(st.integers(0, 2**31)), lo, hi


@settings(max_examples=200, deadline=None)
@given(st.lists(rows(), min_size=1, max_size=6))
def test_frame_free_hits_equal_constructed_ones(batch):
    built = trusted_objects(
        [oid for oid, _, _, _ in batch],
        [dataset_id for _, dataset_id, _, _ in batch],
        [lo for _, _, lo, _ in batch],
        [hi for _, _, _, hi in batch],
    )
    assert len(built) == len(batch)
    for hit, (oid, dataset_id, lo, hi) in zip(built, batch):
        expected = SpatialObject(oid, dataset_id, Box(lo, hi))
        assert type(hit) is SpatialObject and type(hit.box) is Box
        assert hit == expected and hit.box == expected.box
        assert hash(hit) == hash(expected) and hash(hit.box) == hash(expected.box)
        assert repr(hit) == repr(expected)
        assert hit.box.lo == lo and hit.box.hi == hi
        assert all(math.copysign(1, a) == math.copysign(1, b) for a, b in zip(hit.box.lo, lo))
        with pytest.raises(dataclasses.FrozenInstanceError):
            hit.oid = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            hit.box.lo = lo
        restored = pickle.loads(pickle.dumps(hit))
        assert restored == expected and hash(restored) == hash(expected)
