"""Structural guard for the read path: kernels per query and per batch, counted, not timed.

The read path of every columnar engine is a handful of array kernels —
for a query, one overlap kernel per requested dataset, then *one*
window+dataset mask and *one* materialisation over all the groups it
reads (:func:`repro.data.columnar.filter_groups`, a query being a batch of
one); for a batch, one ``intersect_matrix`` per requested dataset and one
mask and one materialisation for the whole batch.  A new loop over groups
or queries, a per-leaf Python check or a per-object validity check is a
regression these counts catch without a stopwatch.  The storage side is
counted too: a query's plan is one call of the group reader and one page
loop, a batch enters its read set once per request, the filter splits
records into columns once, and a page is decoded only on a decoded-cache
miss.  At a fixed point a query also validates no ``Box`` at all: windows
and hits are built from floats that are valid by construction.

The module also keeps the reference models the fused paths replaced: the
per-group filter loop (reduce-based mask, checked ``Box`` per hit) and the
per-query filter loop of the batch engine.  The fused paths must return
the references' hits in their order with their ``objects_examined``
(``tests/test_properties.py`` holds both window builders to the
``Box.expand(...).clamp(...)`` corners bit for bit).  The module also
holds the stored-corruption regression: moving box validation from a
``__post_init__`` per hit to one vectorised test must not have dropped
it, and a NaN extent is refused at first touch on every engine.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import batch as batch_module
from repro.core import parallel as parallel_module
from repro.core import partition as partition_module
from repro.core import query_processor as query_processor_module
from repro.core.adaptor import Adaptor
from repro.core.batch import BatchReadSet
from repro.core.config import OdysseyConfig
from repro.core.merge import choose_route
from repro.core.odyssey import SpaceOdyssey
from repro.core.parallel import ParallelReadSet
from repro.data import columnar as columnar_module
from repro.data.columnar import DecodedGroup, filter_groups
from repro.data.dataset import Dataset, DatasetCatalog, raw_file_name
from repro.data.spatial_object import SpatialObject, spatial_object_codec
from repro.geometry.box import Box
from repro.geometry.vectorized import intersect_mask
from repro.storage.cost_model import DiskModel
from repro.storage import pagedfile as pagedfile_module
from repro.storage.disk import Disk
from repro.storage.pagedfile import PagedFile

from tests.oracle import EXPLORE_CONFIG as CONFIG, explore, make_suite, mixed_workload
from tests.scalar_reference import ScalarOdyssey, leaves_overlapping, reference_tree


# ---------------------------------------------------------------------- #
# Reference model: the former per-group loop
# ---------------------------------------------------------------------- #


def reference_query(engine: SpaceOdyssey, box: Box, dataset_ids):
    """``(hits, examined, groups read)`` by one mask + one materialise per group.

    Reads the engine's current state without changing it: the reference
    stack walk, the route, merge segments in merge-file order and then
    partition runs in partition-file order, a reduce-over-``d`` mask per
    stored group and a validated ``Box`` per hit.
    """
    requested = frozenset(dataset_ids)
    trees = engine.trees
    decision = choose_route(engine.merge_directory, requested)
    info = decision.merge_info
    merge_plan, individual_plan = [], []
    for dataset_id in sorted(requested):
        tree = trees[dataset_id]
        extended = box.expand(tree.max_extent).clamp(tree.universe)
        for leaf in leaves_overlapping(tree, extended):
            if (
                info is not None
                and dataset_id in decision.covered_datasets
                and info.has_segment(leaf.key, dataset_id)
            ):
                merge_plan.append((dataset_id, info.segment(leaf.key, dataset_id)))
            else:
                individual_plan.append((dataset_id, leaf.run))

    def start(run):
        return run.extents[0].start if run is not None and run.extents else 0

    merge_plan.sort(key=lambda item: start(item[1]))
    individual_plan.sort(key=lambda item: (item[0], start(item[1])))
    plan = [(d, engine.merger.merge_file(info.combination), run) for d, run in merge_plan]
    plan += [(d, trees[d].file, run) for d, run in individual_plan]
    q_lo, q_hi = np.asarray(box.lo), np.asarray(box.hi)
    hits: list[SpatialObject] = []
    examined = groups = 0
    for dataset_id, file, run in plan:
        if run is None or run.n_records == 0:
            continue
        records = file.read_group_array(run)
        groups += 1
        examined += len(records)
        lo = records["lo"].reshape(len(records), -1)
        hi = records["hi"].reshape(len(records), -1)
        mask = (records["dataset_id"] == dataset_id) & ((q_lo <= hi) & (lo <= q_hi)).all(axis=1)
        for row in np.nonzero(mask)[0]:
            hits.append(
                SpatialObject(
                    oid=int(records["oid"][row]),
                    dataset_id=int(records["dataset_id"][row]),
                    box=Box(tuple(lo[row].tolist()), tuple(hi[row].tolist())),
                )
            )
    return hits, examined, groups


def reference_filter(plans, boxes) -> tuple[list[list[SpatialObject]], list[int]]:
    """The batch engine's former per-query filter loop.

    ``plans[i]`` lists query ``i``'s ``(owner, records)`` entries in read
    order; each query decodes every group into columns, concatenates its
    own groups column by column and filters them with one mask and one
    materialisation against its own window.
    """
    hits, examined = [], []
    for plan, box in zip(plans, boxes):
        if not plan:
            hits.append([])
            examined.append(0)
            continue
        groups = [
            DecodedGroup.from_records(records, records.dtype["lo"].shape[0])
            for _, records in plan
        ]
        merged = DecodedGroup(
            oids=np.concatenate([group.oids for group in groups]),
            dataset_ids=np.concatenate([group.dataset_ids for group in groups]),
            lo=np.concatenate([group.lo for group in groups]),
            hi=np.concatenate([group.hi for group in groups]),
        )
        owners = np.repeat([owner for owner, _ in plan], [group.n_records for group in groups])
        mask = intersect_mask(box.lo, box.hi, merged.lo, merged.hi)
        mask &= merged.dataset_ids == owners
        hits.append(merged.materialize(mask))
        examined.append(len(owners))
    return hits, examined


def batch_filter(plans, boxes) -> tuple[list[list[SpatialObject]], list[int]]:
    """``plans``/``boxes`` as :func:`reference_filter` takes them, through the batch filter."""
    entries = [(index, owner, group) for index, plan in enumerate(plans) for owner, group in plan]
    q_lo = np.array([box.lo for box in boxes], dtype=np.float64)
    q_hi = np.array([box.hi for box in boxes], dtype=np.float64)
    return filter_groups(entries, q_lo, q_hi)


# ---------------------------------------------------------------------- #
# Call counting
# ---------------------------------------------------------------------- #


@pytest.fixture
def calls(monkeypatch) -> Counter:
    """Counts of every read-path kernel, by the namespace that calls it."""
    counts: Counter = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        partition_module, "intersect_mask", counted("overlap_mask", partition_module.intersect_mask)
    )
    monkeypatch.setattr(
        partition_module,
        "intersect_matrix",
        counted("overlap_matrix", partition_module.intersect_matrix),
    )
    monkeypatch.setattr(
        columnar_module, "intersect_mask", counted("data_mask", columnar_module.intersect_mask)
    )
    monkeypatch.setattr(
        DecodedGroup, "materialize", counted("materialize", DecodedGroup.materialize)
    )
    # The storage shape: one group-reader call per plan, one page loop per
    # group-reader call, one read-set entry per request, one split into
    # columns per filter, and a page decoded only on a decoded-cache miss.
    for module in (query_processor_module, batch_module, parallel_module):
        monkeypatch.setattr(module, "read_groups", counted("storage_read", module.read_groups))
    monkeypatch.setattr(Disk, "read_runs", counted("page_loop", Disk.read_runs))
    for cls in (BatchReadSet, ParallelReadSet):
        monkeypatch.setattr(cls, "read", counted("read_set", cls.__dict__["read"]))
    monkeypatch.setattr(
        DecodedGroup,
        "from_records",
        staticmethod(counted("from_records", DecodedGroup.from_records)),
    )
    monkeypatch.setattr(
        pagedfile_module,
        "decode_page_array",
        counted("decode", pagedfile_module.decode_page_array),
    )
    maybe_refine = Adaptor.maybe_refine

    def checked_maybe_refine(self, tree, row, query):
        counts["maybe_refine"] += 1
        table = tree.leaf_snapshot()
        assert table.n_records[row] > 0, f"maybe_refine entered for empty leaf {table.keys[row]}"
        return maybe_refine(self, tree, row, query)

    monkeypatch.setattr(Adaptor, "maybe_refine", checked_maybe_refine)
    return counts


@pytest.fixture(scope="module")
def scenario():
    suite = make_suite(41)
    return suite, mixed_workload(suite, 41, n_triples=24, n_pairs=16)


# ---------------------------------------------------------------------- #
# The guard
# ---------------------------------------------------------------------- #


def test_sequential_query_is_a_handful_of_kernels(scenario, calls):
    """Per query: |C| overlap kernels, <= 1 data mask, <= 1 materialise.

    Checked while the engine explores (refinements, merges and merge-file
    reads included) and again at its fixed point; answers, their order and
    ``objects_examined`` equal the per-group reference loop throughout.
    """
    suite, queries = scenario
    engine = SpaceOdyssey(suite.fork().catalog, CONFIG)
    most_groups = from_merge = 0
    for phase in ("exploring", "converged"):
        for box, ids in queries:
            tag = f"{phase}: {sorted(ids)} {box}"
            if all(dataset_id in engine.trees for dataset_id in ids):
                expected = reference_query(engine, box, ids)
            else:
                expected = None  # first touch: nothing to walk yet
            calls.clear()
            pool = engine.disk.buffer_pool
            decoded_before = pool.decoded_misses
            hits = engine.query(box, ids)
            report = engine.last_report
            assert calls["overlap_mask"] == len(set(ids)), tag
            assert calls["overlap_matrix"] == 0, tag
            assert calls["data_mask"] <= 1 and calls["materialize"] <= 1, tag
            assert calls["storage_read"] == 1 and calls["read_set"] == 0, tag
            assert calls["decode"] == pool.decoded_misses - decoded_before, tag
            from_merge += report.partitions_from_merge
            if expected is not None:
                expected_hits, examined, groups = expected
                assert hits == expected_hits, tag
                assert report.objects_examined == examined, tag
                assert calls["data_mask"] == (1 if groups else 0), tag
                assert calls["from_records"] == (1 if groups else 0), tag
                if not report.refinements and not report.merged:
                    # Refining and merging read partitions of their own.
                    assert calls["page_loop"] == (1 if groups else 0), tag
                most_groups = max(most_groups, groups)
            if phase == "converged":
                assert report.refinements == 0 and not report.merged, tag
        if phase == "exploring":
            assert calls["maybe_refine"] or engine.summary().total_partitions > 4 * 8
            explore(engine, queries)
    assert most_groups >= 4, "no query read several groups: the guard guarded nothing"
    assert from_merge > 0, "no query was served from a merge file"
    assert engine.summary().total_partitions > 4 * 8, "the scenario never refined"


def test_fixed_point_query_validates_no_box(scenario, monkeypatch):
    """At the fixed point ``query()`` runs no checking ``Box`` constructor.

    Each requested tree's extended window is built from the query's corner
    floats (formerly ``expand(...).clamp(...)``: two checked boxes per
    tree) and every hit's box through ``Box._trusted``.
    """
    suite, queries = scenario
    engine = SpaceOdyssey(suite.fork().catalog, CONFIG)
    explore(engine, queries)
    checked: Counter = Counter()
    post_init = Box.__post_init__

    def counted(self):
        checked["boxes"] += 1
        post_init(self)

    monkeypatch.setattr(Box, "__post_init__", counted)
    hits = trees = 0
    for box, ids in queries:
        hits += len(engine.query(box, ids))
        trees += len(set(ids))
        assert engine.last_report.refinements == 0 and not engine.last_report.merged
    assert hits > 0 and trees > len(queries)
    assert checked["boxes"] == 0


@pytest.mark.parametrize("mode", ["batch", "thread", "snapshot", "prepare-commit"])
def test_batch_is_one_matrix_per_dataset_one_mask_and_one_materialize(scenario, calls, mode):
    """Batches: one ``intersect_matrix`` per requested dataset, <= 1 mask, <= 1 materialise."""
    suite, queries = scenario
    engine = SpaceOdyssey(suite.fork().catalog, CONFIG)
    explore(engine, queries)
    for offset in range(0, len(queries), 16):
        chunk = queries[offset : offset + 16]
        expected = [reference_query(engine, box, ids) for box, ids in chunk]
        calls.clear()
        pool = engine.disk.buffer_pool
        decoded_before = pool.decoded_misses
        if mode == "prepare-commit":
            result = engine.commit_batch(engine.prepare_batch(chunk))
        else:
            options = {"thread": {"workers": 2}, "snapshot": {"snapshot": True}}.get(mode, {})
            result = engine.query_batch(chunk, **options)
        assert calls["overlap_matrix"] == len({d for _, ids in chunk for d in ids}), mode
        assert calls["overlap_mask"] == 0, mode
        assert calls["data_mask"] == 1 and calls["materialize"] <= 1, mode
        assert calls["read_set"] == len(chunk), mode
        assert calls["from_records"] == 1, mode
        assert calls["decode"] == pool.decoded_misses - decoded_before, mode
        if mode != "thread":  # the threads' read set reads group by group
            assert calls["storage_read"] <= len(chunk), mode
            assert calls["page_loop"] == calls["storage_read"], mode
        for hits, report, (expected_hits, examined, _) in zip(
            result.results, result.reports, expected
        ):
            assert hits == expected_hits, mode
            assert report.objects_examined == examined, mode
            assert report.refinements == 0, mode


def test_reference_loop_and_fused_filter_agree_on_interleaved_groups():
    """Merge-file style groups: rows of several datasets, one owner per entry."""
    dtype = spatial_object_codec(2).dtype
    rng = np.random.default_rng(3)

    def group(n):
        records = np.zeros(n, dtype=dtype)
        records["oid"] = rng.integers(0, 1_000, n)
        records["dataset_id"] = rng.integers(0, 3, n)
        records["lo"] = rng.random((n, 2)) * 10
        records["hi"] = records["lo"] + rng.random((n, 2))
        return records

    plan = [(1, group(9)), (0, group(0)), (2, group(1)), (1, group(30))]
    window = Box((2.0, 2.0), (7.0, 7.0))
    expected = []
    for owner, records in plan:
        g = DecodedGroup.from_records(records, 2)
        for row in range(g.n_records):
            box = Box(tuple(g.lo[row].tolist()), tuple(g.hi[row].tolist()))
            if g.dataset_ids[row] == owner and box.intersects(window):
                expected.append(SpatialObject(int(g.oids[row]), int(g.dataset_ids[row]), box))
    (hits,), (examined,) = batch_filter([plan], [window])
    assert expected and hits == expected
    assert examined == 40
    assert all(type(hit.oid) is int and type(hit.box.lo[0]) is float for hit in hits)
    assert batch_filter([[]], [window]) == ([[]], [0])
    assert batch_filter([[(0, group(0))]], [window]) == ([[]], [0])


def _records(dimension: int, seed: int, n: int) -> np.ndarray:
    """``n`` records on an integer grid, so windows often touch them exactly."""
    rng = np.random.default_rng(seed)
    records = np.zeros(n, dtype=spatial_object_codec(dimension).dtype)
    records["oid"] = rng.integers(0, 1_000, n)
    records["dataset_id"] = rng.integers(0, 3, n)
    records["lo"] = rng.integers(0, 10, (n, dimension)).astype(np.float64)
    records["hi"] = records["lo"] + rng.integers(0, 3, (n, dimension))
    return records


@st.composite
def filter_batches(draw):
    """Groups (some empty), and queries whose plans share and interleave them."""
    dimension = draw(st.sampled_from([2, 3]))
    sizes = draw(st.lists(st.sampled_from([0, 1, 4, 12]), min_size=1, max_size=5))
    seed = draw(st.integers(0, 2**16))
    groups = [_records(dimension, seed + index, n) for index, n in enumerate(sizes)]
    entry = st.tuples(st.integers(0, 2), st.sampled_from(groups))
    plans = draw(st.lists(st.lists(entry, max_size=4), min_size=1, max_size=5))
    corner = st.integers(0, 11).map(float)
    boxes = []
    for _ in plans:
        lo = draw(st.tuples(*[corner] * dimension))
        side = draw(st.tuples(*[st.integers(0, 6).map(float)] * dimension))
        boxes.append(Box(lo, tuple(a + b for a, b in zip(lo, side))))
    return plans, boxes


def _shared_interleaved_and_empty():
    """One query with no plan, one empty group, one group in two queries under two owners."""
    shared, empty, other = _records(2, 1, 12), _records(2, 2, 0), _records(2, 3, 4)
    window = Box((0.0, 0.0), (11.0, 11.0))
    return [[(0, shared), (1, empty), (2, other)], [], [(1, shared), (0, other)]], [window] * 3


@settings(max_examples=60, deadline=None)
@given(filter_batches())
@example(_shared_interleaved_and_empty())
def test_batch_filter_equals_per_query_reference(batch):
    """One mask over the batch returns each query's hits, in order, and its examined count."""
    plans, boxes = batch
    hits, examined = batch_filter(plans, boxes)
    assert (hits, examined) == reference_filter(plans, boxes)
    assert all(type(count) is int for count in examined)
    # Window corners given as sequences rather than arrays, at any batch size.
    entries = [(index, owner, group) for index, plan in enumerate(plans) for owner, group in plan]
    as_lists = filter_groups(entries, [box.lo for box in boxes], [box.hi for box in boxes])
    assert as_lists == (hits, examined)


# ---------------------------------------------------------------------- #
# Stored corruption: validity is checked in one vectorised test, not dropped
# ---------------------------------------------------------------------- #

UNIVERSE = Box((0.0, 0.0, 0.0), (100.0, 100.0, 100.0))
BAD_ROW = 17
ENGINES = ["scalar", "columnar", "batch", "thread", "epoch"]


def corrupt_catalog(kind: str):
    """Three raw files written through the array surface; one stored box is bad.

    Every page carries a valid CRC — the corruption is in what was
    written, so only validation of the decoded values can catch it.  The
    inverted box has its corners swapped on one axis (its centre, and so
    its partition, is that of the original box).
    """
    rng = np.random.default_rng(8)
    disk = Disk(model=DiskModel(seek_time_s=1e-4), buffer_pages=64)
    codec = spatial_object_codec(3)
    datasets, arrays = [], []
    for dataset_id in range(3):
        records = np.zeros(300, dtype=codec.dtype)
        records["oid"] = np.arange(300)
        records["dataset_id"] = dataset_id
        records["lo"] = rng.random((300, 3)) * 90
        records["hi"] = records["lo"] + 1 + rng.random((300, 3)) * 4
        if dataset_id == 0:
            if kind == "inverted":
                records["lo"][BAD_ROW, 1], records["hi"][BAD_ROW, 1] = (
                    records["hi"][BAD_ROW, 1],
                    records["lo"][BAD_ROW, 1],
                )
            else:
                records["hi"][BAD_ROW, 2] = math.nan
        name = f"corrupt_{dataset_id}"
        file = PagedFile(disk, raw_file_name(name), codec)
        file.append_group_array(records)
        datasets.append(Dataset(dataset_id, name, UNIVERSE, len(records), disk, file))
        arrays.append(records)
    return DatasetCatalog(datasets), arrays


def run_queries(engine: SpaceOdyssey, mode: str, queries):
    """The answers of ``queries`` through one of the engines (or the reference)."""
    if mode in ("scalar", "columnar"):
        return [engine.query(box, ids) for box, ids in queries]
    options = {
        "batch": {},
        "thread": {"workers": 2},
        "epoch": {"snapshot": True},
    }[mode]
    return engine.query_batch(queries, **options).results


@pytest.mark.parametrize("mode", ENGINES)
def test_selected_inverted_box_raises_on_every_engine(mode):
    catalog, arrays = corrupt_catalog("inverted")
    bad = arrays[0][BAD_ROW]
    # The stored corners, as the closed-box mask sees them: any window
    # covering the original box selects the row.
    selecting = Box(
        tuple(np.minimum(bad["lo"], bad["hi"]).tolist()),
        tuple(np.maximum(bad["lo"], bad["hi"]).tolist()),
    )
    # Neighbours in the same first-level partition whose own box misses it.
    centre = (bad["lo"] + bad["hi"]) / 2
    others = arrays[0][np.arange(300) != BAD_ROW]
    near = others[np.argsort(np.abs((others["lo"] + others["hi"]) / 2 - centre).max(axis=1))]
    grazing = []
    for row in near[:40]:
        window = Box(tuple(row["lo"].tolist()), tuple(row["hi"].tolist()))
        if not ((bad["lo"] <= window.hi) & (bad["hi"] >= window.lo)).all():
            grazing.append((window, (0, 1)))
    grazing = grazing[:6]
    assert len(grazing) == 6
    engine = (ScalarOdyssey if mode == "scalar" else SpaceOdyssey)(
        catalog, OdysseyConfig(partitions_per_level=8)
    )
    if mode == "scalar":
        # The per-record decoder validates every box it builds: first touch.
        with pytest.raises(ValueError, match="inverted box"):
            engine.query(*grazing[0])
        return
    # An unselected bad row costs nothing: the groups holding it are read,
    # refined and filtered, and every answer is exact.
    for _ in range(2):
        for hits, (window, ids) in zip(run_queries(engine, mode, grazing), grazing):
            expected = {
                (d, int(r["oid"]))
                for d in ids
                for r in arrays[d]
                if not (d == 0 and r["oid"] == BAD_ROW)
                and Box(tuple(r["lo"].tolist()), tuple(r["hi"].tolist())).intersects(window)
            }
            assert {(hit.dataset_id, hit.oid) for hit in hits} == expected
    tree = engine.trees[0]
    holder = next(
        leaf for leaf in reference_tree(tree).leaves() if leaf.box.contains_point(centre.tolist())
    )
    assert holder.n_objects and holder.level > 1, (
        "no query read (and refined) the group that holds the bad row"
    )
    with pytest.raises(ValueError, match="inverted box on axis 1"):
        run_queries(engine, mode, [(selecting, (0, 1)), grazing[0]])


@pytest.mark.parametrize("mode", ENGINES)
def test_stored_nan_extent_raises_at_first_touch_on_every_engine(mode):
    """A NaN corner makes the dataset's maximum extent NaN: the first touch
    refuses it, so no engine extends a window by it."""
    catalog, _ = corrupt_catalog("nan")
    engine = (ScalarOdyssey if mode == "scalar" else SpaceOdyssey)(
        catalog, OdysseyConfig(partitions_per_level=8)
    )
    with pytest.raises(ValueError, match="NaN"):
        run_queries(engine, mode, [(Box((1.0, 1.0, 1.0), (2.0, 2.0, 2.0)), (0, 1))])


@pytest.mark.parametrize("kind,message", [("inverted", "inverted box on axis 1"), ("nan", "NaN")])
def test_materialize_validates_exactly_the_selected_rows(kind, message):
    """One vectorised check per call; the checking constructor words the error."""
    _, arrays = corrupt_catalog(kind)
    group = DecodedGroup.from_records(arrays[0], 3)
    everything_else = np.ones(300, dtype=bool)
    everything_else[BAD_ROW] = False
    assert len(group.materialize(everything_else)) == 299
    selected = np.zeros(300, dtype=bool)
    selected[[3, BAD_ROW, 200]] = True
    with pytest.raises(ValueError, match=message):
        group.materialize(selected)
    window = UNIVERSE
    if kind == "inverted":
        with pytest.raises(ValueError, match=message):
            batch_filter([[(0, arrays[0])]], [window])
    else:
        # No closed-box comparison with NaN holds: the mask never selects it.
        (hits,), (examined,) = batch_filter([[(0, arrays[0])]], [window])
        assert len(hits) == 299 and examined == 300
