"""What the oracles compare, and the scenarios several test files run.

Not a test module, so retiring a test file never breaks another: the
observables two engines are held to (:data:`REPORT_FIELDS`,
:func:`packed_hits`, :func:`adaptive_state`, :func:`disk_files`), the leaf
table check (:func:`check_tree`), the space budget's
(:func:`check_merge_space`) and the merge copies'
(:func:`check_no_empty_merge`), suite forks with a wrapped backend, the
journal's crash sites and :func:`recover_logged`, and seeded workloads.
"""

from __future__ import annotations

import logging
import random

import numpy as np

from repro.bench.runner import generate_workload
from repro.core.config import OdysseyConfig
from repro.core.odyssey import SpaceOdyssey
from repro.core.partition import PartitionTree
from repro.data.dataset import Dataset, DatasetCatalog
from repro.data.spatial_object import spatial_object_codec
from repro.data.suite import BenchmarkSuite, build_benchmark_suite
from repro.geometry.vectorized import boxes_to_arrays
from repro.storage.backend import flat_file_name
from repro.storage.cost_model import DiskModel
from repro.storage.disk import Disk
from repro.storage.pagedfile import _EMPTY_RUN, PagedFile

from tests.scalar_reference import leaf_listing, reference_tree, search_ordered_table

# ---------------------------------------------------------------------- #
# The observables
# ---------------------------------------------------------------------- #

#: QueryReport fields every execution mode reproduces exactly.
REPORT_FIELDS = (
    "query_index",
    "requested",
    "route",
    "initialized_datasets",
    "partitions_read",
    "partitions_from_merge",
    "results",
    "refinements",
    "merged",
    "merge_new_partitions",
)

#: The fields of the pairs that also read the same partitions: a batch may
#: examine coarser partitions than a sequential query, so
#: ``objects_examined`` is equal only between like executors.
STRICT_REPORT_FIELDS = REPORT_FIELDS + ("objects_examined",)


def packed_hits(odyssey: SpaceOdyssey, hits) -> frozenset[bytes]:
    """The order-insensitive byte identity of one query answer."""
    codec = spatial_object_codec(odyssey.catalog.dimension)
    packed = sorted(codec.pack(obj) for obj in hits)
    assert len(set(packed)) == len(packed), "duplicate objects in a query answer"
    return frozenset(packed)


def adaptive_state(odyssey: SpaceOdyssey):
    """A comparable snapshot of everything the adaptive machinery mutated.

    The statistics are compared as the collector keeps them: per
    combination the count, the keys seen, the hot keys and the query
    volume.
    """
    trees = {
        dataset_id: leaf_listing(tree) for dataset_id, tree in sorted(odyssey.trees.items())
    }
    merge_files = {}
    for info in odyssey.merge_directory.all_files():
        entries = {
            key: {
                dataset_id: (run.extents, run.n_records)
                for dataset_id, run in per_dataset.items()
            }
            for key, per_dataset in info.entries.items()
        }
        merge_files[tuple(sorted(info.combination))] = (info.file_name, entries)
    combinations = {
        tuple(sorted(combo)): (
            stats.count,
            frozenset(stats.seen_keys),
            frozenset(stats.hot_keys),
            stats.total_query_volume,
        )
        for combo, stats in odyssey.statistics.combinations().items()
    }
    return (
        trees,
        merge_files,
        combinations,
        odyssey.merger.merges_performed,
        odyssey.summary(),
    )


def disk_files(odyssey: SpaceOdyssey) -> dict[str, list[bytes]]:
    """Every on-disk file's raw pages (the ultimate byte-identity check)."""
    disk = odyssey.disk
    return {
        name: [disk.backend.read(name, page) for page in range(disk.num_pages(name))]
        for name in sorted(disk.list_files())
    }


def check_no_empty_merge(odyssey: SpaceOdyssey, tag: str = "") -> None:
    """No merge copied an empty partition: every merged key holds records
    in some member, so no registered merge file holds 0 pages.  Merge
    files are append-only, so a check after a batch covers each of its
    queries."""
    for info in odyssey.merge_directory.all_files():
        where = f"{tag}: merge file of {sorted(info.combination)}"
        assert info.total_pages > 0, f"{where} holds 0 pages"
        for key, per_dataset in info.entries.items():
            assert any(run.n_records for run in per_dataset.values()), (
                f"{where} copied the empty partition {key}"
            )


def check_merge_space(odyssey: SpaceOdyssey, tag: str = "") -> None:
    """The space budget holds, and the directory's page total is the merge
    files' pages on disk.  Also the budget's premise: a partition run and
    a merge copy take ``pages_needed`` of their records, and a merged
    partition holds records (:func:`check_no_empty_merge`)."""
    check_no_empty_merge(odyssey, tag)
    directory, disk = odyssey.merge_directory, odyssey.disk
    total, budget = directory.total_pages(), odyssey.config.merge_space_budget_pages
    assert budget is None or total <= budget, f"{tag}: {total} merge pages, budget {budget}"
    # A filesystem backend lists them under flattened names ("merge_combo_...").
    on_disk = [name for name in disk.list_files() if flat_file_name(name).startswith("merge_")]
    assert (len(on_disk), sum(map(disk.num_pages, on_disk))) == (len(directory), total), tag
    files = [(tree.file, tree.occupied_runs.values()) for tree in odyssey.trees.values()]
    for info in directory.all_files():
        runs = [run for per_dataset in info.entries.values() for run in per_dataset.values()]
        files.append((odyssey.merger.merge_file(info.combination), runs))
    for file, runs in files:
        assert all(run.n_pages == file.pages_needed(run.n_records) for run in runs), tag


#: The leaf table's array columns.
TABLE_COLUMNS = ("n_records", "level", "volume", "lo", "hi")


def check_tree(tree: PartitionTree, tag: str = "") -> None:
    """Every row of one tree's leaf table against two references.

    The live rows (those whose key is a leaf), put in search order, equal
    both the node tree of the tree's keys, in its walk's order, and the
    former search-ordered table, rebuilt by replaying every split
    (``search_ordered_table``): keys, runs, record counts, levels, corners
    and volumes (bit for bit: ``Box.volume()`` of each region found from
    the universe through the grid edges).  The walk's order is key order,
    descending.  Every other row is retired: an empty box, 0 records, the
    shared empty run, a key that is no leaf; one per split.  Then the
    layout, the reductions, the lookups by key and the epoch capture, a
    frozen copy.  The node tree comes from ``leaf_keys`` and
    ``occupied_runs``, so the leaf set is not checked here.
    """
    leaves = reference_tree(tree).leaves()
    rebuilt = search_ordered_table(tree)
    table = tree.leaf_snapshot()
    n, ppl = len(table), tree.partitions_per_level
    assert table.version == tree.version, tag
    assert len(table.keys) == len(table.runs) == n, tag
    keys = table.keys
    rows = {key: row for row, key in enumerate(keys)}
    assert len(rows) == n, tag  # a key names one row for the tree's life
    order = [rows[leaf.key] for leaf in leaves]
    live = [row for row in range(n) if keys[row] in tree.leaf_keys]
    assert order == sorted(live, key=keys.__getitem__, reverse=True), tag
    at = np.array(order, dtype=np.intp)
    assert [keys[row] for row in order] == [leaf.key for leaf in leaves], tag
    assert tuple(keys[row] for row in order) == rebuilt.keys, tag
    assert [table.runs[row] for row in order] == [leaf.run for leaf in leaves], tag
    assert tuple(table.runs[row] for row in order) == rebuilt.runs, tag
    assert table.n_records[at].tolist() == [leaf.run.n_records for leaf in leaves], tag
    assert table.level[at].tolist() == [leaf.level for leaf in leaves], tag
    assert table.volume[at].tolist() == [leaf.box.volume() for leaf in leaves], tag
    lo, hi = boxes_to_arrays([leaf.box for leaf in leaves], dimension=tree.universe.dimension)
    assert np.array_equal(table.lo[at], lo) and np.array_equal(table.hi[at], hi), tag
    for column in TABLE_COLUMNS:
        assert np.array_equal(getattr(table, column)[at], getattr(rebuilt, column)), tag
    retired = sorted(set(range(n)) - set(live))
    assert len(retired) * ppl == n - ppl, tag  # one per split after the first level
    assert all(table.runs[row] is _EMPTY_RUN for row in retired), tag
    assert not table.n_records[retired].any(), tag
    assert np.isposinf(table.lo[retired]).all() and np.isneginf(table.hi[retired]).all(), tag
    # One layout, fixed where the columns are allocated: (n, d) column-major,
    # so the overlap kernels' per-axis slices are contiguous.
    for corners in (table.lo, table.hi):
        assert corners.shape == (n, tree.universe.dimension), tag
        assert corners.dtype == np.float64 and corners.strides[0] == corners.itemsize, tag
        assert all(corners[:, axis].flags.c_contiguous for axis in range(lo.shape[1])), tag
    assert table.n_records.dtype == table.level.dtype == np.int64, tag
    assert table.volume.dtype == np.float64, tag
    assert tree.n_partitions == len(live) == len(leaves), tag
    assert tree.depth == max(leaf.level for leaf in leaves), tag
    assert all(run.n_records for run in tree.occupied_runs.values()), tag
    for leaf in leaves[:: max(1, len(leaves) // 16)]:
        assert tree.volume(leaf.key) == leaf.box.volume(), tag
    check_frozen_copy(tree.epoch_snapshot().snapshot, table, tag)


def check_frozen_copy(capture, table, tag: str = "") -> None:
    """An epoch's leaf table is a copy of ``table``: equal rows, nothing shared.

    A later split retires a row of the live columns in place, so a capture
    that shared a column with them would change under a pinned reader.
    """
    assert capture is not table and capture.version == table.version, tag
    assert capture.keys == table.keys and capture.runs == table.runs, tag
    assert capture.keys is not table.keys and capture.runs is not table.runs, tag
    for column in TABLE_COLUMNS:
        live, frozen = getattr(table, column), getattr(capture, column)
        assert np.array_equal(frozen, live) and frozen.dtype == live.dtype, tag
        assert not np.shares_memory(frozen, live), tag
        assert frozen.flags.f_contiguous, tag


# ---------------------------------------------------------------------- #
# Suites and workloads
# ---------------------------------------------------------------------- #


def fork_with(suite: BenchmarkSuite, wrap) -> BenchmarkSuite:
    """`BenchmarkSuite.fork`, but with the cloned backend wrapped first."""
    disk = Disk(
        backend=wrap(suite.disk.backend.clone()),
        model=suite.disk.model,
        buffer_pages=suite.disk.buffer_pool.capacity_pages,
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


#: The journal's named crash sites, in write order.
JOURNAL_CRASH_POINTS = (
    "journal.commit.start",
    "journal.commit.torn",
    "journal.commit.end",
    "journal.rewrite.start",
    "journal.rewrite.before_rename",
    "journal.rewrite.end",
)

#: The sites after which the in-flight commit is durable: nothing changed
#: after it, so recovery keeps the files.
DURABLE_SITES = ("journal.commit.end", "journal.rewrite.end")


def raise_once_at(point: str, nth: int, error: BaseException):
    """A journal ``crash_hook`` that raises ``error`` the ``nth`` time
    (counting from 1) the journal reaches ``point``, and never again."""
    reached = [0]

    def hook(name: str) -> None:
        if name == point:
            reached[0] += 1
            if reached[0] == nth:
                raise error

    return hook


def recover_logged(*args, **kwargs) -> tuple[SpaceOdyssey, str, str | None]:
    """``SpaceOdyssey.recover(*args, **kwargs)``, the path it took and why,
    read from its "recovery complete" log record."""
    records: list[logging.LogRecord] = []
    handler = logging.Handler(logging.INFO)
    handler.emit = records.append
    logger = logging.getLogger("repro.recovery")
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    try:
        engine = SpaceOdyssey.recover(*args, **kwargs)
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
    (done,) = [record for record in records if record.getMessage() == "recovery complete"]
    return engine, done.path, done.full_replay_reason


def after_retired_draws(rng: random.Random) -> random.Random:
    """``rng`` after the two draws that once chose the retired merge-policy
    settings, so every seed still derives the scenario it always has."""
    rng.choice((1, 2))
    rng.choice((True, False))
    return rng


def make_suite(seed: int, n_datasets: int = 4, objects: int = 350):
    return build_benchmark_suite(
        n_datasets=n_datasets,
        objects_per_dataset=objects,
        seed=seed,
        buffer_pages=64,
        model=DiskModel(seek_time_s=1e-4),
    )


def mixed_workload(suite, seed: int, n_triples: int, n_pairs: int, dataset_ids=None):
    """Zipf triples on clustered ranges interleaved with uniform pairs."""
    ids = list(dataset_ids if dataset_ids is not None else suite.catalog.dataset_ids())
    triples = list(
        generate_workload(
            suite.universe,
            ids,
            n_triples,
            seed=seed,
            volume_fraction=2e-2,
            datasets_per_query=3,
            ranges="clustered",
            ids_distribution="zipf",
            # Three populated hot spots, so regions are revisited and merged.
            cluster_centers=suite.generator.microcircuit_centers[:3],
        )
    )
    pairs = list(
        generate_workload(
            suite.universe,
            ids,
            n_pairs,
            seed=seed + 17,
            volume_fraction=2e-2,
            datasets_per_query=2,
            ranges="uniform",
            ids_distribution="uniform",
        )
    )
    queries = [(query.box, tuple(query.dataset_ids)) for query in triples + pairs]
    random.Random(seed).shuffle(queries)
    return queries


def make_workload(suite: BenchmarkSuite, n: int = 12, seed: int = 5):
    """``n`` uniform pairs of small windows."""
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


def hot_workload(suite: BenchmarkSuite, n: int, seed: int = 61):
    """``n`` clustered triples over heavy-hitter combinations."""
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


#: The configuration :func:`explore` drives to a fixed point quickly.
EXPLORE_CONFIG = OdysseyConfig(partitions_per_level=8, refinement_threshold=2.0, merge_threshold=1)


def explore(engine: SpaceOdyssey, queries) -> None:
    """Replay ``queries`` until a whole pass neither refines nor merges."""
    for _ in range(20):
        changed = 0
        for box, ids in queries:
            engine.query(box, ids)
            report = engine.last_report
            changed += report.refinements + report.merged
        if not changed:
            return
    raise AssertionError("the workload never converged")
