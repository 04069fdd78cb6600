"""The fused plan read against the per-group reference, state for state.

A query's plan is one storage call (:func:`repro.storage.pagedfile.
read_groups`: one :meth:`~repro.storage.disk.Disk.read_runs` page loop
over every extent of every group) and a batch enters its read set once
per query (:meth:`repro.core.batch.BatchReadSet.read`).  Random plans run
through that path on one disk and through the per-group reference
(``tests/read_reference.py``) on an identical one.  The plans span
several files, use multi-extent runs, put cached pages inside runs, and
run under a pool small enough to evict mid-plan, live or through a
snapshot ``lookup`` overlay.  Both sides must return the same records
and leave the same ``IOStats`` (``io_seconds`` and ``reads_by_kind`` bit
for bit), the same buffer counters (each query's delta included), the
same pool LRU order and decoded entries, and the same head — also when
group ``k`` of ``n`` fails mid-plan, on a backend read or a corrupt page.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batch import BatchReadSet
from repro.data.spatial_object import spatial_object_codec
from repro.storage.backend import InMemoryBackend
from repro.storage.codec import decode_page_array
from repro.storage.cost_model import DiskModel
from repro.storage.disk import Disk
from repro.storage.errors import CorruptPageError, StorageError, TransientIOError
from repro.storage.pagedfile import PageExtent, PagedFile, StoredRun, read_groups

from tests.read_reference import ReferenceReadSet, read_array

#: Five 2-D records per page: groups of a few records span several pages.
MODEL = DiskModel(page_size=256)
CODEC = spatial_object_codec(2)


class FailingBackend(InMemoryBackend):
    """An in-memory backend whose reads of the pages in ``fail`` raise."""

    def __init__(self) -> None:
        super().__init__(page_size=MODEL.page_size)
        self.fail: set[tuple[str, int]] = set()

    def read(self, name: str, page_no: int) -> bytes:
        if (name, page_no) in self.fail:
            raise TransientIOError(f"injected read failure at {name}:{page_no}")
        return super().read(name, page_no)


def build(spec, capacity: int):
    """One side: ``spec`` lists each file's group sizes and compression."""
    disk = Disk(backend=FailingBackend(), model=MODEL, buffer_pages=capacity)
    files = []
    for index, (sizes, compression) in enumerate(spec):
        file = PagedFile(disk, f"f{index}.dat", CODEC, compression=compression)
        rng = np.random.default_rng(index)
        for size in sizes:
            records = np.zeros(size, dtype=CODEC.dtype)
            records["oid"] = rng.integers(0, 10_000, size)
            records["dataset_id"] = index
            records["lo"] = rng.random((size, 2))
            records["hi"] = records["lo"] + rng.random((size, 2))
            file.append_group_array(records)
        files.append(file)
    disk.clear_cache()
    disk.reset_head()
    return disk, files


def state(disk: Disk):
    """Everything a read may change, floats as their bit patterns."""
    stats = disk.stats_snapshot()
    pool = disk.buffer_pool
    return (
        stats,
        stats.io_seconds.hex(),
        dict(stats.reads_by_kind),
        pool.counters(),
        list(pool._pages),
        sorted(pool._decoded),
        disk._head,
    )


@st.composite
def scenarios(draw):
    """Files, a pool, warm pages, an overlay and a sequence of plans."""
    spec = draw(
        st.lists(
            st.tuples(
                st.lists(st.integers(1, 14), min_size=1, max_size=5),
                st.sampled_from([None, None, "zlib"]),
            ),
            min_size=1,
            max_size=3,
        )
    )
    capacity = draw(st.integers(0, 6))
    disk, files = build(spec, 0)
    pages = [(i, p) for i, file in enumerate(files) for p in range(file.num_pages())]
    warm = draw(st.lists(st.sampled_from(pages), max_size=8))
    overlaid = draw(st.none() | st.lists(st.tuples(st.sampled_from(pages), st.sampled_from(pages))))

    def counts(overlay):
        """Records per page as a reader sees them (through ``overlay``)."""
        found = {}
        for i, p in pages:
            source = dict(overlay or ()).get((i, p), (i, p))
            data = disk.backend.read(files[source[0]].name, source[1])
            found[(i, p)] = len(decode_page_array(CODEC.dtype, data))
        return found

    per_page = counts(overlaid)
    run = st.builds(
        lambda i, picks, short: (i, picks, short),
        st.integers(0, len(files) - 1),
        st.lists(st.tuples(st.integers(0, 40), st.integers(1, 3)), min_size=1, max_size=3),
        st.integers(0, 4),
    )
    plans = draw(st.lists(st.lists(run, max_size=5), min_size=1, max_size=4))
    return spec, capacity, warm, overlaid, per_page, plans


def make_run(file_index: int, picks, short: int, per_page, n_pages: int) -> StoredRun:
    """A run over disjoint extents of one file, ``short`` records short of its pages."""
    taken: set[int] = set()
    extents = []
    for start, count in picks:
        start %= n_pages
        count = min(count, n_pages - start)
        pages = set(range(start, start + count))
        if pages & taken:
            continue
        taken |= pages
        extents.append(PageExtent(start, count))
    total = sum(per_page[(file_index, p)] for p in taken)
    return StoredRun(extents=tuple(extents), n_records=max(total - short, 0))


def sides(spec, capacity, warm, overlaid):
    """Two identical disks, warmed the same way, and each side's overlay lookup."""
    built = []
    for _ in range(2):
        disk, files = build(spec, capacity)
        for i, p in warm:
            disk.read_page(files[i].name, p)
        lookup = None
        if overlaid is not None:
            retained = {}
            for (i, p), (j, q) in overlaid:
                # A distinct bytes object, like an epoch's retained pre-image.
                retained[(files[i].name, p)] = bytes(bytearray(disk.backend.read(files[j].name, q)))
            lookup = lambda name, page_no, retained=retained: retained.get((name, page_no))
        built.append((disk, files, lookup))
    return built


def plans_for(files, plans, per_page):
    """Each drawn plan as ``(dataset, file, run)`` entries on one side's files."""
    result = []
    for plan in plans:
        entries = []
        for file_index, picks, short in plan:
            n_pages = files[file_index].num_pages()
            run = make_run(file_index, picks, short, per_page, n_pages)
            entries.append((file_index, files[file_index], run))
        result.append(entries)
    return result


@settings(max_examples=80, deadline=None)
@given(scenarios())
def test_fused_read_equals_per_group_reference(scenario):
    """A batch's read set and the query path leave the reference's state, query by query."""
    spec, capacity, warm, overlaid, per_page, plans = scenario
    (fused_disk, fused_files, fused_lookup), (ref_disk, ref_files, ref_lookup) = sides(
        spec, capacity, warm, overlaid
    )
    assert state(fused_disk) == state(ref_disk)
    fused_plans = plans_for(fused_files, plans, per_page)
    ref_plans = plans_for(ref_files, plans, per_page)

    # A batch: one read-set entry per query, each query's pool delta apart.
    fused_set, ref_set = BatchReadSet(fused_lookup), ReferenceReadSet(ref_lookup)
    for fused_plan, ref_plan in zip(fused_plans, ref_plans):
        start = fused_disk.buffer_pool.counters(), ref_disk.buffer_pool.counters()
        got = fused_set.read(fused_plan)
        expected = ref_set.read_plan(ref_plan)
        assert [r.tobytes() for r in got] == [r.tobytes() for r in expected]
        assert fused_disk.buffer_pool.counters().delta_since(start[0]) == (
            ref_disk.buffer_pool.counters().delta_since(start[1])
        )
        assert state(fused_disk) == state(ref_disk)
    assert fused_set.group_reads == ref_set.group_reads
    assert fused_set.dedup_hits == ref_set.dedup_hits

    # The query path: one read_groups call per plan, no read set.
    for fused_plan, ref_plan in zip(fused_plans, ref_plans):
        got = read_groups([(file, run) for _, file, run in fused_plan], fused_lookup)
        expected = [read_array(file, run, ref_lookup) for _, file, run in ref_plan]
        assert [r.tobytes() for r in got] == [r.tobytes() for r in expected]
        assert all(not r.flags.writeable for r in got)
        assert state(fused_disk) == state(ref_disk)


@pytest.mark.parametrize("fault", ["backend", "corrupt", "short"])
@settings(max_examples=25, deadline=None)
@given(sizes=st.lists(st.integers(1, 14), min_size=2, max_size=6), data=st.data())
def test_group_k_of_n_fails_mid_plan(fault, sizes, data):
    """Group ``k`` of ``n`` fails: both sides raise, and the charges — the
    groups before ``k`` and ``k``'s own reads — equal the reference's.

    ``backend``: a page of group ``k`` cannot be read; ``corrupt``: one
    of its pages fails its checksum; ``short``: it decodes fewer records
    than its run claims.
    """
    capacity = data.draw(st.integers(0, 6), label="capacity")
    k = data.draw(st.integers(0, len(sizes) - 1), label="k")
    warm = data.draw(st.lists(st.integers(0, 40), max_size=4), label="warm")
    outcomes = []
    for reader in ("fused", "reference"):
        disk, (file,) = build([(sizes, None)], capacity)
        runs, start = [], 0
        for size in sizes:
            n_pages = file.pages_needed(size)
            runs.append(StoredRun(extents=(PageExtent(start, n_pages),), n_records=size))
            start += n_pages
        for page_no in warm:
            disk.read_page(file.name, page_no % file.num_pages())
        failing = runs[k].extents[0].start + runs[k].extents[0].count - 1
        if fault != "short":
            # A cached copy would mask the failure.
            disk.buffer_pool.invalidate_page(file.name, failing)
        if fault == "backend":
            disk.backend.fail.add((file.name, failing))
        elif fault == "corrupt":
            page = bytearray(disk.backend.read(file.name, failing))
            page[6] ^= 0xFF
            disk.backend.write(file.name, failing, bytes(page))
        else:
            runs[k] = StoredRun(extents=runs[k].extents, n_records=sizes[k] + 1)
        before = disk.stats_snapshot()
        error = {
            "backend": StorageError,
            "corrupt": CorruptPageError,
            "short": CorruptPageError,
        }[fault]
        with pytest.raises(error):
            if reader == "fused":
                read_groups([(file, run) for run in runs])
            else:
                for run in runs:
                    read_array(file, run)
        outcomes.append(state(disk))
        read = disk.stats_snapshot().delta_since(before)
        # Nothing after group k was read: its pages were never charged.
        assert read.pages_read + read.cache_hits <= sum(run.n_pages for run in runs[: k + 1])
    assert outcomes[0] == outcomes[1]


def test_read_runs_charges_each_run_as_one_read_run():
    """A sequence of runs in one call costs what one read_run per run costs."""
    runs = [("a", 0, 3), ("b", 2, 2), ("a", 3, 1), ("a", 1, 4), ("b", 0, 0)]
    disks = []
    for _ in range(2):
        disk = Disk(model=MODEL, buffer_pages=3)
        for name in ("a", "b"):
            disk.create_file(name)
            disk.append_run(name, [bytes([i]) * 16 for i in range(6)])
        disk.clear_cache()
        disk.reset_head()
        disks.append(disk)
    fused, per_run = disks
    got = list(fused.read_runs(runs))
    expected = [per_run.read_run(*run) for run in runs]
    assert got == expected
    assert state(fused) == state(per_run)
    with pytest.raises(ValueError):
        list(fused.read_runs([("a", 0, -1)]))
