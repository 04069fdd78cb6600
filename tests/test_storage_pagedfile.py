"""Unit tests for PagedFile: groups, in-place rewrites, scans."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.columnar import DecodedGroup
from repro.data.spatial_object import spatial_object_codec
from repro.storage.codec import FixedRecordCodec
from repro.storage.cost_model import DiskModel
from repro.storage.disk import Disk
from repro.storage.pagedfile import PageExtent, PagedFile, StoredRun, coalesce_pages

from tests.conftest import make_random_objects
from repro.geometry.box import Box


@pytest.fixture
def disk() -> Disk:
    return Disk(model=DiskModel(seek_time_s=1e-3), buffer_pages=0)


@pytest.fixture
def int_file(disk) -> PagedFile[int]:
    codec = FixedRecordCodec("<q", lambda v: (v,), lambda f: f[0], dtype=np.dtype("<i8"))
    return PagedFile(disk, "ints.dat", codec)


def ints(*values) -> np.ndarray:
    return np.array(values, dtype="<i8")


class TestPageExtent:
    def test_validation(self):
        with pytest.raises(ValueError):
            PageExtent(-1, 1)
        with pytest.raises(ValueError):
            PageExtent(0, 0)

    def test_pages_and_end(self):
        extent = PageExtent(3, 4)
        assert list(extent.pages()) == [3, 4, 5, 6]
        assert extent.end == 7

    def test_coalesce(self):
        assert coalesce_pages([5, 1, 2, 3, 7]) == [
            PageExtent(1, 3),
            PageExtent(5, 1),
            PageExtent(7, 1),
        ]
        assert coalesce_pages([]) == []


class TestStoredRun:
    def test_n_pages(self):
        run = StoredRun(extents=(PageExtent(0, 2), PageExtent(5, 1)), n_records=100)
        assert run.n_pages == 3
        assert run.page_numbers() == [0, 1, 5]

    def test_negative_records_rejected(self):
        with pytest.raises(ValueError):
            StoredRun(extents=(), n_records=-1)


class TestAppendAndRead:
    def test_roundtrip_small_group(self, int_file):
        run = int_file.append_group([1, 2, 3])
        assert run.n_records == 3
        assert int_file.read_group_array(run).tolist() == [1, 2, 3]

    def test_roundtrip_multi_page_group(self, int_file):
        records = list(range(2000))
        run = int_file.append_group(records)
        assert run.n_pages == int_file.pages_needed(2000)
        assert int_file.read_group_array(run).tolist() == records

    def test_empty_group(self, int_file):
        run = int_file.append_group([])
        assert run.n_records == 0
        assert int_file.read_group_array(run).tolist() == []

    def test_groups_do_not_share_pages(self, int_file):
        run_a = int_file.append_group([1, 2])
        run_b = int_file.append_group_array(ints(3, 4))
        assert set(run_a.page_numbers()).isdisjoint(run_b.page_numbers())

    def test_scan_returns_everything(self, int_file):
        int_file.append_group(list(range(100)))
        int_file.append_group_array(np.arange(100, 150, dtype="<i8"))
        assert np.concatenate(list(int_file.scan_arrays())).tolist() == list(range(150))

    def test_scan_missing_file_is_empty(self, int_file):
        assert list(int_file.scan_arrays()) == []

    def test_read_page_array(self, int_file):
        run = int_file.append_group([7, 8, 9])
        page = run.extents[0].start
        assert int_file.read_page_array(page).tolist() == [7, 8, 9]

    def test_delete(self, int_file):
        int_file.append_group([1])
        int_file.delete()
        assert not int_file.exists()
        assert int_file.num_pages() == 0


def read_back(file: PagedFile, runs) -> list[list[int]]:
    return [file.read_group_array(run).tolist() for run in runs]


class TestWriteGroupsInPlace:
    def test_reuses_parent_pages_first(self, int_file):
        parent = int_file.append_group(list(range(2500)))  # five pages (511/page)
        pages_before = int_file.num_pages()
        groups = [np.arange(i * 10, i * 10 + 10, dtype="<i8") for i in range(4)]
        runs = int_file.write_groups_array(groups, reuse=parent.extents)
        # Four small groups (one page each) fit in the reused pages: no growth.
        assert int_file.num_pages() == pages_before
        reused_pages = set(parent.page_numbers())
        for run in runs:
            assert set(run.page_numbers()) <= reused_pages

    def test_appends_overflow_pages(self, int_file):
        parent = int_file.append_group(list(range(300)))
        pages_before = int_file.num_pages()
        # Children together need more pages than the parent had (each group
        # occupies whole pages, so 10 groups of 300 records need ~10x).
        groups = [np.arange(300, dtype="<i8") for _ in range(10)]
        runs = int_file.write_groups_array(groups, reuse=parent.extents)
        assert int_file.num_pages() > pages_before
        assert read_back(int_file, runs) == [group.tolist() for group in groups]

    def test_content_preserved_across_rewrite(self, int_file):
        parent_records = np.arange(1000, dtype="<i8")
        parent = int_file.append_group_array(parent_records)
        groups = [parent_records[:400], parent_records[400:750], parent_records[750:]]
        runs = int_file.write_groups_array(groups, reuse=parent.extents)
        recovered = [record for group in read_back(int_file, runs) for record in group]
        assert recovered == parent_records.tolist()

    def test_empty_groups_get_empty_runs(self, int_file):
        runs = int_file.write_groups_array([ints(), ints(1, 2), ints()])
        assert runs[0].n_records == 0
        assert runs[2].n_records == 0
        assert int_file.read_group_array(runs[1]).tolist() == [1, 2]

    def test_without_reuse_behaves_like_append(self, int_file):
        runs = int_file.write_groups_array([ints(1), ints(2, 3)])
        assert read_back(int_file, runs) == [[1], [2, 3]]

    def test_reuse_overflow_split_assigns_exact_pages(self, int_file):
        """A group straddling the reuse boundary gets reused pages first and
        its missing tail from the bulk append, in group order."""
        parent = int_file.append_group(list(range(1022)))  # pages 0,1 (511/page)
        assert parent.page_numbers() == [0, 1]
        tail_start = int_file.num_pages()
        # Three one-page groups: the first reuses page 0, the second reuses
        # page 1, the third finds the free list empty and overflows entirely.
        groups = [np.arange(start, start + 400, dtype="<i8") for start in (0, 400, 800)]
        runs = int_file.write_groups_array(groups, reuse=parent.extents)
        assert runs[0].page_numbers() == [0]
        assert runs[1].page_numbers() == [1]
        assert runs[2].page_numbers() == [tail_start]
        assert read_back(int_file, runs) == [group.tolist() for group in groups]

    def test_single_group_split_between_reuse_and_overflow(self, int_file):
        """One group larger than the reused extents combines both kinds of pages."""
        parent = int_file.append_group(list(range(511)))  # exactly one page
        tail_start = int_file.num_pages()
        records = np.arange(1500, dtype="<i8")  # needs three pages
        (run,) = int_file.write_groups_array([records], reuse=parent.extents)
        assert run.page_numbers() == [0, tail_start, tail_start + 1]
        assert int_file.read_group_array(run).tolist() == records.tolist()


class TestSpatialObjectFile:
    def test_spatial_objects_roundtrip(self, disk):
        universe = Box((0.0, 0.0, 0.0), (10.0, 10.0, 10.0))
        objects = make_random_objects(universe, 200, dataset_id=4, seed=1)
        file = PagedFile(disk, "objs.dat", spatial_object_codec(3))
        run = file.append_group(objects)
        records = file.read_group_array(run)
        assert DecodedGroup.from_records(records, 3).materialize(np.ones(200, bool)) == objects
