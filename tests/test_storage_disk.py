"""Unit tests for the simulated disk facade (cost accounting, caching)."""

from __future__ import annotations

import pytest

from repro.storage.backend import InMemoryBackend
from repro.storage.cost_model import DiskModel
from repro.storage.disk import Disk


@pytest.fixture
def model() -> DiskModel:
    # seek = 1 ms, one page transfers in exactly 1 ms -> easy arithmetic.
    return DiskModel(page_size=4096, seek_time_s=1e-3, transfer_rate_bytes_per_s=4096 * 1000)


@pytest.fixture
def disk(model: DiskModel) -> Disk:
    return Disk(model=model, buffer_pages=0)


class TestFileOperations:
    def test_create_exists_delete(self, disk):
        disk.create_file("f")
        assert disk.file_exists("f")
        assert disk.num_pages("f") == 0
        disk.delete_file("f")
        assert not disk.file_exists("f")

    def test_file_size_bytes(self, disk):
        disk.create_file("f")
        disk.append_page("f", b"x")
        assert disk.file_size_bytes("f") == disk.page_size

    def test_mismatched_backend_page_size_rejected(self, model):
        backend = InMemoryBackend(page_size=1024)
        with pytest.raises(ValueError):
            Disk(backend=backend, model=model)


class TestCostAccounting:
    def test_first_access_is_random(self, disk):
        disk.create_file("f")
        disk.append_page("f", b"a")  # write: random (head unknown)
        assert disk.stats.pages_written == 1
        assert disk.stats.seeks == 1

    def test_sequential_appends_charged_without_seek(self, disk):
        disk.create_file("f")
        disk.append_page("f", b"a")
        seeks_before = disk.stats.seeks
        disk.append_page("f", b"b")  # continues after the previous page
        assert disk.stats.seeks == seeks_before

    def test_read_run_single_positioning(self, disk, model):
        disk.create_file("f")
        for i in range(10):
            disk.append_page("f", bytes([i]))
        disk.reset_head()
        before = disk.stats_snapshot()
        pages = disk.read_run("f", 0, 10)
        delta = disk.stats.delta_since(before)
        assert len(pages) == 10
        assert delta.seeks == 1
        assert delta.io_seconds == pytest.approx(
            model.seek_time_s + 10 * model.page_transfer_time_s
        )

    def test_random_reads_each_pay_seek(self, disk):
        disk.create_file("f")
        for i in range(10):
            disk.append_page("f", bytes([i]))
        disk.reset_head()
        before = disk.stats_snapshot()
        disk.read_page("f", 7)
        disk.read_page("f", 2)
        delta = disk.stats.delta_since(before)
        assert delta.seeks == 2

    def test_consecutive_single_page_reads_become_sequential(self, disk):
        disk.create_file("f")
        for i in range(3):
            disk.append_page("f", bytes([i]))
        disk.reset_head()
        before = disk.stats_snapshot()
        disk.read_page("f", 0)
        disk.read_page("f", 1)
        disk.read_page("f", 2)
        delta = disk.stats.delta_since(before)
        assert delta.seeks == 1  # only the first read repositions the head

    def test_switching_files_costs_a_seek(self, disk):
        disk.create_file("f")
        disk.create_file("g")
        disk.append_page("f", b"a")
        disk.append_page("g", b"b")
        disk.reset_head()
        before = disk.stats_snapshot()
        disk.read_page("f", 0)
        disk.read_page("g", 0)
        assert disk.stats.delta_since(before).seeks == 2

    def test_whole_file_run_is_sequential(self, disk, model):
        disk.create_file("f")
        for i in range(20):
            disk.append_page("f", bytes([i]))
        disk.reset_head()
        before = disk.stats_snapshot()
        pages = disk.read_run("f", 0, 20)
        delta = disk.stats.delta_since(before)
        assert len(pages) == 20
        assert delta.seeks == 1
        assert delta.io_seconds == pytest.approx(
            model.seek_time_s + 20 * model.page_transfer_time_s
        )

    def test_cpu_charging(self, disk, model):
        disk.charge_cpu_records(1000)
        assert disk.stats.cpu_seconds == pytest.approx(model.cpu_time_s(1000))
        disk.charge_cpu_seconds(0.5)
        assert disk.stats.cpu_seconds == pytest.approx(model.cpu_time_s(1000) + 0.5)

    def test_simulated_time_is_monotonic(self, disk):
        disk.create_file("f")
        previous = 0.0
        for i in range(5):
            disk.append_page("f", bytes([i]))
            assert disk.stats.simulated_seconds >= previous
            previous = disk.stats.simulated_seconds


class TestBufferPool:
    def test_cached_read_is_free(self, model):
        disk = Disk(model=model, buffer_pages=8)
        disk.create_file("f")
        disk.append_page("f", b"a")
        disk.clear_cache()
        disk.read_page("f", 0)
        before = disk.stats_snapshot()
        disk.read_page("f", 0)  # now cached
        delta = disk.stats.delta_since(before)
        assert delta.pages_read == 0
        assert delta.io_seconds == 0.0
        assert delta.cache_hits == 1

    def test_clear_cache_forces_io_again(self, model):
        disk = Disk(model=model, buffer_pages=8)
        disk.create_file("f")
        disk.append_page("f", b"a")
        disk.read_page("f", 0)
        disk.clear_cache()
        before = disk.stats_snapshot()
        disk.read_page("f", 0)
        assert disk.stats.delta_since(before).pages_read == 1

    def test_delete_file_invalidates_cache(self, model):
        disk = Disk(model=model, buffer_pages=8)
        disk.create_file("f")
        disk.append_page("f", b"a")
        disk.read_page("f", 0)
        disk.delete_file("f")
        disk.create_file("f")
        disk.append_page("f", b"b")
        assert disk.read_page("f", 0).startswith(b"b")

    def test_write_through_updates_cache(self, model):
        disk = Disk(model=model, buffer_pages=8)
        disk.create_file("f")
        disk.append_page("f", b"a")
        disk.write_page("f", 0, b"z")
        before = disk.stats_snapshot()
        assert disk.read_page("f", 0).startswith(b"z")
        assert disk.stats.delta_since(before).pages_read == 0  # served from cache
