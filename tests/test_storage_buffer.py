"""Unit tests for the LRU buffer pool and its decoded-array layer."""

from __future__ import annotations

from dataclasses import astuple, fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.buffer import BufferCounters, BufferPool

from tests.read_reference import get_decoded, put_decoded


class TestBasicOperations:
    def test_get_miss_returns_none(self):
        pool = BufferPool(4)
        assert pool.get("f", 0) is None
        assert pool.misses == 1

    def test_put_then_get(self):
        pool = BufferPool(4)
        pool.put("f", 0, b"data")
        assert pool.get("f", 0) == b"data"
        assert pool.hits == 1

    def test_len_and_contains(self):
        pool = BufferPool(4)
        pool.put("f", 1, b"x")
        assert len(pool) == 1
        assert ("f", 1) in pool
        assert ("f", 2) not in pool

    def test_zero_capacity_disables_caching(self):
        pool = BufferPool(0)
        pool.put("f", 0, b"x")
        assert pool.get("f", 0) is None
        assert len(pool) == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            BufferPool(-1)


class TestEviction:
    def test_lru_eviction_order(self):
        pool = BufferPool(2)
        pool.put("f", 0, b"a")
        pool.put("f", 1, b"b")
        pool.get("f", 0)  # page 0 becomes most recently used
        pool.put("f", 2, b"c")  # evicts page 1
        assert pool.get("f", 1) is None
        assert pool.get("f", 0) == b"a"
        assert pool.get("f", 2) == b"c"
        assert pool.evictions == 1

    def test_put_existing_refreshes_position(self):
        pool = BufferPool(2)
        pool.put("f", 0, b"a")
        pool.put("f", 1, b"b")
        pool.put("f", 0, b"a2")  # refresh 0
        pool.put("f", 2, b"c")  # evicts 1, not 0
        assert pool.get("f", 0) == b"a2"
        assert pool.get("f", 1) is None

    def test_capacity_never_exceeded(self):
        pool = BufferPool(3)
        for page in range(10):
            pool.put("f", page, bytes([page]))
        assert len(pool) == 3


class TestInvalidation:
    def test_clear(self):
        pool = BufferPool(4)
        pool.put("f", 0, b"a")
        pool.clear()
        assert len(pool) == 0
        assert pool.get("f", 0) is None

    def test_invalidate_file_only_affects_that_file(self):
        pool = BufferPool(4)
        pool.put("f", 0, b"a")
        pool.put("g", 0, b"b")
        pool.invalidate_file("f")
        assert pool.get("f", 0) is None
        assert pool.get("g", 0) == b"b"


class TestDecodedLayer:
    def test_decoded_entry_requires_resident_byte_page(self):
        pool = BufferPool(4)
        page = b"bytes"
        put_decoded(pool, "f", 0, page, [1, 2, 3])  # no byte page: ignored
        assert get_decoded(pool, "f", 0, page) is None
        assert pool.decoded_misses == 1
        pool.put("f", 0, page)
        put_decoded(pool, "f", 0, page, [1, 2, 3])
        assert get_decoded(pool, "f", 0, page) == [1, 2, 3]
        assert pool.decoded_hits == 1

    def test_decoded_hit_requires_byte_identity(self):
        """A decoding is only served for the exact bytes object it was
        computed from — an equal copy (e.g. a snapshot overlay page) must
        miss, so stale pool entries can never alias a decode."""
        pool = BufferPool(4)
        page = b"bytes"
        pool.put("f", 0, page)
        put_decoded(pool, "f", 0, page, "decoded")
        equal_copy = bytes(bytearray(page))
        assert equal_copy == page and equal_copy is not page
        assert get_decoded(pool, "f", 0, equal_copy) is None
        assert get_decoded(pool, "f", 0, page) == "decoded"

    def test_stale_put_decoded_is_ignored(self):
        """put_decoded for bytes no longer resident must not resurrect a
        stale decoding over the page's current contents."""
        pool = BufferPool(4)
        old = b"old!"
        new = b"new!"
        pool.put("f", 0, old)
        pool.put("f", 0, new)  # old decode-source bytes are gone
        put_decoded(pool, "f", 0, old, "decoded-old")  # late: ignored
        assert get_decoded(pool, "f", 0, new) is None
        assert get_decoded(pool, "f", 0, old) is None

    def test_eviction_drops_decoded_array_with_its_byte_page(self):
        pool = BufferPool(2)
        page = b"a"
        pool.put("f", 0, page)
        put_decoded(pool, "f", 0, page, "decoded-0")
        pool.put("f", 1, b"b")
        pool.put("f", 2, b"c")  # evicts page 0 and its decoded entry
        assert pool.evictions == 1
        assert pool.decoded_evictions == 1
        assert get_decoded(pool, "f", 0, page) is None

    def test_eviction_of_undecoded_page_counts_no_decoded_eviction(self):
        pool = BufferPool(1)
        pool.put("f", 0, b"a")
        pool.put("f", 1, b"b")
        assert pool.evictions == 1
        assert pool.decoded_evictions == 0

    def test_overwrite_invalidates_stale_decoding(self):
        pool = BufferPool(4)
        old = b"old"
        pool.put("f", 0, old)
        put_decoded(pool, "f", 0, old, "decoded-old")
        new = b"new"
        pool.put("f", 0, new)  # refresh: the old decoding is stale
        assert get_decoded(pool, "f", 0, new) is None
        assert get_decoded(pool, "f", 0, old) is None

    def test_invalidate_file_and_clear_drop_decoded_entries(self):
        pool = BufferPool(4)
        page = b"a"
        for name in ("f", "g"):
            pool.put(name, 0, page)
            put_decoded(pool, name, 0, page, name)
        pool.invalidate_file("f")
        assert get_decoded(pool, "f", 0, page) is None
        assert get_decoded(pool, "g", 0, page) == "g"
        pool.clear()
        assert get_decoded(pool, "g", 0, page) is None

    def test_invalidation_counts_decoded_drops(self):
        """Regression: file invalidation used to drop decoded entries
        without counting them, under-reporting decoded drops after merges
        delete files."""
        pool = BufferPool(8)
        page_a, page_c = b"a", b"c"
        pool.put("merge", 0, page_a)
        put_decoded(pool, "merge", 0, page_a, "d0")
        pool.put("merge", 1, b"b")  # byte page without a decoded entry
        pool.put("other", 0, page_c)
        put_decoded(pool, "other", 0, page_c, "d1")
        pool.invalidate_file("merge")
        # Exactly the one decoded entry of the invalidated file is counted,
        # on its own counter — the eviction counter stays untouched.
        assert pool.decoded_invalidations == 1
        assert pool.decoded_evictions == 0
        assert pool.counters().decoded_invalidations == 1

    def test_decoded_drop_invariant_across_eviction_and_invalidation(self):
        """Every decoded drop outside clear() is counted by exactly one of
        decoded_evictions / decoded_invalidations."""
        pool = BufferPool(2)
        page_a, page_b = b"a", b"b"
        decoded_added = 0
        pool.put("f", 0, page_a)
        put_decoded(pool, "f", 0, page_a, "d0")
        decoded_added += 1
        pool.put("g", 0, page_b)
        put_decoded(pool, "g", 0, page_b, "d1")
        decoded_added += 1
        pool.put("f", 1, b"c")  # evicts ("f", 0) and its decoded entry
        pool.invalidate_file("g")  # drops ("g", 0) and its decoded entry
        assert get_decoded(pool, "f", 0, page_a) is None
        assert get_decoded(pool, "g", 0, page_b) is None
        dropped = pool.decoded_evictions + pool.decoded_invalidations
        assert dropped == decoded_added
        assert pool.decoded_evictions == 1
        assert pool.decoded_invalidations == 1

    def test_counter_accounting_snapshot_and_delta(self):
        pool = BufferPool(2)
        page = b"a"
        pool.put("f", 0, page)
        put_decoded(pool, "f", 0, page, "d0")
        pool.get("f", 0)
        pool.get("f", 1)  # miss
        get_decoded(pool, "f", 0, page)
        get_decoded(pool, "f", 1, page)  # miss
        pool.put("f", 1, b"b")
        pool.put("f", 2, b"c")  # evicts page 0 (+ decoded entry)
        snapshot = pool.counters()
        assert snapshot == BufferCounters(
            hits=1,
            misses=1,
            evictions=1,
            decoded_hits=1,
            decoded_misses=1,
            decoded_evictions=1,
        )
        assert (snapshot.hits, snapshot.evictions, snapshot.decoded_hits) == (
            pool.hits,
            pool.evictions,
            pool.decoded_hits,
        )
        pool.get("f", 2)
        delta = pool.counters().delta_since(snapshot)
        assert delta == BufferCounters(hits=1)


counters = st.builds(
    BufferCounters, *[st.integers(-(2**40), 2**40) for _ in fields(BufferCounters)]
)


@settings(max_examples=100, deadline=None)
@given(counters, counters)
def test_delta_and_between_match_the_field_by_field_expression(later, earlier):
    """``delta_since``, and ``between`` over plain tallies, equal the per-field
    expression over ``dataclasses.fields``."""
    names = [f.name for f in fields(BufferCounters)]
    expected = BufferCounters(
        **{name: getattr(later, name) - getattr(earlier, name) for name in names}
    )
    assert later.delta_since(earlier) == expected
    assert BufferCounters.between(astuple(earlier), astuple(later)) == expected


def test_tally_is_the_counters_as_a_tuple():
    pool = BufferPool(1)
    pool.put("f", 0, b"a")
    pool.get("f", 0)
    pool.get("f", 1)
    pool.put("f", 1, b"b")  # evicts page 0
    assert pool.tally == astuple(pool.counters()) == (1, 1, 1, 0, 0, 0, 0)


def decoder(log: list, fail_on=()):
    """A page decoder that records what it decodes and raises on ``fail_on``."""

    def decode(dtype, page):
        log.append(page)
        if page in fail_on:
            raise ValueError(f"cannot decode {page!r}")
        return (dtype, page)

    return decode


class TestRunCalls:
    """The run-level calls the page loop makes: one per run."""

    def test_get_run_serves_the_cached_prefix_and_counts_the_miss_ending_it(self):
        pool = BufferPool(8)
        for page_no in (1, 2, 4):
            pool.put("f", page_no, bytes([page_no]))
        pool.put("g", 0, b"g")
        pages, decoded = pool.get_run("f", 1, 4)
        assert pages == [b"\x01", b"\x02"] and decoded is None
        assert (pool.hits, pool.misses) == (2, 1)
        assert list(pool._pages)[-2:] == [("f", 1), ("f", 2)]  # moved to the LRU tail
        assert pool.get_run("f", 0, 2) == ([], None)  # a first-page miss: one miss
        assert (pool.hits, pool.misses) == (2, 2)

    def test_a_whole_cached_run_is_decoded_in_the_same_call(self):
        pool = BufferPool(8)
        pool.put("f", 0, b"a")
        pool.put("f", 1, b"b")
        log: list = []
        pages, decoded = pool.get_run("f", 0, 2, decoder(log), "dt")
        assert pages == [b"a", b"b"] and decoded == [("dt", b"a"), ("dt", b"b")]
        assert (pool.decoded_hits, pool.decoded_misses) == (0, 2)
        _, again = pool.get_run("f", 0, 2, decoder(log), "dt")
        assert again == decoded and log == [b"a", b"b"]  # served, not decoded again
        assert (pool.hits, pool.decoded_hits, pool.decoded_misses) == (4, 2, 2)
        pool.put("f", 2, b"c")
        assert pool.get_run("f", 1, 3, decoder(log), "dt") == ([b"b", b"c"], None)
        assert pool.decoded_hits == 2  # a partial prefix is not decoded

    def test_decode_run_serves_only_the_same_resident_bytes(self):
        pool = BufferPool(4)
        page = b"bytes"
        log: list = []
        pool.decode_run("f", 0, [page], decoder(log), None)  # not resident: not kept
        pool.put("f", 0, page)
        equal_copy = bytes(bytearray(page))
        pool.decode_run("f", 0, [equal_copy], decoder(log), None)  # not the resident object
        assert ("f", 0) not in pool._decoded
        pool.decode_run("f", 0, [page], decoder(log), None)
        assert pool.decode_run("f", 0, [page], decoder(log), None) == [(None, page)]
        pool.decode_run("f", 0, [equal_copy], decoder(log), None)  # identity, not equality
        assert log == [page, equal_copy, page, equal_copy]
        assert (pool.decoded_hits, pool.decoded_misses) == (1, 4)
        pool.put("f", 0, b"new!")  # the old decoding is stale
        pool.decode_run("f", 0, [page], decoder(log), None)  # late: not kept
        assert ("f", 0) not in pool._decoded

    def test_a_decode_that_raises_has_counted_its_miss(self):
        pool = BufferPool(4)
        pages = [b"a", b"b", b"c"]
        for page_no, page in enumerate(pages):
            pool.put("f", page_no, page)
        with pytest.raises(ValueError):
            pool.get_run("f", 0, 3, decoder([], fail_on=(b"b",)), None)
        assert (pool.hits, pool.decoded_misses) == (3, 2)
        assert sorted(pool._decoded) == [("f", 0)]


class TestInvalidatePage:
    """Single-page invalidation: the primitive the disk uses to keep the
    pool honest around failed reads and in-place overwrites."""

    def test_drops_byte_and_decoded_layers(self):
        pool = BufferPool(4)
        page = b"bytes"
        pool.put("f", 0, page)
        put_decoded(pool, "f", 0, page, "decoded")
        pool.put("f", 1, b"other")
        pool.invalidate_page("f", 0)
        assert pool.get("f", 0) is None
        assert get_decoded(pool, "f", 0, page) is None
        assert pool.get("f", 1) == b"other"  # untouched sibling
        assert pool.decoded_invalidations == 1

    def test_missing_page_is_a_noop(self):
        pool = BufferPool(4)
        pool.invalidate_page("f", 0)  # nothing cached: must not raise
        assert pool.decoded_invalidations == 0


class TestDiskFailedReadInvalidation:
    """Regression: a failed backend read or write must never leave the
    pool serving bytes the backend no longer vouches for."""

    @staticmethod
    def _disk_with_script(buffer_pages=8):
        from repro.storage.backend import InMemoryBackend, StorageBackend
        from repro.storage.cost_model import DiskModel
        from repro.storage.disk import Disk
        from repro.storage.errors import TransientIOError

        class ScriptedBackend(StorageBackend):
            """Fails exactly the operations the test arms."""

            def __init__(self):
                inner = InMemoryBackend(page_size=64)
                super().__init__(inner.page_size)
                self.inner = inner
                self.fail_reads = 0
                self.fail_writes = 0

            def create(self, name):
                self.inner.create(name)

            def delete(self, name):
                self.inner.delete(name)

            def exists(self, name):
                return self.inner.exists(name)

            def list_files(self):
                return self.inner.list_files()

            def num_pages(self, name):
                return self.inner.num_pages(name)

            def clone(self):
                raise NotImplementedError

            def read(self, name, page_no):
                if self.fail_reads > 0:
                    self.fail_reads -= 1
                    raise TransientIOError("injected read fault")
                return self.inner.read(name, page_no)

            def write(self, name, page_no, data):
                if self.fail_writes > 0:
                    self.fail_writes -= 1
                    raise TransientIOError("injected write fault")
                self.inner.write(name, page_no, data)

            def append(self, name, data):
                return self.inner.append(name, data)

        backend = ScriptedBackend()
        disk = Disk(
            backend=backend,
            model=DiskModel(page_size=64),
            buffer_pages=buffer_pages,
        )
        return disk, backend

    def test_failed_write_does_not_leave_stale_cached_bytes(self):
        from repro.storage.errors import TransientIOError

        disk, backend = self._disk_with_script()
        disk.create_file("f")
        disk.append_page("f", b"old")
        assert disk.read_page("f", 0).startswith(b"old")  # now cached
        backend.fail_writes = 1
        with pytest.raises(TransientIOError):
            disk.write_page("f", 0, b"new")
        # The write failed before reaching the store; the pool must fall
        # back to the backend's (old) truth, not a stale cache entry.
        assert disk.read_page("f", 0).startswith(b"old")
        disk.write_page("f", 0, b"new")  # retried write goes through
        assert disk.read_page("f", 0).startswith(b"new")

    def test_failed_recache_after_write_leaves_page_uncached(self):
        disk, backend = self._disk_with_script()
        disk.create_file("f")
        disk.append_page("f", b"old")
        backend.fail_reads = 1  # the post-write refresh read will fail
        disk.write_page("f", 0, b"new")  # the write itself succeeds
        assert disk.buffer_pool.get("f", 0) is None  # no stale entry
        assert disk.read_page("f", 0).startswith(b"new")  # fresh fetch

    def test_failed_read_invalidates_instead_of_caching(self):
        from repro.storage.errors import TransientIOError

        disk, backend = self._disk_with_script()
        disk.create_file("f")
        disk.append_page("f", b"data")
        disk.clear_cache()
        backend.fail_reads = 1
        with pytest.raises(TransientIOError):
            disk.read_page("f", 0)
        assert disk.buffer_pool.get("f", 0) is None
        assert disk.read_page("f", 0).startswith(b"data")

    def test_failed_run_read_invalidates_the_failing_page(self):
        from repro.storage.errors import TransientIOError

        disk, backend = self._disk_with_script()
        disk.create_file("f")
        for index in range(4):
            disk.append_page("f", b"p%d" % index)
        disk.clear_cache()
        backend.fail_reads = 1  # the run aborts on its first page
        with pytest.raises(TransientIOError):
            disk.read_run("f", 0, 4)
        for page_no in range(4):
            assert disk.buffer_pool.get("f", page_no) is None
        assert [bytes(p[:2]) for p in disk.read_run("f", 0, 4)] == [
            b"p0",
            b"p1",
            b"p2",
            b"p3",
        ]


class TestDecodedArrayImmutability:
    """Arrays served from the decoded layer (and every other array read
    path) are shared between callers — buffer-pool cache hits and batch
    read sets alias the same memory.  A
    caller mutating one in place would silently corrupt every other
    reader's view of the page, so the storage layer hands them out with
    ``writeable=False`` and in-place writes must raise."""

    @pytest.fixture
    def stored(self):
        from repro.data.spatial_object import spatial_object_codec
        from repro.storage.cost_model import DiskModel
        from repro.storage.disk import Disk
        from repro.storage.pagedfile import PagedFile

        from tests.conftest import make_random_objects
        from repro.geometry.box import Box

        disk = Disk(model=DiskModel(), buffer_pages=64)
        file = PagedFile(disk, "frozen.dat", spatial_object_codec(3))
        universe = Box((0.0, 0.0, 0.0), (100.0, 100.0, 100.0))
        # Enough records to span several pages, so the multi-page
        # concatenation path is exercised too.
        run = file.append_group(
            make_random_objects(universe, 300, dataset_id=0, seed=5)
        )
        return file, run

    def test_read_group_array_is_frozen(self, stored):
        file, run = stored
        records = file.read_group_array(run)
        assert not records.flags.writeable
        with pytest.raises(ValueError):
            records["oid"][0] = 999

    def test_decoded_cache_hit_is_frozen(self, stored):
        """The second read serves the pool's decoded entries: still frozen."""
        file, run = stored
        file.read_group_array(run)
        cached = file.read_group_array(run)
        assert not cached.flags.writeable
        with pytest.raises(ValueError):
            cached["lo"][:] = 0.0

    def test_scan_arrays_chunks_are_frozen(self, stored):
        file, _ = stored
        chunks = list(file.scan_arrays(chunk_pages=2))
        assert chunks
        for chunk in chunks:
            assert not chunk.flags.writeable

    def test_snapshot_read_is_frozen(self, stored):
        file, run = stored
        records = file.read_group_array_at(run, lambda name, page_no: None)
        assert not records.flags.writeable
        with pytest.raises(ValueError):
            records["hi"][0] = 1.0
