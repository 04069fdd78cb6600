"""Unit tests for checksummed pages, fault injection and retry/backoff."""

from __future__ import annotations

import pytest

from repro.storage.backend import InMemoryBackend, StorageBackend
from repro.storage.codec import (
    FixedRecordCodec,
    decode_page,
    encode_page,
    page_checksum,
    page_intact,
    verify_page,
)
from repro.storage.cost_model import DiskModel
from repro.storage.disk import Disk
from repro.storage.errors import (
    CorruptPageError,
    MissingFileError,
    SimulatedCrash,
    TransientIOError,
    is_transient,
)
from repro.storage.faults import FaultInjectingBackend, FaultPlan
from repro.storage.retry import RetryingBackend, RetryPolicy

PAGE = 256

int_codec = FixedRecordCodec("<q", lambda value: (value,), lambda fields: fields[0])


def make_page(records=(1, 2, 3)) -> bytes:
    return encode_page(int_codec, list(records), PAGE)


class TestChecksummedPages:
    def test_encoded_page_fills_page_size(self):
        page = make_page()
        assert len(page) == PAGE

    def test_roundtrip_verifies(self):
        page = make_page()
        verify_page(page)  # must not raise
        assert page_intact(page)
        assert decode_page(int_codec, page) == [1, 2, 3]

    @pytest.mark.parametrize("bit", [0, 37, PAGE * 8 - 1])
    def test_single_bit_flip_detected(self, bit):
        corrupted = bytearray(make_page())
        corrupted[bit // 8] ^= 1 << (bit % 8)
        corrupted = bytes(corrupted)
        assert not page_intact(corrupted)
        with pytest.raises(CorruptPageError):
            verify_page(corrupted)
        with pytest.raises(CorruptPageError):
            decode_page(int_codec, corrupted)

    def test_truncated_page_detected(self):
        with pytest.raises(CorruptPageError):
            verify_page(make_page()[:100])
        with pytest.raises(CorruptPageError):
            verify_page(b"")

    def test_corruption_in_zero_padding_detected(self):
        # The trailer covers the padding too: a flip between the last
        # record and the checksum cannot hide.
        page = bytearray(make_page([5]))
        page[PAGE // 2] ^= 0xFF
        assert not page_intact(bytes(page))

    def test_checksum_is_deterministic(self):
        assert page_checksum(b"abc") == page_checksum(b"abc")
        assert page_checksum(b"abc") != page_checksum(b"abd")


class TestErrorTaxonomy:
    def test_transient_classification(self):
        assert is_transient(TransientIOError("x"))
        assert is_transient(CorruptPageError("x"))
        assert not is_transient(MissingFileError("x"))
        assert not is_transient(ValueError("x"))

    def test_simulated_crash_is_not_an_exception(self):
        # Must escape every `except Exception` cleanup/retry layer.
        assert not issubclass(SimulatedCrash, Exception)
        assert issubclass(SimulatedCrash, BaseException)


class TestFaultPlan:
    def test_rejects_bad_rates(self):
        with pytest.raises(ValueError):
            FaultPlan(read_error_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(torn_write_rate=-0.1)

    def test_rejects_bad_crash_schedule(self):
        with pytest.raises(ValueError):
            FaultPlan(crash_after_mutations=0)


def faulty(plan: FaultPlan) -> FaultInjectingBackend:
    backend = FaultInjectingBackend(InMemoryBackend(page_size=PAGE), plan)
    backend.create("f")
    return backend


class TestFaultInjection:
    def test_transient_read_error_leaves_bytes_intact(self):
        backend = faulty(FaultPlan(read_error_rate=1.0))
        backend.append("f", make_page())
        with pytest.raises(TransientIOError):
            backend.read("f", 0)
        backend.disarm()
        assert backend.read("f", 0) == make_page()
        assert backend.counters().transient_read_errors == 1

    def test_corrupt_read_does_not_touch_the_store(self):
        backend = faulty(FaultPlan(corrupt_read_rate=1.0))
        backend.append("f", make_page())
        corrupted = backend.read("f", 0)
        assert corrupted != make_page()
        with pytest.raises(CorruptPageError):
            verify_page(corrupted)
        backend.disarm()
        assert backend.read("f", 0) == make_page()  # in-flight, not persisted

    def test_transient_write_error_raises_before_mutating(self):
        backend = faulty(FaultPlan(write_error_rate=1.0))
        backend.disarm()
        backend.append("f", make_page([1]))
        backend.rearm()
        with pytest.raises(TransientIOError):
            backend.write("f", 0, make_page([2]))
        with pytest.raises(TransientIOError):
            backend.append("f", make_page([3]))
        backend.disarm()
        assert backend.read("f", 0) == make_page([1])
        assert backend.num_pages("f") == 1

    def test_torn_write_persists_detectable_corruption(self):
        backend = faulty(FaultPlan(torn_write_rate=1.0))
        backend.disarm()
        old = make_page([1, 2, 3])
        backend.append("f", old)
        backend.rearm()
        new = make_page([7, 8, 9, 10])  # different count: headers differ too
        with pytest.raises(TransientIOError):
            backend.write("f", 0, new)
        backend.disarm()
        torn = backend.read("f", 0)
        assert torn != old and torn != new
        with pytest.raises(CorruptPageError):
            verify_page(torn)  # the checksum trailer catches the tear
        # A retried full write heals the page.
        backend.write("f", 0, new)
        assert backend.read("f", 0) == new

    def test_crash_after_scheduled_mutation(self):
        backend = faulty(FaultPlan(crash_after_mutations=3, torn_crash=False))
        backend.append("f", make_page([0]))
        backend.append("f", make_page([1]))
        with pytest.raises(SimulatedCrash):
            backend.append("f", make_page([2]))
        backend.disarm()
        assert backend.num_pages("f") == 2  # the crashing append never landed

    def test_torn_crash_persists_a_torn_page(self):
        backend = faulty(FaultPlan(crash_after_mutations=2, torn_crash=True))
        backend.append("f", make_page([0]))
        with pytest.raises(SimulatedCrash):
            backend.write("f", 0, make_page([9, 10]))
        backend.disarm()
        with pytest.raises(CorruptPageError):
            verify_page(backend.read("f", 0))

    def test_named_crash_points(self):
        backend = faulty(FaultPlan(crash_points=frozenset({"journal.commit.torn"})))
        backend.maybe_crash("journal.commit.start")  # not armed: no crash
        with pytest.raises(SimulatedCrash) as info:
            backend.maybe_crash("journal.commit.torn")
        assert "journal.commit.torn" in str(info.value)
        backend.disarm()
        backend.maybe_crash("journal.commit.torn")  # disarmed: no crash

    def test_determinism_same_seed_same_faults(self):
        plan = FaultPlan(
            seed=42, read_error_rate=0.3, corrupt_read_rate=0.2, torn_write_rate=0.2
        )
        outcomes = []
        for _ in range(2):
            backend = faulty(plan)
            backend.disarm()
            for i in range(8):
                backend.append("f", make_page([i]))
            backend.rearm()
            log = []
            for i in range(8):
                try:
                    data = backend.read("f", i)
                    log.append(("ok", page_intact(data)))
                except TransientIOError:
                    log.append(("transient", None))
                try:
                    backend.write("f", i, make_page([i + 100]))
                    log.append("write-ok")
                except TransientIOError:
                    log.append("write-fault")
            outcomes.append((tuple(log), backend.counters()))
        assert outcomes[0] == outcomes[1]

    def test_clone_restarts_the_schedule(self):
        backend = faulty(FaultPlan(seed=9, read_error_rate=0.5))
        backend.disarm()
        backend.append("f", make_page())
        backend.rearm()
        copy = backend.clone()

        def trace(b):
            log = []
            for _ in range(6):
                try:
                    b.read("f", 0)
                    log.append("ok")
                except TransientIOError:
                    log.append("fault")
            return log

        assert trace(backend) == trace(copy)

    def test_metadata_operations_never_fault(self):
        backend = faulty(
            FaultPlan(read_error_rate=1.0, write_error_rate=1.0)
        )
        assert backend.exists("f")
        assert backend.num_pages("f") == 0
        assert backend.list_files() == ["f"]


class FlakyBackend(StorageBackend):
    """Fails reads/writes with a scripted error a fixed number of times."""

    def __init__(self, inner: StorageBackend, failures: int, error=None):
        super().__init__(inner.page_size)
        self.inner = inner
        self.remaining = failures
        self.error = error or TransientIOError("flaky")

    def _maybe_fail(self):
        if self.remaining > 0:
            self.remaining -= 1
            raise self.error

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
        self._maybe_fail()
        return self.inner.read(name, page_no)

    def write(self, name, page_no, data):
        self._maybe_fail()
        self.inner.write(name, page_no, data)

    def append(self, name, data):
        self._maybe_fail()
        return self.inner.append(name, data)


def flaky_retrying(failures, error=None, **kwargs):
    inner = InMemoryBackend(page_size=PAGE)
    inner.create("f")
    inner.append("f", make_page())
    sleeps: list[float] = []
    backend = RetryingBackend(
        FlakyBackend(inner, failures, error),
        kwargs.pop("policy", RetryPolicy()),
        sleep=sleeps.append,
        **kwargs,
    )
    return backend, sleeps


class TestRetryingBackend:
    def test_transient_faults_absorbed(self):
        backend, sleeps = flaky_retrying(failures=3)
        assert backend.read("f", 0) == make_page()
        assert backend.counters().retries == 3
        assert backend.counters().exhausted == 0
        assert len(sleeps) == 3

    def test_backoff_grows_exponentially(self):
        policy = RetryPolicy(max_attempts=5, base_delay_s=0.001, jitter=0.0)
        backend, sleeps = flaky_retrying(failures=4, policy=policy)
        backend.read("f", 0)
        assert sleeps == [0.001, 0.002, 0.004, 0.008]

    def test_backoff_caps_at_max_delay(self):
        policy = RetryPolicy(
            max_attempts=5, base_delay_s=0.04, max_delay_s=0.05, jitter=0.0
        )
        backend, sleeps = flaky_retrying(failures=4, policy=policy)
        backend.read("f", 0)
        assert sleeps == [0.04, 0.05, 0.05, 0.05]

    def test_exhaustion_surfaces_the_last_error(self):
        backend, _ = flaky_retrying(failures=100)
        with pytest.raises(TransientIOError):
            backend.read("f", 0)
        counters = backend.counters()
        assert counters.exhausted == 1
        assert counters.retries == backend.policy.max_attempts - 1

    def test_permanent_errors_not_retried(self):
        backend, sleeps = flaky_retrying(
            failures=100, error=MissingFileError("gone")
        )
        with pytest.raises(MissingFileError):
            backend.read("f", 0)
        assert sleeps == []  # immediate surface, no backoff
        assert backend.counters().retries == 0

    def test_simulated_crash_not_absorbed(self):
        backend, sleeps = flaky_retrying(failures=1, error=SimulatedCrash("boom"))
        with pytest.raises(SimulatedCrash):
            backend.read("f", 0)
        assert sleeps == []

    def test_write_and_append_retried(self):
        backend, _ = flaky_retrying(failures=2)
        backend.write("f", 0, make_page([9]))
        assert backend.counters().retries == 2
        backend2, _ = flaky_retrying(failures=2)
        assert backend2.append("f", make_page([5])) == 1

    def test_in_flight_corruption_healed_by_reread(self):
        inner = InMemoryBackend(page_size=PAGE)
        sleeps: list[float] = []
        backend = RetryingBackend(
            FaultInjectingBackend(inner, FaultPlan(corrupt_read_rate=0.5, seed=3)),
            sleep=sleeps.append,
        )
        backend.create("f")
        backend.append("f", make_page())
        for _ in range(20):
            assert backend.read("f", 0) == make_page()
        counters = backend.counters()
        assert counters.corrupt_reads_detected > 0  # some reads came corrupted
        assert counters.exhausted == 0  # every one healed on re-read

    def test_persisted_corruption_exhausts_the_budget(self):
        inner = InMemoryBackend(page_size=PAGE)
        inner.create("f")
        inner.append("f", b"not a sealed codec page")
        backend = RetryingBackend(inner, sleep=lambda _s: None)
        with pytest.raises(CorruptPageError):
            backend.read("f", 0)
        assert backend.counters().exhausted == 1

    def test_listener_sees_events(self):
        events = []
        backend, _ = flaky_retrying(failures=100)
        backend.add_retry_listener(events.append)
        with pytest.raises(TransientIOError):
            backend.read("f", 0)
        assert events.count("retry") == backend.policy.max_attempts - 1
        assert events.count("exhausted") == 1


class TestDiskRetryObservability:
    def test_retry_activity_folds_into_iostats(self):
        inner = InMemoryBackend(page_size=4096)
        flaky = FlakyBackend(inner, failures=0)
        disk = Disk(
            backend=RetryingBackend(flaky, sleep=lambda _s: None),
            model=DiskModel(page_size=4096),
        )
        disk.create_file("f")
        disk.append_page("f", encode_page(int_codec, [1], 4096))
        flaky.remaining = 2
        disk.read_page("f", 0)  # retried twice below the Disk facade
        assert disk.stats.retries == 2
        assert disk.stats.retry_giveups == 0

    def test_exhaustion_counts_as_giveup(self):
        inner = InMemoryBackend(page_size=4096)
        flaky = FlakyBackend(inner, failures=0)
        disk = Disk(
            backend=RetryingBackend(flaky, sleep=lambda _s: None),
            model=DiskModel(page_size=4096),
        )
        disk.create_file("f")
        disk.append_page("f", encode_page(int_codec, [1], 4096))
        flaky.remaining = 10_000
        with pytest.raises(TransientIOError):
            disk.read_page("f", 0)
        assert disk.stats.retry_giveups == 1
        assert disk.stats.retries > 0
