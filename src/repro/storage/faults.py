"""Deterministic fault injection for storage backends.

:class:`FaultInjectingBackend` wraps any :class:`~repro.storage.backend.
StorageBackend` and perturbs its operations according to a seeded
:class:`FaultPlan`:

* **transient errors** — reads/writes raise
  :class:`~repro.storage.errors.TransientIOError` *before* touching the
  inner backend, so the stored bytes are intact and a retry succeeds;
* **bit-flip read corruption** — a read returns the stored page with one
  bit flipped (the store itself is untouched, modelling in-flight
  corruption on the bus: a re-read returns good bytes);
* **torn writes** — an in-place write persists only a random prefix of
  the new page (the tail keeps the old bytes) and then raises
  :class:`~repro.storage.errors.TransientIOError`.  A retry overwrites
  the whole page, so torn writes are invisible under retries — unless the
  process dies first, which is exactly what the checksum trailer catches;
* **crashes** — after a scheduled number of mutations, or at a named
  crash point (:meth:`FaultInjectingBackend.maybe_crash`), the backend
  raises :class:`~repro.storage.errors.SimulatedCrash`.  A crashing
  in-place write may first persist a torn page (``torn_crash=True``),
  modelling power loss mid-sector.

Everything is driven by one ``random.Random(seed)``: the same plan over
the same operation sequence injects the same faults, so every failing
scenario is replayable from its seed.  Faults only ever apply to page
*data* operations — ``exists``/``num_pages``/``list_files`` metadata
stays reliable, keeping the fault model about I/O, not catalog loss.

:meth:`FaultInjectingBackend.disarm` turns all injection off (counters
are kept); recovery tests disarm after the simulated crash, exactly like
restarting the process on healthy hardware.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, fields

from repro.storage.backend import StorageBackend
from repro.storage.errors import SimulatedCrash, TransientIOError


@dataclass(frozen=True, slots=True)
class FaultPlan:
    """A seeded schedule of faults to inject.

    Rates are independent per-operation probabilities in ``[0, 1]``.
    ``crash_after_mutations=N`` crashes on the Nth mutating operation
    (1-based; writes and appends count); ``crash_points`` arms named
    sites checked via :meth:`FaultInjectingBackend.maybe_crash`.
    """

    seed: int = 0
    read_error_rate: float = 0.0
    write_error_rate: float = 0.0
    corrupt_read_rate: float = 0.0
    torn_write_rate: float = 0.0
    crash_after_mutations: int | None = None
    crash_points: frozenset[str] = field(default_factory=frozenset)
    torn_crash: bool = True

    def __post_init__(self) -> None:
        for name in (
            "read_error_rate",
            "write_error_rate",
            "corrupt_read_rate",
            "torn_write_rate",
        ):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.crash_after_mutations is not None and self.crash_after_mutations < 1:
            raise ValueError("crash_after_mutations is 1-based and must be >= 1")


@dataclass(frozen=True, slots=True)
class FaultCounters:
    """How many faults of each kind have been injected so far."""

    transient_read_errors: int = 0
    transient_write_errors: int = 0
    reads_corrupted: int = 0
    torn_writes: int = 0
    crashes: int = 0

    def delta_since(self, earlier: "FaultCounters") -> "FaultCounters":
        return FaultCounters(
            **{
                f.name: getattr(self, f.name) - getattr(earlier, f.name)
                for f in fields(self)
            }
        )


class FaultInjectingBackend(StorageBackend):
    """A composable backend wrapper that injects deterministic faults."""

    def __init__(self, inner: StorageBackend, plan: FaultPlan | None = None) -> None:
        super().__init__(inner.page_size)
        self._inner = inner
        self._plan = plan or FaultPlan()
        self._rng = random.Random(self._plan.seed)
        self._armed = True
        self._mutations = 0
        self._transient_read_errors = 0
        self._transient_write_errors = 0
        self._reads_corrupted = 0
        self._torn_writes = 0
        self._crashes = 0

    # -- introspection ---------------------------------------------------- #

    @property
    def inner(self) -> StorageBackend:
        """The wrapped backend holding the actual bytes."""
        return self._inner

    @property
    def plan(self) -> FaultPlan:
        """The fault schedule in force."""
        return self._plan

    @property
    def armed(self) -> bool:
        """Whether faults are currently being injected."""
        return self._armed

    def counters(self) -> FaultCounters:
        """A snapshot of the injected-fault counters."""
        return FaultCounters(
            transient_read_errors=self._transient_read_errors,
            transient_write_errors=self._transient_write_errors,
            reads_corrupted=self._reads_corrupted,
            torn_writes=self._torn_writes,
            crashes=self._crashes,
        )

    def disarm(self) -> None:
        """Stop injecting faults (simulates restarting on healthy hardware)."""
        self._armed = False

    def rearm(self) -> None:
        """Resume injecting faults from the plan."""
        self._armed = True

    # -- crash machinery -------------------------------------------------- #

    def maybe_crash(self, point: str) -> None:
        """Crash if the named point is armed in the plan.

        Call sites thread this through components that want crash
        coverage at places the backend cannot see (e.g. the journal's
        write-temp/fsync/rename steps).
        """
        if self._armed and point in self._plan.crash_points:
            self._crashes += 1
            raise SimulatedCrash(point)

    def _count_mutation(self) -> bool:
        """Advance the mutation counter; True when this op must crash."""
        self._mutations += 1
        return self._mutations == self._plan.crash_after_mutations

    def _roll(self, rate: float) -> bool:
        return rate > 0.0 and self._rng.random() < rate

    def _flip_bit(self, data: bytes) -> bytes:
        corrupted = bytearray(data)
        bit = self._rng.randrange(len(corrupted) * 8)
        corrupted[bit // 8] ^= 1 << (bit % 8)
        return bytes(corrupted)

    def _torn(self, name: str, page_no: int | None, data: bytes) -> bytes:
        """The bytes a torn write would persist: new prefix, old tail."""
        cut = self._rng.randrange(1, max(2, len(data)))
        if page_no is None:  # torn append: the tail was never written
            return data[:cut]
        old = self._inner.read(name, page_no)
        return data[:cut] + old[cut:]

    # -- file lifecycle (metadata stays reliable) -------------------------- #

    def create(self, name: str) -> None:
        self._inner.create(name)

    def delete(self, name: str) -> None:
        self._inner.delete(name)

    def exists(self, name: str) -> bool:
        return self._inner.exists(name)

    def list_files(self) -> list[str]:
        return self._inner.list_files()

    def num_pages(self, name: str) -> int:
        return self._inner.num_pages(name)

    def clone(self) -> "FaultInjectingBackend":
        """A clone of the stored bytes under a fresh copy of the plan.

        The clone's RNG restarts from the plan seed: two clones fed the
        same operation sequence see the same faults.
        """
        return FaultInjectingBackend(self._inner.clone(), self._plan)

    # -- page access ------------------------------------------------------ #

    def read(self, name: str, page_no: int) -> bytes:
        if self._armed and self._roll(self._plan.read_error_rate):
            self._transient_read_errors += 1
            raise TransientIOError(f"injected read fault: {name!r} page {page_no}")
        data = self._inner.read(name, page_no)
        if self._armed and self._roll(self._plan.corrupt_read_rate):
            self._reads_corrupted += 1
            data = self._flip_bit(data)
        return data

    def write(self, name: str, page_no: int, data: bytes) -> None:
        data = self._check_page_data(data)
        if self._armed:
            if self._count_mutation():
                self._crashes += 1
                if self._plan.torn_crash:
                    self._inner.write(name, page_no, self._torn(name, page_no, data))
                raise SimulatedCrash(f"write:{name}:{page_no}")
            if self._roll(self._plan.write_error_rate):
                self._transient_write_errors += 1
                raise TransientIOError(f"injected write fault: {name!r} page {page_no}")
            if self._roll(self._plan.torn_write_rate):
                self._torn_writes += 1
                self._inner.write(name, page_no, self._torn(name, page_no, data))
                raise TransientIOError(f"injected torn write: {name!r} page {page_no}")
        self._inner.write(name, page_no, data)

    def append(self, name: str, data: bytes) -> int:
        data = self._check_page_data(data)
        if self._armed:
            if self._count_mutation():
                self._crashes += 1
                if self._plan.torn_crash:
                    self._inner.append(name, self._torn(name, None, data))
                raise SimulatedCrash(f"append:{name}")
            # Appends only fail *before* taking effect: a failed-then-
            # retried append must not leave a duplicate page behind.
            if self._roll(self._plan.write_error_rate):
                self._transient_write_errors += 1
                raise TransientIOError(f"injected append fault: {name!r}")
        return self._inner.append(name, data)
