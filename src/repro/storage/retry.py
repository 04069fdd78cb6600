"""Bounded retry with exponential backoff for transient storage faults.

:class:`RetryingBackend` wraps any :class:`~repro.storage.backend.
StorageBackend` and absorbs :func:`~repro.storage.errors.is_transient`
failures of page reads and writes by retrying with exponential backoff
and deterministic seeded jitter.  It additionally verifies the page
checksum trailer on every read: a corrupt page is re-read — in-flight
corruption (a bit-flip on the bus) disappears on retry, while corruption
persisted by a torn write survives every attempt and surfaces as
:class:`~repro.storage.errors.CorruptPageError` after the budget is spent.

Retry scope
-----------
Only idempotent operations are retried: reads always, in-place page
writes always (rewriting the same page is harmless), and appends under
the documented fault model that a failed append did not take effect
(:class:`~repro.storage.faults.FaultInjectingBackend` guarantees this by
raising before mutating).  ``create``/``delete`` are never retried — a
successful-but-reported-failed attempt would make the retry raise a
confusing "already exists"/"no such file" error; their failures pass
through for the caller to classify.

Observability
-------------
Every retry, checksum-triggered re-read and exhausted budget increments
:class:`RetryCounters`; listeners registered with
:meth:`RetryingBackend.add_retry_listener` get a callback per event,
which is how :class:`~repro.storage.disk.Disk` folds retry activity into
its :class:`~repro.storage.cost_model.IOStats`.

``sleep`` is injectable so tests (and the simulation, which measures
simulated seconds, not wall-clock) never actually block.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, fields
from typing import Callable

from repro.storage.backend import StorageBackend
from repro.storage.codec import verify_page
from repro.storage.errors import CorruptPageError, is_transient

#: Retry event names passed to listeners.
EVENT_RETRY = "retry"
EVENT_CORRUPT_READ = "corrupt_read"
EVENT_EXHAUSTED = "exhausted"


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """Backoff schedule: ``base * 2**attempt`` capped at ``max``, plus jitter.

    ``jitter`` is the maximum fraction of the delay added randomly (from
    a generator seeded with ``seed``, so schedules are reproducible).
    """

    max_attempts: int = 5
    base_delay_s: float = 0.001
    max_delay_s: float = 0.100
    jitter: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ValueError("delays must be non-negative")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")

    def delay_s(self, attempt: int, rng: random.Random) -> float:
        """Backoff before retry number ``attempt`` (0-based)."""
        delay = min(self.base_delay_s * (2**attempt), self.max_delay_s)
        return delay * (1.0 + self.jitter * rng.random())


@dataclass(frozen=True, slots=True)
class RetryCounters:
    """Cumulative retry activity of one :class:`RetryingBackend`."""

    retries: int = 0
    corrupt_reads_detected: int = 0
    exhausted: int = 0

    def delta_since(self, earlier: "RetryCounters") -> "RetryCounters":
        return RetryCounters(
            **{
                f.name: getattr(self, f.name) - getattr(earlier, f.name)
                for f in fields(self)
            }
        )


class RetryingBackend(StorageBackend):
    """A composable backend wrapper that retries transient faults."""

    def __init__(
        self,
        inner: StorageBackend,
        policy: RetryPolicy | None = None,
        *,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        super().__init__(inner.page_size)
        self._inner = inner
        self._policy = policy or RetryPolicy()
        self._sleep = sleep
        self._rng = random.Random(self._policy.seed)
        self._retries = 0
        self._corrupt_reads = 0
        self._exhausted = 0
        self._listeners: list[Callable[[str], None]] = []

    # -- introspection ---------------------------------------------------- #

    @property
    def inner(self) -> StorageBackend:
        """The wrapped backend."""
        return self._inner

    @property
    def policy(self) -> RetryPolicy:
        """The backoff schedule in force."""
        return self._policy

    def counters(self) -> RetryCounters:
        """A snapshot of the retry counters."""
        return RetryCounters(
            retries=self._retries,
            corrupt_reads_detected=self._corrupt_reads,
            exhausted=self._exhausted,
        )

    def add_retry_listener(self, listener: Callable[[str], None]) -> None:
        """Register ``listener(event)`` to observe retry activity.

        Events are :data:`EVENT_RETRY` (one retry is about to run),
        :data:`EVENT_CORRUPT_READ` (a read failed checksum validation)
        and :data:`EVENT_EXHAUSTED` (the budget ran out; the last error
        is surfacing to the caller).
        """
        self._listeners.append(listener)

    def _notify(self, event: str) -> None:
        for listener in self._listeners:
            listener(event)

    # -- the retry loop --------------------------------------------------- #

    def _attempt(self, operation: Callable[[], object]) -> object:
        last_error: BaseException | None = None
        for attempt in range(self._policy.max_attempts):
            if attempt:
                self._retries += 1
                self._notify(EVENT_RETRY)
                self._sleep(self._policy.delay_s(attempt - 1, self._rng))
            try:
                return operation()
            except BaseException as error:
                if isinstance(error, CorruptPageError):
                    self._corrupt_reads += 1
                    self._notify(EVENT_CORRUPT_READ)
                if not is_transient(error):
                    raise
                last_error = error
        self._exhausted += 1
        self._notify(EVENT_EXHAUSTED)
        assert last_error is not None
        raise last_error

    # -- file lifecycle (pass-through, never retried) ---------------------- #

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

    def clone(self) -> "RetryingBackend":
        """A clone of the stored bytes under the same policy (fresh RNG)."""
        return RetryingBackend(self._inner.clone(), self._policy, sleep=self._sleep)

    # -- page access (retried) --------------------------------------------- #

    def read(self, name: str, page_no: int) -> bytes:
        def operation() -> bytes:
            data = self._inner.read(name, page_no)
            verify_page(data)
            return data

        return self._attempt(operation)

    def write(self, name: str, page_no: int, data: bytes) -> None:
        self._attempt(lambda: self._inner.write(name, page_no, data))

    def append(self, name: str, data: bytes) -> int:
        return self._attempt(lambda: self._inner.append(name, data))
