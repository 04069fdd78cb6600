"""The multi-tenant query service: dynamic batching over one engine.

Many concurrent clients submit range queries to a :class:`QueryService`;
a dedicated dispatcher thread coalesces them into batches — flushing on
whichever of two triggers fires first, a **size** trigger (``max_batch``
queued queries) or a **deadline** trigger (the oldest queued query has
waited ``max_delay_ms``) — and drains each batch inline through one
:meth:`~repro.core.odyssey.SpaceOdyssey.query_batch` call.  Every
submission gets its own
:class:`~concurrent.futures.Future`, so results *and* exceptions route
back to the client that submitted them.

Determinism contract
--------------------
Submissions are assigned a global **arrival sequence number** and queued
in that order (both under one submission lock), the dispatcher forms
batches from consecutive queued entries, and batched execution is
sequential-equivalent by the engine's own guarantee (see
:mod:`repro.core.batch`).  The service therefore executes exactly the
serial schedule "all accepted queries, in arrival order" — every client's
results are identical to issuing the same queries sequentially in arrival
order on a private engine, and the served engine's post-run adaptive
state equals that sequential run's.  The serve and mixed rows of the
engine oracle (``tests/test_engine_fuzz.py``) enforce this with the same
packed-bytes/adaptive-state/on-disk checks as every other mode.

Failure isolation & graceful degradation
----------------------------------------
A batch whose execution raises (e.g. one query requests an unknown
dataset id — the batch executor validates ids before doing any work;
or a writer half raises, which keeps the queries before it committed,
answered from the batch) falls back to executing its queries one by one through
:meth:`~repro.core.odyssey.SpaceOdyssey.query`: only the offending
queries' futures receive the exception, every other query in the batch
still completes with its exact answer, and the arrival-order schedule is
preserved.  A query whose writer half raised in the batch already ran,
so its future receives that error and it is not run again.

Under storage faults the service degrades gracefully instead of hanging
or crash-looping:

* **Transient errors are retried below the service.**  The service runs
  each query at most once; :class:`~repro.storage.retry.RetryingBackend`
  retries transient faults page by page, and it is the only layer that
  can retry a writer half's writes.  On a store without it, a served
  query surfaces its first transient fault.
* **A circuit breaker sheds load.**  :data:`BREAKER_THRESHOLD`
  consecutive batches with a query that failed on a
  :class:`~repro.storage.errors.StorageError` open the breaker (a client
  error such as an unknown dataset id does not count): subsequent
  batches are failed *immediately* with :class:`ServiceDegraded` — a
  typed error, never a hang — without touching the engine, until
  :data:`BREAKER_COOLDOWN_S` elapses.  The next batch is then let
  through (half-open); a batch without a storage failure closes the
  breaker.
* **Health is observable.**  :attr:`QueryService.healthy` reports the
  breaker state and :class:`ServiceStats` carries the fault counters
  (``degraded``, ``breaker_opens``).

Shutdown semantics
------------------
``close(drain=True)`` (also the context-manager exit) stops accepting
submissions, lets the dispatcher execute everything already queued (a
final *drain* flush), and joins it — the engine's gate lock is released
and the engine stays fully usable afterwards.  ``close(drain=False)``
additionally fails still-queued submissions with :class:`ServiceClosed`
instead of executing them; the batch in flight (if any) always completes,
because a top-level ``query_batch`` call cannot be interrupted mid-write.
"""

from __future__ import annotations

import itertools
import threading
import time
from concurrent.futures import Future, InvalidStateError
from dataclasses import dataclass, fields
from queue import Empty, Queue
from typing import Iterable

from repro.core.odyssey import SpaceOdyssey
from repro.data.spatial_object import SpatialObject
from repro.geometry.box import Box
from repro.obs.metrics import Histogram, HistogramSummary
from repro.obs.trace import maybe_span
from repro.storage.errors import StorageError


class ServiceClosed(RuntimeError):
    """Submitting to a closed service, or a pending query dropped by abort."""


class ServiceDegraded(RuntimeError):
    """The circuit breaker is open: the query was shed, not executed.

    Raised *to the submission's future* (a typed, immediate outcome —
    never a hang) while the service rides out a run of storage failures.
    The breaker lets a probe batch through after :data:`BREAKER_COOLDOWN_S`
    and closes again once a batch has no storage failure.
    """


#: Queue sentinel that tells the dispatcher to exit after the current drain.
_SHUTDOWN = object()

#: The circuit breaker opens after this many consecutive batches with a
#: storage failure...
BREAKER_THRESHOLD = 5
#: ...and sheds load for this many seconds before a probe batch.
BREAKER_COOLDOWN_S = 0.1

#: Flush-trigger labels, in ServiceStats order.
FLUSH_SIZE = "size"
FLUSH_DEADLINE = "deadline"
FLUSH_DRAIN = "drain"


@dataclass(frozen=True, slots=True)
class ServiceStats:
    """A point-in-time snapshot of one service's serving counters.

    ``submitted == completed + failed + cancelled + pending`` at any
    quiescent point (after :meth:`QueryService.close` the pending term is
    zero).  ``size_flushes + deadline_flushes + drain_flushes ==
    batches``.  ``fallbacks`` counts batches that raised and were replayed
    query-by-query for failure isolation.

    The fault counters describe graceful degradation: ``degraded`` counts
    queries shed with :class:`ServiceDegraded` while the circuit breaker
    was open (each is also counted in ``failed``), and ``breaker_opens``
    counts open transitions.
    """

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    cancelled: int = 0
    batches: int = 0
    queries_batched: int = 0
    size_flushes: int = 0
    deadline_flushes: int = 0
    drain_flushes: int = 0
    fallbacks: int = 0
    max_batch_size: int = 0
    degraded: int = 0
    breaker_opens: int = 0
    #: Submit→resolve latency digest (count/total/min/max/p50/p90/p99),
    #: or ``None`` before any query has resolved.  Only snapshots handed
    #: out by :attr:`QueryService.stats` carry it.
    latency: HistogramSummary | None = None

    @property
    def mean_batch_size(self) -> float | None:
        """Average dispatched batch size, or ``None`` before any dispatch."""
        if self.batches == 0:
            return None
        return self.queries_batched / self.batches


class Submission:
    """One accepted query: its arrival order, window, and result future.

    ``seq`` is the global arrival sequence number — the position this
    query holds in the serial schedule the service is guaranteed to be
    equivalent to.  ``future`` is a plain
    :class:`concurrent.futures.Future` resolving to the query's hit list.
    """

    __slots__ = ("seq", "box", "dataset_ids", "future", "submitted_at")

    def __init__(
        self, seq: int, box: Box, dataset_ids: tuple[int, ...], submitted_at: float
    ) -> None:
        self.seq = seq
        self.box = box
        self.dataset_ids = dataset_ids
        self.future: Future[list[SpatialObject]] = Future()
        self.submitted_at = submitted_at

    def result(self, timeout: float | None = None) -> list[SpatialObject]:
        """Block until the query completes and return its hits."""
        return self.future.result(timeout)

    def exception(self, timeout: float | None = None) -> BaseException | None:
        """Block until the query completes and return its exception, if any."""
        return self.future.exception(timeout)

    def done(self) -> bool:
        """Whether the query has completed (successfully or not)."""
        return self.future.done()


class QueryService:
    """Serve a continuous stream of range queries from many clients.

    Parameters
    ----------
    odyssey:
        The engine to serve.  The service's dispatcher is one more client
        of the engine's gate lock; other threads may keep calling
        ``query``/``query_batch`` directly and simply interleave.
    max_batch:
        Size trigger: flush as soon as this many queries are queued.
    max_delay_ms:
        Deadline trigger: flush when the oldest queued query has waited
        this long, even if the batch is not full.  ``0`` disables
        coalescing delay entirely (every flush is whatever is already
        queued the moment the dispatcher looks).
    max_pending:
        Optional backpressure bound: with a value, :meth:`submit` blocks
        once this many queries are queued undispatched (the queue is
        bounded).  ``None`` (default) never blocks.
    """

    def __init__(
        self,
        odyssey: SpaceOdyssey,
        *,
        max_batch: int = 32,
        max_delay_ms: float = 5.0,
        max_pending: int | None = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_delay_ms < 0:
            raise ValueError("max_delay_ms must be non-negative")
        if max_pending is not None and max_pending < 1:
            raise ValueError("max_pending must be >= 1 (or None)")
        self._odyssey = odyssey
        self._max_batch = max_batch
        self._max_delay_s = max_delay_ms / 1000.0
        # Breaker state: touched only by the dispatcher thread, except for
        # the read-only `healthy` property, which tolerates a stale glimpse.
        self._consecutive_failed_batches = 0
        self._breaker_open_until: float | None = None
        self._queue: Queue = Queue(maxsize=max_pending or 0)
        # One lock orders arrivals: sequence numbers and queue insertion
        # happen atomically, so queue order IS arrival order.
        self._submit_lock = threading.Lock()
        self._seq = itertools.count()
        self._closed = False
        self._abort = False
        # Plain integer counters; `stats` freezes them into a ServiceStats.
        self._stats_lock = threading.Lock()
        self._counts = {f.name: 0 for f in fields(ServiceStats) if f.name != "latency"}
        self._latency = Histogram("serve.latency_seconds")
        self._dispatcher = threading.Thread(
            target=self._run, name="odyssey-serve-dispatcher", daemon=True
        )
        self._dispatcher.start()

    # ------------------------------------------------------------------ #
    # Client surface
    # ------------------------------------------------------------------ #

    def submit(self, box: Box, dataset_ids: Iterable[int]) -> Submission:
        """Enqueue one range query; returns immediately with its future.

        Raises :class:`ServiceClosed` if the service has been closed.
        Dataset ids are *not* validated here — an invalid query completes
        its future with the engine's exception, exactly as the sequential
        call would have raised it.
        """
        ids = tuple(dataset_ids)
        with self._submit_lock:
            if self._closed:
                raise ServiceClosed("cannot submit to a closed QueryService")
            submission = Submission(
                seq=next(self._seq),
                box=box,
                dataset_ids=ids,
                submitted_at=time.perf_counter(),
            )
            self._queue.put(submission)
        with self._stats_lock:
            self._counts["submitted"] += 1
        return submission

    def query(
        self,
        box: Box,
        dataset_ids: Iterable[int],
        timeout: float | None = None,
    ) -> list[SpatialObject]:
        """Submit one query and block until its result is available."""
        return self.submit(box, dataset_ids).result(timeout)

    @property
    def stats(self) -> ServiceStats:
        """A snapshot of the serving counters (latency digest included)."""
        with self._stats_lock:
            counts = dict(self._counts)
        summary = self._latency.summary()
        return ServiceStats(**counts, latency=summary if summary.count else None)

    @property
    def latency_histogram(self) -> Histogram:
        """The live submit→resolve latency histogram (mergeable across
        services by the engine's metrics registry)."""
        return self._latency

    @property
    def closed(self) -> bool:
        """Whether the service has stopped accepting submissions."""
        with self._submit_lock:
            return self._closed

    @property
    def odyssey(self) -> SpaceOdyssey:
        """The engine being served."""
        return self._odyssey

    @property
    def healthy(self) -> bool:
        """``False`` while the circuit breaker is shedding load."""
        return self._breaker_open_until is None

    def close(self, *, drain: bool = True, timeout: float | None = None) -> None:
        """Stop accepting submissions and shut the dispatcher down.

        ``drain=True`` executes everything already queued before
        returning; ``drain=False`` fails still-queued submissions with
        :class:`ServiceClosed` (the batch currently executing always
        finishes — the engine's gate lock is never broken mid-write).
        Idempotent; the engine remains fully usable afterwards.
        """
        with self._submit_lock:
            first_close = not self._closed
            self._closed = True
            if first_close:
                if not drain:
                    self._abort = True
                self._queue.put(_SHUTDOWN)
        self._dispatcher.join(timeout)
        if self._dispatcher.is_alive():
            raise TimeoutError("serve dispatcher did not stop within the timeout")

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(drain=exc_type is None)

    # ------------------------------------------------------------------ #
    # Dispatcher
    # ------------------------------------------------------------------ #

    def _run(self) -> None:
        """Dispatcher loop: coalesce arrivals, drain batches, until shutdown."""
        while True:
            first = self._queue.get()
            if first is _SHUTDOWN:
                break
            batch = [first]
            reason = FLUSH_SIZE  # what stopped collection if the loop runs out
            shutting_down = False
            deadline = time.monotonic() + self._max_delay_s
            while len(batch) < self._max_batch:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    reason = FLUSH_DEADLINE
                    break
                try:
                    item = self._queue.get(timeout=remaining)
                except Empty:
                    reason = FLUSH_DEADLINE
                    break
                if item is _SHUTDOWN:
                    reason = FLUSH_DRAIN
                    shutting_down = True
                    break
                batch.append(item)
            self._dispatch(batch, reason)
            if shutting_down:
                break
        # Post-shutdown: with drain the queue is empty by construction
        # (the sentinel is the last thing a closing service enqueues);
        # with abort, _dispatch already failed everything it saw, and
        # nothing can follow the sentinel.

    def _dispatch(self, batch: list[Submission], reason: str) -> None:
        """Execute one coalesced batch through ``query_batch`` and resolve
        its futures."""
        if self._abort:
            error = ServiceClosed("service closed before this query was executed")
            for submission in batch:
                self._resolve(submission, error=error)
            self._note_batch(batch, reason, fallbacks=0)
            return
        if self._shed_if_degraded(batch, reason):
            return
        fallbacks = 0
        failures: list[BaseException] = []
        with maybe_span(
            self._odyssey.tracer, "serve.batch", queries=len(batch), flush=reason
        ) as span:
            try:
                result = self._odyssey.query_batch([(s.box, s.dataset_ids) for s in batch])
            except BaseException as error:
                # Failure isolation: replay the batch sequentially (same
                # arrival order) so only the offending queries fail.  The
                # batch executor validates every dataset id before doing
                # any work, so a validation failure left no partial state;
                # a writer half that raised committed the queries before
                # the one it raised at, and that one already ran, so it
                # takes the error.  The prefix is taken off the error, so a
                # re-raise of the same instance never passes for a later
                # batch's.
                fallbacks = 1
                committed = vars(error).pop("committed_results", None)
                if committed is None or len(committed) >= len(batch):
                    failures = self._replay_sequentially(batch)
                else:
                    for submission, hits in zip(batch, committed):
                        self._resolve(submission, hits=hits)
                    self._resolve(batch[len(committed)], error=error)
                    failures = [error]
                    failures += self._replay_sequentially(batch[len(committed) + 1 :])
            else:
                for submission, hits in zip(batch, result.results):
                    self._resolve(submission, hits=hits)
            if span is not None:
                span.attributes.update(fallback=bool(fallbacks), failed=len(failures))
        self._breaker_record(any(isinstance(error, StorageError) for error in failures))
        self._note_batch(batch, reason, fallbacks=fallbacks)

    def _replay_sequentially(self, batch: list[Submission]) -> list[BaseException]:
        """The failure-isolation fallback: one engine call per submission.

        Returns the errors of the queries that failed.
        """
        failures = []
        for submission in batch:
            try:
                hits = self._odyssey.query(submission.box, submission.dataset_ids)
            except BaseException as exc:
                failures.append(exc)
                self._resolve(submission, error=exc)
            else:
                self._resolve(submission, hits=hits)
        return failures

    # ------------------------------------------------------------------ #
    # Graceful degradation
    # ------------------------------------------------------------------ #

    def _breaker_is_open(self) -> bool:
        """Whether the breaker currently sheds load (handles half-open)."""
        if self._breaker_open_until is None:
            return False
        if time.monotonic() >= self._breaker_open_until:
            # Half-open: let the next batch probe the engine.  A success
            # closes the breaker in _breaker_record; a failure re-opens.
            return False
        return True

    def _shed_if_degraded(self, batch: list[Submission], reason: str) -> bool:
        """Fail the whole batch with ServiceDegraded if the breaker is open."""
        if not self._breaker_is_open():
            return False
        error = ServiceDegraded(
            "circuit breaker open after repeated storage failures; "
            "query shed without execution"
        )
        for submission in batch:
            self._resolve(submission, error=error)
        with self._stats_lock:
            self._counts["degraded"] += len(batch)
        self._note_batch(batch, reason, fallbacks=0)
        return True

    def _breaker_record(self, storage_failed: bool) -> None:
        """Track consecutive batches with a storage failure; open/close the
        breaker."""
        if not storage_failed:
            self._consecutive_failed_batches = 0
            self._breaker_open_until = None
            return
        self._consecutive_failed_batches += 1
        if self._consecutive_failed_batches >= BREAKER_THRESHOLD:
            self._breaker_open_until = time.monotonic() + BREAKER_COOLDOWN_S
            with self._stats_lock:
                self._counts["breaker_opens"] += 1

    def _note_batch(self, batch: list[Submission], reason: str, fallbacks: int) -> None:
        counts = self._counts
        with self._stats_lock:
            counts["batches"] += 1
            counts["queries_batched"] += len(batch)
            counts[f"{reason}_flushes"] += 1
            counts["fallbacks"] += fallbacks
            counts["max_batch_size"] = max(counts["max_batch_size"], len(batch))

    def _resolve(
        self,
        submission: Submission,
        hits: list[SpatialObject] | None = None,
        error: BaseException | None = None,
    ) -> None:
        """Route one outcome to its future (tolerating client-side cancel)."""
        try:
            if error is not None:
                submission.future.set_exception(error)
                outcome = "failed"
            else:
                submission.future.set_result(hits if hits is not None else [])
                outcome = "completed"
        except InvalidStateError:
            # The client cancelled the future while it was queued.  The
            # query still executed (the arrival-order schedule is never
            # edited after the fact); only the delivery is dropped.
            outcome = "cancelled"
        self._latency.observe(time.perf_counter() - submission.submitted_at)
        with self._stats_lock:
            self._counts[outcome] += 1
