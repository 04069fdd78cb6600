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
preserved.

Under storage faults the service degrades gracefully instead of hanging
or crash-looping:

* **Transient errors retry with backoff.**  A batch that raises is
  replayed query by query (above); each query of that replay that fails
  with a transient storage error (:func:`repro.storage.errors.is_transient`)
  is retried in place up to ``batch_retries`` times with bounded
  exponential backoff before its error is surfaced.
  (The backend usually absorbs transient faults itself via
  :class:`~repro.storage.retry.RetryingBackend`; service-level retry is
  the second line of defence once the backend's budget is exhausted.)
* **A circuit breaker sheds load.**  ``breaker_threshold`` consecutive
  batches ending with failed queries open the breaker: subsequent
  batches are failed *immediately* with :class:`ServiceDegraded` — a
  typed error, never a hang — without touching the engine, until
  ``breaker_cooldown_ms`` elapses.  The next batch is then let through
  (half-open); success closes the breaker.
* **Health is observable.**  :attr:`QueryService.healthy` reports the
  breaker state and :class:`ServiceStats` carries the fault counters
  (``retries``, ``degraded``, ``breaker_opens``).

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
from repro.storage.errors import is_transient


class ServiceClosed(RuntimeError):
    """Submitting to a closed service, or a pending query dropped by abort."""


class ServiceDegraded(RuntimeError):
    """The circuit breaker is open: the query was shed, not executed.

    Raised *to the submission's future* (a typed, immediate outcome —
    never a hang) while the service rides out a run of storage failures.
    The breaker closes again after ``breaker_cooldown_ms`` once a batch
    succeeds.
    """


#: Queue sentinel that tells the dispatcher to exit after the current drain.
_SHUTDOWN = object()

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

    The fault counters describe graceful degradation: ``retries`` counts
    service-level retries of transiently-failed work (backoff included),
    ``degraded`` counts queries shed with :class:`ServiceDegraded` while
    the circuit breaker was open (each is also counted in ``failed``),
    and ``breaker_opens`` counts open transitions.
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
    retries: int = 0
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
    batch_retries:
        How many times each query of a sequential fallback is retried at
        the service level after a transient failure before the failure is
        surfaced.  ``0`` disables service-level retry.
    retry_backoff_ms:
        Base delay of the exponential backoff between service-level
        retries (doubled per attempt, capped at ``retry_backoff_max_ms``).
    retry_backoff_max_ms:
        Ceiling of the exponential backoff.  The wait itself is
        interruptible: it is an ``Event.wait``, so an abort
        (``close(drain=False)``) wakes the dispatcher immediately
        instead of letting it finish the full delay.
    breaker_threshold:
        Open the circuit breaker after this many *consecutive* batches
        ended with failed queries; while open, queries are shed with
        :class:`ServiceDegraded`.  ``None`` disables the breaker.
    breaker_cooldown_ms:
        How long the breaker sheds load before letting a probe batch
        through (half-open).
    sleep:
        Injectable sleep function (tests use a recording stub so retry
        backoff does not slow the suite).
    """

    def __init__(
        self,
        odyssey: SpaceOdyssey,
        *,
        max_batch: int = 32,
        max_delay_ms: float = 5.0,
        max_pending: int | None = None,
        batch_retries: int = 2,
        retry_backoff_ms: float = 1.0,
        retry_backoff_max_ms: float = 100.0,
        breaker_threshold: int | None = 5,
        breaker_cooldown_ms: float = 100.0,
        sleep=time.sleep,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_delay_ms < 0:
            raise ValueError("max_delay_ms must be non-negative")
        if max_pending is not None and max_pending < 1:
            raise ValueError("max_pending must be >= 1 (or None)")
        if batch_retries < 0:
            raise ValueError("batch_retries must be non-negative")
        if retry_backoff_ms < 0:
            raise ValueError("retry_backoff_ms must be non-negative")
        if retry_backoff_max_ms < 0:
            raise ValueError("retry_backoff_max_ms must be non-negative")
        if breaker_threshold is not None and breaker_threshold < 1:
            raise ValueError("breaker_threshold must be >= 1 (or None)")
        if breaker_cooldown_ms < 0:
            raise ValueError("breaker_cooldown_ms must be non-negative")
        self._odyssey = odyssey
        self._max_batch = max_batch
        self._max_delay_s = max_delay_ms / 1000.0
        self._batch_retries = batch_retries
        self._retry_backoff_s = retry_backoff_ms / 1000.0
        self._retry_backoff_max_s = retry_backoff_max_ms / 1000.0
        self._breaker_threshold = breaker_threshold
        self._breaker_cooldown_s = breaker_cooldown_ms / 1000.0
        # Backoff waits block on this event rather than sleeping, so an
        # abort (close(drain=False)) wakes the dispatcher mid-backoff.
        # An injected ``sleep`` stub (tests) is honoured as-is.
        self._abort_event = threading.Event()
        self._sleep = self._abort_event.wait if sleep is time.sleep else sleep
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
                    self._abort_event.set()
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
        failed = 0
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
                # the one it raised at, and that one already ran.  The
                # prefix is taken off the error, so a re-raise of the same
                # instance never passes for a later batch's.
                fallbacks = 1
                committed = vars(error).pop("committed_results", None)
                if committed is None or len(committed) >= len(batch):
                    failed = self._replay_sequentially(batch)
                else:
                    for submission, hits in zip(batch, committed):
                        self._resolve(submission, hits=hits)
                    failed = self._replay_sequentially(batch[len(committed) :], error)
            else:
                for submission, hits in zip(batch, result.results):
                    self._resolve(submission, hits=hits)
            if span is not None:
                span.attributes.update(fallback=bool(fallbacks), failed=failed)
        self._breaker_record(failed)
        self._note_batch(batch, reason, fallbacks=fallbacks)

    def _replay_sequentially(
        self, batch: list[Submission], failure: BaseException | None = None
    ) -> int:
        """The failure-isolation fallback: one engine call per submission.

        Each query that fails transiently is retried with backoff before
        its error is surfaced.  ``failure``, if given, is the first
        query's error from the batch: it already ran, so it is run again
        only as a retry.  Returns how many queries failed.
        """
        failed = 0
        for submission in batch:
            try:
                hits = self._retry_transient(
                    lambda: self._odyssey.query(
                        submission.box, submission.dataset_ids
                    ),
                    failure,
                )
            except BaseException as exc:
                failed += 1
                self._resolve(submission, error=exc)
            else:
                self._resolve(submission, hits=hits)
            failure = None
        return failed

    # ------------------------------------------------------------------ #
    # Graceful degradation
    # ------------------------------------------------------------------ #

    def _retry_transient(self, call, failure: BaseException | None = None):
        """Run ``call``, retrying transient storage errors with backoff.

        ``failure``, if given, is the error of a first attempt already made.
        """
        attempt = 0
        while True:
            if failure is None:
                try:
                    return call()
                except BaseException as exc:
                    failure = exc
            if attempt >= self._batch_retries or not is_transient(failure):
                raise failure
            with self._stats_lock:
                self._counts["retries"] += 1
            self._sleep(
                min(
                    self._retry_backoff_s * (2**attempt),
                    self._retry_backoff_max_s,
                )
            )
            if self._abort_event.is_set():
                # Aborted mid-backoff: surface the original failure
                # instead of burning more attempts during shutdown.
                raise failure
            attempt += 1
            failure = None

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

    def _breaker_record(self, failed_queries: int) -> None:
        """Track consecutive failed batches; open/close the breaker."""
        if self._breaker_threshold is None:
            return
        if failed_queries == 0:
            self._consecutive_failed_batches = 0
            self._breaker_open_until = None
            return
        self._consecutive_failed_batches += 1
        if self._consecutive_failed_batches >= self._breaker_threshold:
            self._breaker_open_until = time.monotonic() + self._breaker_cooldown_s
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
