"""The four workloads: ``explore``, ``converged``, ``serve``, ``durable``.

Every workload exposes the same three steps to the harness:

* ``setup()`` — ingest the fixed dataset and open the engine (plus the
  warm-up to the fixed point where the workload calls for one); timed by
  the harness as ``setup_s``;
* ``measure()`` — one *pass*: a fixed, deterministic sequence of
  operations, each timed on its own.  Passes are identical, so their
  answer sizes and (single-threaded workloads) I/O counts must repeat;
* ``verify()`` — correctness, outside the timed passes.

Engine and ``serve()`` configuration are the defaults everywhere;
workloads differ only in their inputs, backend and buffer-pool size.
Every temporary directory is created under ``tempfile.tempdir``, which
the harness points into the benchmark's own ``out/`` directory.
"""

from __future__ import annotations

import gc
import os
import shutil
import struct
import tempfile
import threading
import time
from dataclasses import dataclass, field

from repro import BruteForceScan, NeuroscienceDatasetGenerator, SpaceOdyssey
from repro.data import spatial_object_codec
from repro.data.generator import brain_universe

from pbench.hostclock import INTERVAL, HostClock
from pbench.inputs import DATA_SEED, Scale, ScanOracle, answer_keys, ingest, make_queries

#: Requests the ``serve`` load generator keeps outstanding: 64 waiting
#: callers multiplexed on one thread, i.e. two full default batches, so
#: the service's two-in-flight pipeline has work for both stages.
SERVE_WINDOW = 64
SERVE_SAMPLES = 5  # host-speed kernel samples on each side of a serve pass

IO_FIELDS = ("pages_read", "seeks", "pages_written", "io_seconds", "retries")
BUFFER_FIELDS = ("hits", "misses", "evictions", "decoded_hits", "decoded_misses")


@dataclass
class PassSample:
    """What one pass measured."""

    latencies: list[float]  # seconds, one per operation, in operation order
    host_factor: float  # reference-host seconds per clocked second during the pass
    hits: list[int]  # answer size per operation
    io: dict  # IO_FIELDS of Disk.stats_snapshot(), accumulated over the pass
    buffer: dict  # BUFFER_FIELDS of buffer_pool.counters(), over the pass
    bytes_written_life: int  # ingest + everything written since, journal included
    bytes_on_disk: int  # every file at the end of the pass, journal included
    wall: float  # seconds the operations took
    extra: dict = field(default_factory=dict)
    reports: list = field(default_factory=list)  # QueryReports (traced pass only)


class Counters:
    """Deltas of a disk's I/O statistics and buffer-pool counters."""

    def __init__(self, disk) -> None:
        self._disk = disk
        self._io = disk.stats_snapshot()
        self._buffer = disk.buffer_pool.counters()

    def io(self) -> dict:
        delta = self._disk.stats_snapshot().delta_since(self._io)
        return {name: getattr(delta, name) for name in IO_FIELDS}

    def buffer(self) -> dict:
        delta = self._disk.buffer_pool.counters().delta_since(self._buffer)
        return {name: getattr(delta, name) for name in BUFFER_FIELDS}


def disk_bytes(disk) -> int:
    """Bytes every page file of ``disk`` occupies."""
    return sum(disk.num_pages(name) for name in disk.list_files()) * disk.page_size


def closed_loop(engine, queries, host: HostClock, collect_reports: bool, after_each=None):
    """One caller: the next query is sent when the previous one returned.

    Between queries, every ``INTERVAL`` seconds, the host-speed kernel is timed.
    """
    perf = time.perf_counter
    latencies = []
    hits = []
    reports = []
    host.sample()
    due = perf() + INTERVAL
    for box, ids in queries:
        start = perf()
        answer = engine.query(box, ids)
        end = perf()
        latencies.append(end - start)
        hits.append(len(answer))
        if collect_reports:
            reports.append(engine.last_report)
        if after_each is not None:
            after_each()
        if end >= due:
            host.sample()
            due = perf() + INTERVAL
    host.sample()
    return latencies, hits, reports


class Workload:
    """State and steps shared by the four workloads."""

    name = ""
    single_threaded = True

    def __init__(self, scale: Scale, seed: int, pool_pages: int) -> None:
        self.scale = scale
        self.seed = seed
        self.pool_pages = pool_pages
        universe = brain_universe()
        self._generator = NeuroscienceDatasetGenerator(universe=universe, seed=DATA_SEED)
        self.raw_user_bytes = (
            scale.n_datasets
            * scale.objects_per_dataset
            * spatial_object_codec(universe.dimension).record_size
        )
        self.queries: list[tuple] = []
        self.exact: list[frozenset] = []
        self.suite = None
        self.engine = None
        self.host = HostClock()
        self.ingest_times: list[float] = []
        self.ingest_bytes = 0

    def _make_queries(self, count, *, volume_fraction, datasets_per_query, distribution):
        return make_queries(
            self._generator,
            range(self.scale.n_datasets),
            count,
            seed=self.seed,
            volume_fraction=volume_fraction,
            datasets_per_query=datasets_per_query,
            distribution=distribution,
        )

    def new_suite(self):
        """Ingest the fixed dataset the way this workload stores it."""
        return ingest(self.scale, self.pool_pages)

    def _ingest(self) -> None:
        start = time.perf_counter()
        self.suite = self.new_suite()
        self.ingest_times.append(time.perf_counter() - start)
        disk = self.suite.disk
        self.ingest_bytes = disk.stats_snapshot().pages_written * disk.page_size

    # -- steps ------------------------------------------------------------- #

    def setup(self) -> None:
        raise NotImplementedError

    def measure(self, collect_reports: bool = False) -> PassSample:
        raise NotImplementedError

    def discard(self) -> None:
        """Release what ``setup`` and ``measure`` hold."""
        self.suite = None
        self.engine = None

    def direct_rates(self) -> tuple[float, float] | None:
        """Rates of the engine without the frontend (``serve`` only)."""
        return None

    def prepare_checks(self) -> None:
        """The exact answer of every operation, from a scan of the raw files."""
        oracle = ScanOracle(self.suite)
        self.exact = [oracle.keys(box, ids) for box, ids in self.queries]

    def verify(self, first: PassSample) -> list[str]:
        """Answers of a pass against the exact ones; returns failure messages.

        Every operation's answer size is compared with the scan oracle,
        ``sampled_checks`` operations are re-executed on the final engine
        and compared key by key, and a few of those also against the
        repository's ``BruteForceScan``.
        """
        queries = self.queries
        exact = self.exact
        failures = []
        for index, (got, want) in enumerate(zip(first.hits, exact)):
            if got != len(want):
                failures.append(f"operation {index}: {got} hits, exact answer has {len(want)}")
        sampled = range(0, len(queries), max(1, len(queries) // self.scale.sampled_checks))
        for index in sampled:
            box, ids = queries[index]
            if answer_keys(self.engine.query(box, ids)) != exact[index]:
                failures.append(f"operation {index}: answer differs from the scan oracle")
        brute = BruteForceScan(self.suite.fork().catalog)
        for index in sampled[:: max(1, len(sampled) // self.scale.brute_force_checks)]:
            box, ids = queries[index]
            if answer_keys(brute.query(box, ids)) != exact[index]:
                failures.append(f"operation {index}: scan oracle differs from BruteForceScan")
        return failures


class Explore(Workload):
    """Cold start: every pass explores from scratch on a fresh fork."""

    name = "explore"

    def __init__(self, scale, seed):
        super().__init__(scale, seed, scale.small_pool_pages)
        self.queries = self._make_queries(
            scale.explore_queries, volume_fraction=1e-4, datasets_per_query=3, distribution="zipf"
        )

    def setup(self):
        self._ingest()
        self.engine = SpaceOdyssey(self.suite.fork().catalog)

    def measure(self, collect_reports=False):
        self.engine = engine = SpaceOdyssey(self.suite.fork().catalog)
        disk = engine.disk
        counters = Counters(disk)
        gc.collect()
        mark = len(self.host.samples)
        latencies, hits, reports = closed_loop(engine, self.queries, self.host, collect_reports)
        io = counters.io()
        return PassSample(
            latencies=latencies,
            host_factor=self.host.factor_since(mark),
            hits=hits,
            io=io,
            buffer=counters.buffer(),
            bytes_written_life=self.ingest_bytes + io["pages_written"] * disk.page_size,
            bytes_on_disk=disk_bytes(disk),
            wall=sum(latencies),
            reports=reports,
        )


class Converged(Workload):
    """The read path at a fixed point: the same engine replays one query set."""

    name = "converged"

    def __init__(self, scale, seed, *, pool_pages=None, n_queries=None, volume_fraction=1e-3):
        super().__init__(scale, seed, pool_pages or scale.small_pool_pages)
        # Pairs sit below the engine's |C| >= 3 merge rule: the merger is
        # bypassed by the input, not by a switch.
        self.queries = self._make_queries(
            n_queries or scale.converged_queries,
            volume_fraction=volume_fraction,
            datasets_per_query=2,
            distribution="uniform",
        )
        self.warm_passes = 0

    def setup(self):
        self._ingest()
        self.engine = engine = SpaceOdyssey(self.suite.catalog)
        # Warm up: replay the set until a whole pass refines nothing.
        self.warm_passes = 0
        refinements = 1
        while refinements:
            refinements = 0
            for box, ids in self.queries:
                engine.query(box, ids)
                refinements += engine.last_report.refinements
            self.warm_passes += 1

    def measure(self, collect_reports=False):
        disk = self.engine.disk
        counters = Counters(disk)
        gc.collect()
        mark = len(self.host.samples)
        latencies, hits, reports = closed_loop(
            self.engine, self.queries, self.host, collect_reports
        )
        return PassSample(
            latencies=latencies,
            host_factor=self.host.factor_since(mark),
            hits=hits,
            io=counters.io(),
            buffer=counters.buffer(),
            bytes_written_life=disk.stats_snapshot().pages_written * disk.page_size,
            bytes_on_disk=disk_bytes(disk),
            wall=sum(latencies),
            reports=reports,
        )


class Serve(Converged):
    """The serving frontend over a converged engine whose cache fits.

    Closed loop: one generator thread keeps ``SERVE_WINDOW`` requests
    outstanding and sends the next one as soon as any of them resolves.
    Every pass starts from a dropped buffer pool (the paper's protocol),
    so it reads each page of its working set exactly once: a read cost
    that is small, never zero, and independent of how requests happened
    to be batched.
    """

    name = "serve"
    single_threaded = False

    def __init__(self, scale, seed):
        super().__init__(
            scale,
            seed,
            pool_pages=scale.serve_pool_pages,
            n_queries=scale.serve_requests,
            volume_fraction=1e-4,
        )
        self.service = None

    def setup(self):
        super().setup()
        self.service = self.engine.serve()

    def discard(self):
        if self.service is not None:
            self.service.close()
            self.service = None
        super().discard()

    def measure(self, collect_reports=False):
        service = self.service
        disk = self.engine.disk
        requests = self.queries
        perf = time.perf_counter
        submitted_at = [0.0] * len(requests)
        resolved_at = [0.0] * len(requests)
        submissions = []
        window = threading.Semaphore(SERVE_WINDOW)

        def resolver(index):
            def resolved(_future):
                resolved_at[index] = perf()
                window.release()

            return resolved

        disk.clear_cache()
        counters = Counters(disk)
        stats_before = service.stats
        gc.collect()
        # The service's threads cannot be paused for a kernel sample, so a
        # pass is filed under the samples right before and right after it.
        mark = len(self.host.samples)
        self.host.sample(SERVE_SAMPLES)
        for index, (box, ids) in enumerate(requests):
            window.acquire()
            submitted_at[index] = perf()
            submission = service.submit(box, ids)
            submission.future.add_done_callback(resolver(index))
            submissions.append(submission)
        failed = 0
        wrong = 0
        hits = []
        for submission in submissions:
            submission.future.exception()  # wait; the outcome is read below
        self.host.sample(SERVE_SAMPLES)
        for index, submission in enumerate(submissions):
            if submission.future.exception() is not None:
                failed += 1
                hits.append(-1)
                continue
            answer = submission.future.result()
            hits.append(len(answer))
            if answer_keys(answer) != self.exact[index]:
                wrong += 1
        stats = service.stats
        return PassSample(
            latencies=[done - sent for sent, done in zip(submitted_at, resolved_at)],
            host_factor=self.host.factor_since(mark),
            hits=hits,
            io=counters.io(),
            buffer=counters.buffer(),
            bytes_written_life=disk.stats_snapshot().pages_written * disk.page_size,
            bytes_on_disk=disk_bytes(disk),
            wall=max(resolved_at) - submitted_at[0],
            extra={
                # Futures that raised, answers that differ from the exact
                # one, and requests the service did not run in a batch.
                "failed": failed,
                "wrong": wrong,
                "anomalies": sum(
                    getattr(stats, name) - getattr(stats_before, name)
                    for name in ("cancelled", "fallbacks", "degraded")
                ),
                "batches": stats.batches - stats_before.batches,
                "queries_batched": stats.queries_batched - stats_before.queries_batched,
                "size_flushes": stats.size_flushes - stats_before.size_flushes,
                "submitted_at": submitted_at,
            },
        )

    def direct_rates(self):
        """Sequential ``query()`` and ``query_batch(32)`` rates on the same set."""
        engine = self.engine
        queries = self.queries

        def one_by_one():
            for box, ids in queries:
                engine.query(box, ids)

        def in_batches():
            for offset in range(0, len(queries), 32):
                engine.query_batch(queries[offset : offset + 32])

        rates = []
        for replay in (one_by_one, in_batches):
            engine.disk.clear_cache()
            gc.collect()
            mark = len(self.host.samples)
            self.host.sample(SERVE_SAMPLES)
            start = time.perf_counter()
            replay()
            elapsed = time.perf_counter() - start
            self.host.sample(SERVE_SAMPLES)
            rates.append(len(queries) / (elapsed * self.host.factor_since(mark)))
        return rates[0], rates[1]


class Durable(Workload):
    """Real files, a journal, a crash, recovery, and probes after it."""

    name = "durable"

    def __init__(self, scale, seed):
        super().__init__(scale, seed, scale.small_pool_pages)
        self.queries = self._make_queries(
            scale.durable_queries + scale.durable_probes,
            volume_fraction=1e-4,
            datasets_per_query=3,
            distribution="zipf",
        )
        self._clone_dir = None
        self._journal_path = ""

    def new_suite(self):
        return ingest(
            self.scale,
            self.pool_pages,
            directory=tempfile.mkdtemp(prefix="durable-master-"),
            compression="zlib",
        )

    def setup(self):
        self._ingest()
        self._open()

    def discard(self):
        self._drop_clone()
        super().discard()

    def _drop_clone(self):
        self.engine = None
        if self._clone_dir is not None:
            shutil.rmtree(self._clone_dir, ignore_errors=True)
            self._clone_dir = None

    def _open(self):
        """A journaled engine over a fresh clone of the raw page files."""
        self._drop_clone()
        fork = self.suite.fork()
        self._clone_dir = str(fork.disk.backend.root)
        self._journal_path = os.path.join(self._clone_dir, "manifest.journal")
        self.engine = SpaceOdyssey(fork.catalog, journal=self._journal_path)

    def measure(self, collect_reports=False):
        self._open()
        engine = self.engine
        journal_path = self._journal_path
        n_before = self.scale.durable_queries
        journal_bytes = journal_size = os.path.getsize(journal_path)

        def poll_journal():
            # One query is one commit: an append grows the file, a
            # compaction replaces it.  Polled outside the per-query clock.
            nonlocal journal_bytes, journal_size
            size = os.path.getsize(journal_path)
            journal_bytes += size - journal_size if size > journal_size else size
            journal_size = size

        counters = Counters(engine.disk)
        gc.collect()
        mark = len(self.host.samples)
        latencies, hits, reports = closed_loop(
            engine, self.queries[:n_before], self.host, collect_reports, poll_journal
        )
        summary = engine.summary()
        io = counters.io()
        buffer = counters.buffer()
        # Crash: the engine is dropped without any shutdown and the
        # journal ends in a record that claims more bytes than it has.
        self.engine = engine = counters = None
        with open(journal_path, "ab") as handle:
            handle.write(struct.pack("<II", 4096, 0) + b"\0" * 2048)
        journal_size = os.path.getsize(journal_path)

        start = time.perf_counter()
        self.engine = engine = SpaceOdyssey.recover(journal_path)
        recover_s = time.perf_counter() - start
        poll_journal()
        summary_restored = engine.summary() == summary
        probe_latencies, probe_hits, probe_reports = closed_loop(
            engine, self.queries[n_before:], self.host, collect_reports, poll_journal
        )
        # The first caller after the crash waited for the recovery.
        probe_latencies[0] += recover_s
        latencies += probe_latencies
        # recover() built a new Disk: its totals are the replay plus the probes.
        disk = engine.disk
        stats = disk.stats_snapshot()
        pool = disk.buffer_pool.counters()
        io = {name: io[name] + getattr(stats, name) for name in IO_FIELDS}
        buffer = {name: buffer[name] + getattr(pool, name) for name in BUFFER_FIELDS}
        return PassSample(
            latencies=latencies,
            host_factor=self.host.factor_since(mark),
            hits=hits + probe_hits,
            io=io,
            buffer=buffer,
            bytes_written_life=self.ingest_bytes
            + io["pages_written"] * disk.page_size
            + journal_bytes,
            bytes_on_disk=sum(
                os.path.getsize(os.path.join(self._clone_dir, entry))
                for entry in os.listdir(self._clone_dir)
            ),
            wall=sum(latencies),
            extra={
                "recover_s": recover_s,
                "journal_bytes": journal_bytes,
                "summary_restored": summary_restored,
                "final_summary": engine.summary(),
            },
            reports=reports + probe_reports,
        )

    def verify(self, first):
        failures = super().verify(first)
        if not first.extra["summary_restored"]:
            failures.append("recovered summary() differs from the pre-crash one")
        # The never-crashed reference: the same operations, no journal, no
        # crash.  (The probes after recovery were compared with the exact
        # answers above; this pins the adaptive state they ran against.)
        reference = SpaceOdyssey(self.suite.fork().catalog)
        for box, ids in self.queries:
            reference.query(box, ids)
        if reference.summary() != first.extra["final_summary"]:
            failures.append("state after recovery + probes differs from a never-crashed engine")
        return failures


WORKLOADS = {cls.name: cls for cls in (Explore, Converged, Serve, Durable)}
