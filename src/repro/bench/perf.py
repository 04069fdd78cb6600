"""Machine-readable performance snapshots (``repro bench --json``).

Unlike the figure experiments (whose metric is *simulated* disk time), a
perf snapshot measures the library's real wall-clock execution speed — the
numbers a contributor watches when optimising the engine itself — and
writes them as one JSON document so the repository can accumulate a
performance trajectory across commits (CI uploads a ``BENCH_<scale>.json``
artifact on every push).

One snapshot covers, per phase:

* **build** — generating the synthetic suite (wall seconds, raw page count);
* **first_touch** — the expensive first query pass that performs in-situ
  initial partitioning of every dataset;
* **steady_scalar** — a steady-state pass over the converged engine with
  the columnar hot path disabled (the scalar reference implementation);
* **steady_columnar** — the same pass with the columnar-native engine;
* **steady_batch** — the same workload through ``query_batch`` in chunks;
* **steady_parallel** — a worker-count sweep of the same batched workload
  through ``query_batch(..., workers=K)`` over a sharded buffer pool, one
  entry per requested ``K`` (``workers=1`` is the serial-batch baseline
  the parallel speedup is computed against); ``--executor process``
  drives the sweep through the GIL-free process pool instead of threads;
* **concurrent_batches** — the epoch-overlap phase: the batched workload
  through ``query_batch(..., snapshot=True)`` once from a single thread
  and once from two threads concurrently (each thread runs the full
  chunked pass).  The recorded ``overlap_ratio`` — concurrent wall over
  single wall — is the degree to which the lock-free MVCC read phase
  actually overlaps: 1.0 is perfect overlap, 2.0 is fully serialized;
* **steady_serve** — the serving phase: the workload is offered to a
  :class:`~repro.serve.QueryService` (dynamic batching with size and
  deadline triggers) under an **open-loop arrival process** from several
  client threads, reporting sustained QPS, p50/p99 latency and the
  batcher's flush behaviour — the metric a multi-tenant serving story is
  judged on.  The offered rate defaults to a fixed utilization of the
  measured batch-mode capacity so the phase records latency under load
  rather than at saturation;
* **fault_tolerance** (opt-in via ``--faults``) — the robustness phase:
  the same workload once through a seeded
  :class:`~repro.storage.faults.FaultInjectingBackend` behind the
  :class:`~repro.storage.retry.RetryingBackend` (recording faults
  injected, retries, corrupt reads detected and client-visible errors,
  plus the wall overhead against a fault-free pass), then a crash /
  recovery drill: a journaled engine is crashed mid-workload on a page
  mutation, :meth:`SpaceOdyssey.recover` replays the committed prefix,
  and the recovered engine resumes the remaining queries;

plus the derived speedups (columnar vs scalar, batch vs scalar, best
parallel worker count vs ``workers=1``) and page counts of every on-disk
structure after convergence.  ``--repeats N`` re-times each steady phase
N times and attaches ``{mean,std,min,max}_seconds`` stats next to the
legacy best-of ``wall_seconds``; ``--compression zlib`` builds the suite
on compressed raw files so decode overhead is part of the trajectory.
"""

from __future__ import annotations

import json
import platform
import tempfile
import threading
import time
from dataclasses import asdict, replace
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.bench.runner import generate_workload
from repro.bench.scales import ExperimentScale, get_scale
from repro.core.config import OdysseyConfig
from repro.core.odyssey import SpaceOdyssey
from repro.data.dataset import Dataset, DatasetCatalog
from repro.data.spatial_object import spatial_object_codec
from repro.data.suite import BenchmarkSuite, build_benchmark_suite
from repro.obs import write_trace
from repro.serve import run_open_loop
from repro.storage.backend import StorageBackend
from repro.storage.disk import Disk
from repro.storage.errors import SimulatedCrash
from repro.storage.faults import FaultInjectingBackend, FaultPlan
from repro.storage.pagedfile import PagedFile
from repro.storage.retry import RetryingBackend, RetryPolicy


def default_snapshot_path(scale: str | ExperimentScale) -> Path:
    """The conventional snapshot file name for one scale."""
    return Path(f"BENCH_{get_scale(scale).name}.json")


# The steady-state timing protocol — shared with the acceptance-bar tests
# in ``benchmarks/test_micro.py`` so the CI smoke and the BENCH_*.json
# trajectory can never measure different things.


def timed(fn) -> float:
    """Wall seconds of one call."""
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def best_of(repeats: int, fn) -> float:
    """The fastest of ``repeats`` calls of a timing function."""
    return min(fn() for _ in range(max(1, repeats)))


def timing_stats(repeats: int, fn) -> dict[str, Any]:
    """Mean ± std (and extremes) of ``repeats`` calls of a timing function.

    The workload generators are seeded, so repeated passes measure the
    identical query sequence — the spread is scheduler and allocator
    noise, which is exactly what the ``std_seconds`` field quantifies.
    Snapshots keep reporting best-of in their legacy ``wall_seconds``
    keys (robust to one-sided noise) and attach these stats alongside.
    """
    runs = [fn() for _ in range(max(1, repeats))]
    mean = sum(runs) / len(runs)
    variance = sum((run - mean) ** 2 for run in runs) / len(runs)
    return {
        "runs": len(runs),
        "mean_seconds": mean,
        "std_seconds": variance**0.5,
        "min_seconds": min(runs),
        "max_seconds": max(runs),
    }


def sequential_pass(odyssey: SpaceOdyssey, workload) -> None:
    """One sequential pass over a workload (the timed unit of every bar)."""
    for query in workload:
        odyssey.query(query.box, query.dataset_ids)


def measure_concurrent_batches(
    odyssey: SpaceOdyssey,
    workload,
    *,
    batch_size: int,
    repeats: int = 3,
    threads: int = 2,
) -> tuple[float, float]:
    """Time the epoch-snapshot overlap protocol on a converged engine.

    Returns ``(single_seconds, concurrent_seconds)``: the best-of wall
    time of one chunked ``query_batch(..., snapshot=True)`` pass from a
    single thread, and the best-of wall time for ``threads`` threads each
    running that same pass concurrently (released together by a barrier).
    Perfectly overlapping read phases keep the ratio near 1.0; a fully
    serialized engine pushes it toward ``threads``.

    Shared with the acceptance-bar smoke in ``benchmarks/test_micro.py``
    (the ``REPRO_EPOCH_OVERLAP_MAX`` bar) so CI and the ``BENCH_*.json``
    trajectory measure the same thing.
    """

    def snapshot_pass() -> None:
        for start in range(0, len(workload), batch_size):
            odyssey.query_batch(workload[start : start + batch_size], snapshot=True)

    snapshot_pass()  # warm the snapshot path off the clock
    single_seconds = best_of(repeats, lambda: timed(snapshot_pass))

    def concurrent_pass() -> float:
        gate = threading.Barrier(threads + 1)
        errors: list[BaseException] = []

        def worker() -> None:
            try:
                gate.wait()
                snapshot_pass()
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        pool = [threading.Thread(target=worker) for _ in range(threads)]
        for thread in pool:
            thread.start()
        gate.wait()
        begin = time.perf_counter()
        for thread in pool:
            thread.join()
        elapsed = time.perf_counter() - begin
        if errors:
            raise errors[0]
        return elapsed

    concurrent_pass()  # warm
    concurrent_seconds = best_of(repeats, concurrent_pass)
    return single_seconds, concurrent_seconds


def measure_serving(
    odyssey: SpaceOdyssey,
    workload,
    *,
    rate_qps: float,
    n_clients: int = 4,
    max_batch: int = 32,
    max_delay_ms: float = 5.0,
    workers: int | None = None,
) -> dict[str, Any]:
    """One open-loop serving measurement, returned as a JSON-ready phase.

    Starts a :class:`~repro.serve.QueryService` over the (already
    converged) engine, offers the workload at ``rate_qps`` from
    ``n_clients`` submitter threads, and merges the open-loop report
    (sustained QPS, p50/p99 latency) with the service's batching stats
    (flush-trigger breakdown, mean/max batch size).
    """
    service = odyssey.serve(
        max_batch=max_batch, max_delay_ms=max_delay_ms, workers=workers
    )
    try:
        report = run_open_loop(
            service, workload, rate_qps=rate_qps, n_clients=n_clients
        )
    finally:
        service.close()
    stats = service.stats
    phase = report.to_json()
    phase.update(
        {
            "max_batch": max_batch,
            "max_delay_ms": max_delay_ms,
            "workers": workers or 1,
            "batches": stats.batches,
            "mean_batch_size": stats.mean_batch_size,
            "max_batch_size": stats.max_batch_size,
            "size_flushes": stats.size_flushes,
            "deadline_flushes": stats.deadline_flushes,
            "drain_flushes": stats.drain_flushes,
            "fallbacks": stats.fallbacks,
        }
    )
    return phase


def _fork_with_backend(
    suite: BenchmarkSuite, wrap: Callable[[StorageBackend], StorageBackend]
) -> BenchmarkSuite:
    """An independent suite copy whose cloned backend is decorated by ``wrap``."""
    disk = Disk(
        backend=wrap(suite.disk.backend.clone()),
        model=suite.disk.model,
        buffer_pages=suite.disk.buffer_pool.capacity_pages,
        buffer_shards=getattr(suite.disk.buffer_pool, "n_shards", 1),
    )
    datasets = [
        Dataset(
            dataset_id=dataset.dataset_id,
            name=dataset.name,
            universe=dataset.universe,
            n_objects=dataset.n_objects,
            disk=disk,
            file=PagedFile(disk, dataset.file.name, spatial_object_codec(dataset.dimension)),
        )
        for dataset in suite.datasets
    ]
    return BenchmarkSuite(
        disk=disk,
        catalog=DatasetCatalog(datasets),
        generator=suite.generator,
        seed=suite.seed,
    )


def measure_fault_tolerance(
    suite: BenchmarkSuite,
    workload,
    *,
    seed: int = 23,
    config: OdysseyConfig | None = None,
    crash_after_mutations: int = 200,
) -> dict[str, Any]:
    """The robustness phase: a fault campaign and a crash/recovery drill.

    The campaign runs the workload on a fork whose backend injects seeded
    transient errors, corrupted reads and torn writes under the bounded
    retry layer, and records the retry/corruption counters alongside the
    wall overhead against a fault-free pass (``client_visible_errors`` is
    the retry layer's exhaustion count — zero means every fault was
    absorbed below the engine).  The drill journals a second fork, crashes
    it on the ``crash_after_mutations``-th page mutation, times
    :meth:`SpaceOdyssey.recover` replaying the committed prefix, and
    resumes the remaining queries on the recovered engine.
    """
    config = config or OdysseyConfig()

    # Fault-free reference pass of the same workload, for the overhead ratio.
    clean_engine = SpaceOdyssey(suite.fork().catalog, config)
    clean_seconds = timed(lambda: sequential_pass(clean_engine, workload))

    plan = FaultPlan(
        seed=seed,
        read_error_rate=0.03,
        write_error_rate=0.03,
        corrupt_read_rate=0.02,
        torn_write_rate=0.02,
    )
    policy = RetryPolicy(max_attempts=8, seed=seed)
    faulty = _fork_with_backend(
        suite,
        lambda backend: RetryingBackend(
            FaultInjectingBackend(backend, plan), policy, sleep=lambda _s: None
        ),
    )
    engine = SpaceOdyssey(faulty.catalog, config)
    campaign_seconds = timed(lambda: sequential_pass(engine, workload))
    retrying = faulty.disk.backend
    injected = retrying.inner.counters()
    absorbed = retrying.counters()
    campaign = {
        "wall_seconds": campaign_seconds,
        "clean_wall_seconds": clean_seconds,
        "overhead_vs_clean": campaign_seconds / clean_seconds
        if clean_seconds > 0
        else None,
        "faults_injected": asdict(injected),
        "total_faults_injected": sum(asdict(injected).values()),
        "retries": absorbed.retries,
        "corrupt_reads_detected": absorbed.corrupt_reads_detected,
        "client_visible_errors": absorbed.exhausted,
        "max_attempts": policy.max_attempts,
    }

    with tempfile.TemporaryDirectory(prefix="repro-recovery-") as tmp:
        journal_path = Path(tmp) / "manifest.journal"
        crash_suite = _fork_with_backend(
            suite,
            lambda backend: FaultInjectingBackend(
                backend, FaultPlan(seed=seed, crash_after_mutations=crash_after_mutations)
            ),
        )
        crashed = SpaceOdyssey(crash_suite.catalog, config, journal=journal_path)
        crash_fired = False
        try:
            sequential_pass(crashed, workload)
        except SimulatedCrash:
            crash_fired = True
        survivor = crash_suite.disk.backend
        survivor.disarm()  # restart on healthy hardware

        recovered_holder: list[SpaceOdyssey] = []
        recovery_seconds = timed(
            lambda: recovered_holder.append(
                SpaceOdyssey.recover(journal_path, backend=survivor)
            )
        )
        recovered = recovered_holder[0]
        replayed = recovered.summary().queries_executed
        resume_seconds = timed(
            lambda: sequential_pass(recovered, workload[replayed:])
        )
        recovery = {
            "crash_after_mutations": crash_after_mutations,
            "crash_fired": crash_fired,
            "queries_replayed": replayed,
            "recovery_wall_seconds": recovery_seconds,
            "queries_resumed": len(workload) - replayed,
            "resume_wall_seconds": resume_seconds,
            "final_queries_executed": recovered.summary().queries_executed,
        }

    return {"campaign": campaign, "recovery": recovery}


def run_perf_snapshot(
    scale: str | ExperimentScale = "small",
    *,
    n_queries: int = 64,
    batch_size: int = 32,
    seed: int = 23,
    repeats: int = 3,
    config: OdysseyConfig | None = None,
    workers: tuple[int, ...] = (1, 2, 4),
    buffer_shards: int = 8,
    concurrent_threads: int = 2,
    serve: bool = True,
    serve_repeats: int = 4,
    serve_rate_qps: float | None = None,
    serve_utilization: float = 0.7,
    serve_clients: int = 4,
    serve_max_batch: int | None = None,
    serve_max_delay_ms: float = 5.0,
    serve_workers: int | None = None,
    faults: bool = False,
    compression: str | None = None,
    executor: str = "thread",
    trace_path: str | Path | None = None,
) -> dict[str, Any]:
    """Measure one perf snapshot and return it as a JSON-ready dict.

    The workload is the uniform micro-benchmark shape: ``n_queries``
    uniform windows over ``datasets_per_query = 2`` combinations, seeded
    explicitly so snapshots are comparable run-to-run.  Steady-state
    passes are best-of-``repeats`` to shed scheduler noise.

    ``workers`` is the worker-count sweep of the parallel-batch phase;
    each count runs the batched workload through
    ``query_batch(..., workers=K)`` on its own converged engine whose
    disk uses ``buffer_shards`` lock-striped buffer-pool shards.  Pass an
    empty tuple to skip the sweep.

    ``concurrent_threads`` sizes the epoch-overlap phase: that many
    threads each run the full chunked workload through
    ``query_batch(..., snapshot=True)`` at once, against a single shared
    converged engine, and the wall ratio to a single-thread pass is
    recorded as ``overlap_ratio``.  Pass ``0`` (or disable
    ``snapshot_reads`` in the config) to skip the phase.

    ``serve=True`` adds the open-loop serving phase: the workload,
    repeated ``serve_repeats`` times for stable percentiles, is offered
    to a dynamic-batching :class:`~repro.serve.QueryService` from
    ``serve_clients`` threads.  The offered rate is ``serve_rate_qps``
    when given, otherwise ``serve_utilization`` times the capacity the
    batch phase just measured — latency under load, not at saturation.
    ``serve_max_batch`` defaults to ``batch_size``.

    ``faults=True`` adds the fault-tolerance phase (see
    :func:`measure_fault_tolerance`): a seeded fault campaign under the
    retry layer plus a crash/recovery drill, recording retry, corruption
    and recovery counters in the snapshot.

    ``compression`` compresses the raw dataset files' pages at build time
    (``"zlib"``, or ``"zstd"`` when available); every fork then reads the
    same compressed bytes, so the steady-state phases measure the decode
    cost honestly and ``phases["build"]["raw_pages"]`` shows the page
    savings.  ``executor`` selects the pool flavour of the worker sweep —
    ``"process"`` runs it through the GIL-free process executor.

    Every steady phase and sweep entry carries a ``stats`` block (mean ±
    std over the seed-repeated passes, see :func:`timing_stats`) next to
    its legacy best-of ``wall_seconds``.
    """
    scale = get_scale(scale)
    config = config or OdysseyConfig()
    if executor not in ("thread", "process"):
        raise ValueError("executor must be 'thread' or 'process'")
    phases: dict[str, dict[str, Any]] = {}

    suite_holder: list[BenchmarkSuite] = []

    def build() -> None:
        suite_holder.append(
            build_benchmark_suite(
                n_datasets=scale.n_datasets,
                objects_per_dataset=scale.objects_per_dataset,
                seed=scale.seed,
                buffer_pages=0,
                model=scale.disk_model(),
                compression=compression,
            )
        )

    build_seconds = timed(build)
    suite = suite_holder[0]
    phases["build"] = {
        "wall_seconds": build_seconds,
        "datasets": scale.n_datasets,
        "objects": suite.catalog.total_objects(),
        "raw_pages": suite.catalog.total_pages(),
        "compression": compression,
    }

    workload = list(
        generate_workload(
            suite.universe,
            suite.catalog.dataset_ids(),
            n_queries,
            seed=seed,
            datasets_per_query=min(2, scale.n_datasets),
            volume_fraction=5e-3,
            ranges="uniform",
            ids_distribution="uniform",
        )
    )

    def converged(engine_config: OdysseyConfig) -> tuple[SpaceOdyssey, float]:
        odyssey = SpaceOdyssey(suite.fork().catalog, engine_config)
        return odyssey, timed(lambda: sequential_pass(odyssey, workload))

    scalar_engine, _ = converged(replace(config, columnar=False))
    columnar_engine, first_touch_seconds = converged(config)
    batch_engine, _ = converged(config)
    phases["first_touch"] = {
        "wall_seconds": first_touch_seconds,
        "queries": len(workload),
    }

    # Warm each engine once more, then time seed-repeated passes.
    for engine in (scalar_engine, columnar_engine):
        sequential_pass(engine, workload)
    scalar_stats = timing_stats(
        repeats, lambda: timed(lambda: sequential_pass(scalar_engine, workload))
    )
    scalar_seconds = scalar_stats["min_seconds"]
    columnar_stats = timing_stats(
        repeats, lambda: timed(lambda: sequential_pass(columnar_engine, workload))
    )
    columnar_seconds = columnar_stats["min_seconds"]

    def run_batched() -> None:
        for start in range(0, len(workload), batch_size):
            batch_engine.query_batch(workload[start : start + batch_size])

    run_batched()
    batch_stats = timing_stats(repeats, lambda: timed(run_batched))
    batch_seconds = batch_stats["min_seconds"]

    # Observability phase: the identical batched pass with per-phase
    # tracing enabled, so the snapshot trajectory records what the
    # telemetry layer costs when it is actually on (disabled tracing is
    # one predicate per span site and is part of every other phase).
    tracer = batch_engine.enable_tracing(capacity=65536)
    try:
        run_batched()  # warm the traced path (span allocation, ring)
        traced_stats = timing_stats(repeats, lambda: timed(run_batched))
        traced_seconds = traced_stats["min_seconds"]
        spans_recorded = len(tracer) + tracer.evicted
        trace_file: str | None = None
        if trace_path is not None:
            write_trace(tracer, trace_path)
            trace_file = str(trace_path)
    finally:
        batch_engine.disable_tracing()
    phases["observability"] = {
        "untraced_seconds": batch_seconds,
        "traced_seconds": traced_seconds,
        "overhead_ratio": traced_seconds / batch_seconds
        if batch_seconds > 0
        else None,
        "spans_recorded": spans_recorded,
        "spans_evicted": tracer.evicted,
        "trace_path": trace_file,
        "stats": traced_stats,
    }

    # Parallel-batch worker sweep: each worker count gets its own engine
    # (converged identically — the oracle guarantees state equality) over
    # a sharded buffer pool so lock striping is measured, not serialized.
    sweep: list[dict[str, Any]] = []
    for worker_count in workers:
        forked = suite.fork(buffer_shards=buffer_shards)
        engine = SpaceOdyssey(forked.catalog, config)

        def run_parallel(k: int = worker_count, odyssey: SpaceOdyssey = engine) -> None:
            for start in range(0, len(workload), batch_size):
                odyssey.query_batch(
                    workload[start : start + batch_size], workers=k, executor=executor
                )

        run_parallel()  # converge + warm
        stats = timing_stats(repeats, lambda: timed(run_parallel))
        seconds = stats["min_seconds"]
        sweep.append(
            {
                "workers": worker_count,
                "wall_seconds": seconds,
                "queries_per_second": len(workload) / seconds if seconds > 0 else None,
                "stats": stats,
            }
        )

    for name, seconds, stats in (
        ("steady_scalar", scalar_seconds, scalar_stats),
        ("steady_columnar", columnar_seconds, columnar_stats),
        ("steady_batch", batch_seconds, batch_stats),
    ):
        phases[name] = {
            "wall_seconds": seconds,
            "queries_per_second": len(workload) / seconds if seconds > 0 else None,
            "stats": stats,
        }
    phases["steady_batch"]["batch_size"] = batch_size
    if sweep:
        phases["steady_parallel"] = {
            "batch_size": batch_size,
            "buffer_shards": buffer_shards,
            "executor": executor,
            "sweep": sweep,
        }

    # Epoch-overlap phase: how well two concurrent snapshot-batch streams
    # overlap on the lock-free MVCC read path (only meaningful when the
    # engine keeps epoch machinery at all).
    if config.snapshot_reads and concurrent_threads > 1:
        epoch_engine = SpaceOdyssey(
            suite.fork(buffer_shards=buffer_shards).catalog, config
        )
        sequential_pass(epoch_engine, workload)  # converge off the clock
        single_seconds, concurrent_seconds = measure_concurrent_batches(
            epoch_engine,
            workload,
            batch_size=batch_size,
            repeats=repeats,
            threads=concurrent_threads,
        )
        phases["concurrent_batches"] = {
            "batch_size": batch_size,
            "threads": concurrent_threads,
            "single_seconds": single_seconds,
            "concurrent_seconds": concurrent_seconds,
            "overlap_ratio": concurrent_seconds / single_seconds
            if single_seconds > 0
            else None,
            "queries_per_second": concurrent_threads * len(workload) / concurrent_seconds
            if concurrent_seconds > 0
            else None,
        }

    if serve:
        serve_engine = SpaceOdyssey(suite.fork(buffer_shards=buffer_shards).catalog, config)
        sequential_pass(serve_engine, workload)  # converge off the clock
        capacity_qps = len(workload) / batch_seconds if batch_seconds > 0 else None
        rate = serve_rate_qps or (
            serve_utilization * capacity_qps if capacity_qps else 100.0
        )
        serve_workload = [query for _ in range(max(1, serve_repeats)) for query in workload]
        phases["steady_serve"] = measure_serving(
            serve_engine,
            serve_workload,
            rate_qps=rate,
            n_clients=serve_clients,
            max_batch=serve_max_batch or batch_size,
            max_delay_ms=serve_max_delay_ms,
            workers=serve_workers,
        )
        phases["steady_serve"]["capacity_qps"] = capacity_qps
        phases["steady_serve"]["utilization_target"] = (
            serve_utilization if serve_rate_qps is None else None
        )

    if faults:
        phases["fault_tolerance"] = measure_fault_tolerance(
            suite, workload, seed=seed, config=config
        )

    summary = columnar_engine.summary()
    disk = columnar_engine.disk
    pages = {
        "raw": suite.catalog.total_pages(),
        "partitions": sum(
            tree.file.num_pages() for tree in columnar_engine.trees.values()
        ),
        "merge": summary.merge_pages,
        "total_files": len(disk.list_files()),
    }

    # The labelled speedup is only meaningful against a workers=1 entry;
    # a sweep without one still records its timings but derives no ratio.
    parallel_speedup: float | None = None
    baseline = next((e for e in sweep if e["workers"] == 1), None)
    if baseline is not None:
        fastest = min(sweep, key=lambda e: e["wall_seconds"])
        if fastest["wall_seconds"] > 0:
            parallel_speedup = baseline["wall_seconds"] / fastest["wall_seconds"]

    return {
        "kind": "repro-perf-snapshot",
        "version": 2,
        "scale": scale.name,
        "seed": seed,
        "n_queries": n_queries,
        "batch_size": batch_size,
        "repeats": repeats,
        "workers": list(workers),
        "executor": executor,
        "compression": compression,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "platform": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "phases": phases,
        "pages": pages,
        "engine": {
            "partitions": summary.total_partitions,
            "max_tree_depth": summary.max_tree_depth,
            "merge_files": summary.merge_files,
            "merges_performed": summary.merges_performed,
        },
        "speedups": {
            "sequential_columnar_vs_scalar": scalar_seconds / columnar_seconds
            if columnar_seconds > 0
            else None,
            "batch_vs_scalar": scalar_seconds / batch_seconds
            if batch_seconds > 0
            else None,
            "batch_vs_sequential_columnar": columnar_seconds / batch_seconds
            if batch_seconds > 0
            else None,
            "parallel_best_vs_workers1": parallel_speedup,
        },
    }


def format_serve_phase(phase: dict[str, Any]) -> str:
    """A human-readable digest of one serving phase / serve snapshot."""
    latency = phase.get("latency_ms")
    mean_batch = phase.get("mean_batch_size")
    if latency is not None:
        latency_line = (
            f"latency: p50 {latency['p50_ms']:.2f} ms, "
            f"p99 {latency['p99_ms']:.2f} ms, max {latency['max_ms']:.2f} ms"
        )
    else:
        latency_line = "latency: n/a"
    batching_line = (
        f"batching: max_batch {phase['max_batch']}, "
        f"max_delay {phase['max_delay_ms']:.1f} ms — {phase['batches']} batches"
        + (f", mean size {mean_batch:.1f}" if mean_batch is not None else "")
        + f", flushes: {phase['size_flushes']} size / "
        f"{phase['deadline_flushes']} deadline / {phase['drain_flushes']} drain"
    )
    return "\n".join(
        [
            "serving (open loop): "
            f"offered {phase['offered_qps']:.1f} q/s, "
            f"sustained {phase['sustained_qps']:.1f} q/s, "
            f"{phase['completed']}/{phase['queries']} completed "
            f"over {phase['n_clients']} clients",
            latency_line,
            batching_line,
        ]
    )


def run_serve_snapshot(
    scale: str | ExperimentScale = "small",
    *,
    n_queries: int = 64,
    serve_repeats: int = 4,
    rate_qps: float | None = None,
    utilization: float = 0.7,
    n_clients: int = 4,
    max_batch: int = 32,
    max_delay_ms: float = 5.0,
    workers: int | None = None,
    seed: int = 23,
    config: OdysseyConfig | None = None,
    buffer_shards: int = 8,
) -> dict[str, Any]:
    """A standalone serving benchmark (the ``serve-bench`` CLI command).

    Builds the scale's suite, converges one engine with a sequential
    pass, estimates batch-mode capacity with one batched pass, then
    offers the workload (repeated ``serve_repeats`` times) through the
    dynamic batcher at ``rate_qps`` — or at ``utilization`` times the
    measured capacity when no explicit rate is given.
    """
    scale = get_scale(scale)
    config = config or OdysseyConfig()
    suite = build_benchmark_suite(
        n_datasets=scale.n_datasets,
        objects_per_dataset=scale.objects_per_dataset,
        seed=scale.seed,
        buffer_pages=0,
        model=scale.disk_model(),
        buffer_shards=buffer_shards,
    )
    workload = list(
        generate_workload(
            suite.universe,
            suite.catalog.dataset_ids(),
            n_queries,
            seed=seed,
            datasets_per_query=min(2, scale.n_datasets),
            volume_fraction=5e-3,
            ranges="uniform",
            ids_distribution="uniform",
        )
    )
    engine = SpaceOdyssey(suite.catalog, config)
    sequential_pass(engine, workload)  # converge (in-situ first touch)
    batch_seconds = timed(
        lambda: engine.query_batch(workload, workers=workers)
    )
    capacity_qps = len(workload) / batch_seconds if batch_seconds > 0 else None
    rate = rate_qps or (utilization * capacity_qps if capacity_qps else 100.0)
    serve_workload = [query for _ in range(max(1, serve_repeats)) for query in workload]
    phase = measure_serving(
        engine,
        serve_workload,
        rate_qps=rate,
        n_clients=n_clients,
        max_batch=max_batch,
        max_delay_ms=max_delay_ms,
        workers=workers,
    )
    phase["capacity_qps"] = capacity_qps
    phase["utilization_target"] = utilization if rate_qps is None else None
    return {
        "kind": "repro-serve-snapshot",
        "version": 1,
        "scale": scale.name,
        "seed": seed,
        "n_queries": n_queries,
        "serve_repeats": serve_repeats,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "platform": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "serve": phase,
    }


def save_snapshot(snapshot: dict[str, Any], path: str | Path) -> Path:
    """Write a snapshot to ``path`` as indented JSON and return the path."""
    path = Path(path)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(snapshot, indent=2, sort_keys=True))
    return path


def format_snapshot_summary(snapshot: dict[str, Any]) -> str:
    """A short human-readable digest of one snapshot."""
    phases = snapshot["phases"]
    speedups = snapshot["speedups"]
    def _stats_suffix(block: dict[str, Any]) -> str:
        stats = block.get("stats")
        if not stats:
            return ""
        return (
            f"   {stats['mean_seconds']:.3f} ± {stats['std_seconds']:.3f} s "
            f"over {stats['runs']}"
        )

    lines = [
        f"perf snapshot — scale: {snapshot['scale']}, "
        f"{snapshot['n_queries']} queries, batch size {snapshot['batch_size']}"
        + (
            f", compression {snapshot['compression']}"
            if snapshot.get("compression")
            else ""
        ),
        "",
        f"{'phase':<18}{'wall seconds':>14}{'queries/s':>12}   mean ± std",
    ]
    for name in ("build", "first_touch", "steady_scalar", "steady_columnar", "steady_batch"):
        phase = phases[name]
        qps = phase.get("queries_per_second")
        # ``is not None``, not truthiness: a legitimate 0.0 q/s (degenerate
        # timing) must print as 0.0, not as a missing value.
        lines.append(
            f"{name:<18}{phase['wall_seconds']:>14.3f}"
            + (f"{qps:>12.1f}" if qps is not None else f"{'-':>12}")
            + _stats_suffix(phase)
        )
    parallel_phase = phases.get("steady_parallel", {})
    executor = parallel_phase.get("executor", "thread")
    for entry in parallel_phase.get("sweep", []):
        name = f"{executor} w={entry['workers']}"
        qps = entry.get("queries_per_second")
        lines.append(
            f"{name:<18}{entry['wall_seconds']:>14.3f}"
            + (f"{qps:>12.1f}" if qps is not None else f"{'-':>12}")
            + _stats_suffix(entry)
        )
    def _ratio(value: float | None) -> str:
        return f"{value:.2f}x" if value is not None else "n/a"

    lines.append("")
    lines.append(
        "speedups: "
        f"sequential columnar {_ratio(speedups['sequential_columnar_vs_scalar'])}, "
        f"batch {_ratio(speedups['batch_vs_scalar'])} vs the scalar reference"
    )
    if speedups.get("parallel_best_vs_workers1") is not None:
        lines.append(
            "parallel batch: best worker count is "
            f"{_ratio(speedups['parallel_best_vs_workers1'])} vs workers=1"
        )
    observability = phases.get("observability")
    if observability is not None:
        lines.append(
            f"tracing overhead: {_ratio(observability.get('overhead_ratio'))} "
            f"the untraced batched pass "
            f"({observability['spans_recorded']} spans recorded)"
        )
    concurrent = phases.get("concurrent_batches")
    if concurrent is not None:
        ratio = concurrent.get("overlap_ratio")
        lines.append(
            f"epoch overlap: {concurrent['threads']} concurrent snapshot-batch "
            f"streams at {_ratio(ratio)} the single-stream wall "
            f"(1.0 = perfect overlap, {concurrent['threads']:.1f} = serialized)"
        )
    serve_phase = phases.get("steady_serve")
    if serve_phase is not None:
        lines.append("")
        lines.append(format_serve_phase(serve_phase))
    fault_phase = phases.get("fault_tolerance")
    if fault_phase is not None:
        campaign = fault_phase["campaign"]
        recovery = fault_phase["recovery"]
        lines.append("")
        lines.append(
            "fault campaign: "
            f"{campaign['total_faults_injected']} faults injected, "
            f"{campaign['retries']} retries, "
            f"{campaign['corrupt_reads_detected']} corrupt reads detected, "
            f"{campaign['client_visible_errors']} client-visible errors "
            f"(overhead {_ratio(campaign['overhead_vs_clean'])} vs fault-free)"
        )
        lines.append(
            "recovery drill: "
            + (
                f"crashed on page mutation {recovery['crash_after_mutations']}, "
                if recovery["crash_fired"]
                else "no crash fired (workload too small), "
            )
            + f"replayed {recovery['queries_replayed']} committed queries in "
            f"{recovery['recovery_wall_seconds']:.3f} s, "
            f"resumed the remaining {recovery['queries_resumed']}"
        )
    lines.append(
        f"pages: raw {snapshot['pages']['raw']}, "
        f"partitions {snapshot['pages']['partitions']}, "
        f"merge {snapshot['pages']['merge']}"
    )
    return "\n".join(lines)
