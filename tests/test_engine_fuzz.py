"""The engine oracle: every execution mode is a row of one table.

Each seed derives a scenario (suite, configuration, workload with point
windows and duplicates, chunk size, clients, a mode per chunk, a crash),
and each row of :data:`ROWS` runs it on its own fork: the per-record
reference (:class:`tests.scalar_reference.ScalarOdyssey`), ``query``,
``query_batch``, ``workers=K``, ``snapshot=True``, ``serve()`` from
concurrent clients, a seeded mix of all five on one engine, and a
journaled engine that crashes at a journal site or page write, recovers
(twice: a crash during recovery is recovery again) and re-issues what its
journal lacks.  An answer is held to what its mode guarantees
(:data:`HELD_TO`); every row ends in the reference's adaptive state and
page bytes, except a multi-client serve row, held to a replay of its
arrival (``seq``) order.  The columnar row charges the reference's
simulated I/O, the thread and epoch rows the batch row's CPU seconds.

Each row of each plain seed is a test of its own (``test_fuzz[seed-row]``,
the reference and batch rows run once per seed); the variants, the
two-level cold starts (:func:`two_level_context`: queries that refine
leaves whose rows are not in search order) and the fault campaign run
every row of a seed in one test.  Messages carry the
seed: ``run_fuzz_scenario(seed)`` replays one.
``REPRO_FUZZ_ITERATIONS=N`` adds N slow-marked seeds::

    REPRO_FUZZ_ITERATIONS=200 python -m pytest tests/test_engine_fuzz.py -q
"""

from __future__ import annotations

import dataclasses
import functools
import os
import random
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable
from unittest import mock

import pytest

import repro.core.recovery as recovery_module
from repro.bench.runner import generate_workload
from repro.core.adaptor import Adaptor
from repro.core.config import OdysseyConfig
from repro.core.odyssey import SpaceOdyssey
from repro.core.query_processor import QueryProcessor
from repro.data.suite import BenchmarkSuite, build_benchmark_suite
from repro.geometry.box import Box
from repro.storage.cost_model import DiskModel
from repro.storage.errors import SimulatedCrash
from repro.storage.faults import FaultInjectingBackend, FaultPlan
from repro.storage.journal import ManifestJournal

from tests.oracle import (
    DURABLE_SITES,
    JOURNAL_CRASH_POINTS,
    REPORT_FIELDS,
    STRICT_REPORT_FIELDS,
    adaptive_state,
    check_merge_space,
    check_no_empty_merge,
    disk_files,
    fork_with,
    packed_hits,
    make_suite,
    recover_logged,
)
from tests.scalar_reference import ScalarOdyssey

#: Seeds fuzzed in every tier-1 run: 0-8, which between them reach every
#: regime ``test_tier1_seeds_cover_the_state_space`` names, plus 48, the
#: seed that merges most (13 merges) against a budget that refuses keys.
QUICK_SEEDS = tuple(range(9)) + (48,)

#: Extra seeds fuzzed in deep mode (``REPRO_FUZZ_ITERATIONS=N``): the
#: first N that are not tier-1 seeds.
DEEP_ITERATIONS = int(os.environ.get("REPRO_FUZZ_ITERATIONS", "0"))
DEEP_SEEDS = tuple(
    seed for seed in range(DEEP_ITERATIONS + len(QUICK_SEEDS)) if seed not in QUICK_SEEDS
)[:DEEP_ITERATIONS]

#: The modes a chunk of the mixed row may run in; the recover row's
#: chunks run in the first four.
MODES = ("query", "batch", "thread", "epoch", "serve")

#: Per mode: the row its answers are held to, whether hits are compared in
#: order (else as packed bytes), and the report fields compared.
HELD_TO = {
    "query": ("scalar", True, STRICT_REPORT_FIELDS),
    "batch": ("batch", True, STRICT_REPORT_FIELDS),
    "thread": ("batch", True, STRICT_REPORT_FIELDS),
    "epoch": ("batch", True, STRICT_REPORT_FIELDS),
    "serve": ("scalar", False, ()),
}

#: What the batch row's own answers are held to.
BATCH_HELD_TO = ("scalar", False, REPORT_FIELDS)

#: Per seed, the path its plain recover row's recovery took.
RECOVERY_PATHS: dict[int, str | None] = {}


def _random_scenario(rng: random.Random) -> dict:
    """One fully-derived scenario: suite, config, workload, modes and crash."""
    dimension = rng.choice((2, 3, 3))  # 3-D weighted: the paper's setting
    scenario = {
        "dimension": dimension,
        "n_datasets": rng.randint(2, 4),
        "objects_per_dataset": rng.randint(150, 450),
        "suite_seed": rng.randint(0, 2**31),
        "buffer_pages": rng.choice((0, 32, 256)),
        "config": OdysseyConfig(
            refinement_threshold=rng.choice((2.0, 4.0)),
            merge_threshold=rng.choice((1, 2)),
            min_merge_combination=rng.choice((2, 3)),
            # One scenario in seven or so merges nothing: a budget of 0 pages.
            merge_space_budget_pages=(rng.choice((None, 2, 8, 16)), 0)[rng.random() <= 0.15],
        ),
        "n_queries": rng.randint(10, 22),
        "workload_seed": rng.randint(0, 2**31),
        "datasets_per_query": rng.randint(1, 3),
        "volume_fraction": rng.choice((1e-3, 5e-3, 2e-2)),
        "ranges": rng.choice(("uniform", "clustered")),
        "ids_distribution": rng.choice(
            ("uniform", "zipf", "heavy_hitter", "self_similar")
        ),
        "batch_size": rng.choice((1, 2, 3, 5, 8, 64)),
        "workers": rng.randint(2, 4),
        "clients": rng.randint(1, 3),
        "points": rng.randint(0, 2),
        "duplicates": rng.randint(0, 3),
        "edit_seed": rng.randint(0, 2**31),
        "crash_site": rng.choice(JOURNAL_CRASH_POINTS + ("mutation",)),
        "crash_mutation": rng.randint(1, 12),
    }
    rng.choice((2, 3, 8))  # the retired ``compact_every`` draw: every seed keeps its scenario
    n_total = scenario["n_queries"] + scenario["duplicates"]
    n_chunks = -(-n_total // scenario["batch_size"])
    scenario["crash_from"] = rng.randrange(n_total)
    scenario["mixed_modes"] = [rng.choice(MODES) for _ in range(n_chunks)]
    scenario["recover_modes"] = [rng.choice(MODES[:4]) for _ in range(n_chunks)]
    return scenario


def _scenario_suite(scenario: dict, compression: str | None = None) -> BenchmarkSuite:
    return build_benchmark_suite(
        n_datasets=scenario["n_datasets"],
        objects_per_dataset=scenario["objects_per_dataset"],
        seed=scenario["suite_seed"],
        dimension=scenario["dimension"],
        buffer_pages=scenario["buffer_pages"],
        model=DiskModel(seek_time_s=1e-4),
        compression=compression,
    )


def _scenario_workload(suite, scenario: dict) -> list:
    """The generated windows, some shrunk to their centre point, plus duplicates."""
    queries = list(
        generate_workload(
            suite.universe,
            suite.catalog.dataset_ids(),
            scenario["n_queries"],
            seed=scenario["workload_seed"],
            datasets_per_query=min(
                scenario["datasets_per_query"], scenario["n_datasets"]
            ),
            volume_fraction=scenario["volume_fraction"],
            ranges=scenario["ranges"],
            ids_distribution=scenario["ids_distribution"],
        )
    )
    edit = random.Random(scenario["edit_seed"])
    for index in edit.sample(range(len(queries)), scenario["points"]):
        center = queries[index].box.center
        queries[index] = dataclasses.replace(queries[index], box=Box(center, center))
    for _ in range(scenario["duplicates"]):
        queries.insert(edit.randrange(len(queries) + 1), queries[edit.randrange(len(queries))])
    return queries


# ---------------------------------------------------------------------- #
# The rows
# ---------------------------------------------------------------------- #


@dataclass
class Context:
    """One scenario as the rows see it."""

    tag: str
    scenario: dict
    suite: BenchmarkSuite
    workload: list
    #: Wraps every fork's cloned backend (the fault campaign's injectors).
    wrap: Callable = lambda backend: backend
    traced: bool = False

    @property
    def chunks(self) -> list[tuple[int, list]]:
        size = self.scenario["batch_size"]
        return [(s, self.workload[s : s + size]) for s in range(0, len(self.workload), size)]

    def engine(self, cls=SpaceOdyssey, traced: bool | None = None) -> SpaceOdyssey:
        engine = cls(fork_with(self.suite, self.wrap).catalog, self.scenario["config"])
        if self.traced if traced is None else traced:
            engine.enable_tracing(capacity=8192)
        return engine


@dataclass
class Run:
    """One row's final engine and, per query, its hits, report and mode
    (``None`` where the row has none: a served answer has no report, a
    query committed by a crashed unit no answer)."""

    engine: SpaceOdyssey
    hits: list = field(default_factory=list)
    reports: list = field(default_factory=list)
    modes: list = field(default_factory=list)
    #: Per chunk run as a batch, its ``(group_reads, group_reads_deduped)``.
    group_reads: dict = field(default_factory=dict)
    #: The serve row's replay of its arrival order, when that is not the
    #: workload's: its answers and state stand in for the reference's.
    reference: "Run | None" = None
    #: The recover row's path, from the "recovery complete" record.
    recovery: str | None = None

    def take(self, index: int | None, mode: str, unit: list, workers: int) -> None:
        """Run one unit of chunk ``index`` in ``mode`` and keep what it returns."""
        engine = self.engine
        if mode == "query":
            for query in unit:
                self.hits.append(engine.query(query.box, query.dataset_ids))
                self.reports.append(engine.last_report)
        elif mode == "serve":
            with engine.serve(max_batch=len(unit), max_delay_ms=1000.0) as service:
                submissions = [service.submit(query.box, query.dataset_ids) for query in unit]
                self.hits += [submission.result(timeout=60) for submission in submissions]
            self.reports += [None] * len(unit)
        else:
            result = engine.query_batch(
                unit, workers=None if mode == "batch" else workers, snapshot=mode == "epoch"
            )
            self.hits += result.results
            self.reports += result.reports
            self.group_reads[index] = (result.group_reads, result.group_reads_deduped)
        self.modes += [mode] * len(unit)
        check_no_empty_merge(engine, f"{mode} unit of {len(unit)} ending at query {len(self.hits)}")


def run_chunks(ctx: Context, engine: SpaceOdyssey, modes) -> Run:
    """Every chunk through ``engine``, in ``modes`` (one mode, or one per chunk)."""
    run = Run(engine)
    for index, (_start, chunk) in enumerate(ctx.chunks):
        mode = modes if isinstance(modes, str) else modes[index]
        run.take(index, mode, chunk, ctx.scenario["workers"])
    return run


def serve_row(ctx: Context) -> Run:
    """Chunks dealt round-robin to the clients, each awaiting a chunk before its next."""
    n, n_clients = len(ctx.workload), ctx.scenario["clients"]
    engine = ctx.engine()
    submissions: list = [None] * n
    errors: list[BaseException] = []
    barrier = threading.Barrier(n_clients)

    def client(first: int) -> None:
        try:
            barrier.wait(timeout=60)
            for start, chunk in ctx.chunks[first::n_clients]:
                mine = [service.submit(query.box, query.dataset_ids) for query in chunk]
                for offset, submission in enumerate(mine):
                    submission.result(timeout=60)
                    submissions[start + offset] = submission
        except BaseException as error:  # pragma: no cover - failure path
            errors.append(error)

    with engine.serve(max_batch=ctx.scenario["batch_size"], max_delay_ms=1.0) as service:
        threads = [threading.Thread(target=client, args=(c,)) for c in range(n_clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    assert not errors and not any(t.is_alive() for t in threads), f"{ctx.tag}: {errors!r}"
    stats = service.stats
    assert (stats.completed, stats.failed, stats.queries_batched) == (n, 0, n), ctx.tag
    seqs = [submission.seq for submission in submissions]
    assert sorted(seqs) == list(range(n)), f"{ctx.tag}: seqs are not a dense range"
    for first in range(n_clients):  # each client's submissions in arrival order
        mine = [seqs[start + k] for start, c in ctx.chunks[first::n_clients] for k in range(len(c))]
        assert mine == sorted(mine), f"{ctx.tag}: client {first} overtaken"
    run = Run(engine, [s.result(timeout=0) for s in submissions], [None] * n, ["serve"] * n)
    if seqs != sorted(seqs):
        run.reference = replay = Run(ctx.engine(traced=False), [None] * n)
        for index in sorted(range(n), key=seqs.__getitem__):
            query = ctx.workload[index]
            replay.hits[index] = replay.engine.query(query.box, query.dataset_ids)
    return run


def recover_row(ctx: Context) -> Run:
    """A journaled engine runs the chunks in their recover modes, crashes at the
    scenario's site from query ``crash_from`` on, recovers and re-issues the rest."""
    scenario = ctx.scenario
    site = scenario["crash_site"]
    plan = FaultPlan(crash_points=frozenset({site}))
    if site == "mutation":
        plan = FaultPlan(crash_after_mutations=scenario["crash_mutation"], torn_crash=True)
    injectors = []

    def wrap(backend):
        injectors.append(FaultInjectingBackend(backend, plan))
        return ctx.wrap(injectors[-1])

    forked = fork_with(ctx.suite, wrap)
    (crash,) = injectors
    crash.disarm()  # construction commits the initial checkpoint cleanly
    with tempfile.TemporaryDirectory() as directory, mock.patch.object(
        recovery_module, "boot_id", lambda: "fuzz-boot"
    ):
        path = Path(directory) / "journal.log"
        journal = ManifestJournal(path, crash_hook=crash.maybe_crash)
        run = Run(SpaceOdyssey(forked.catalog, scenario["config"], journal=journal))
        crashed = None
        for index, (_start, chunk) in enumerate(ctx.chunks):
            mode = scenario["recover_modes"][index]
            for unit in [[query] for query in chunk] if mode == "query" else [chunk]:
                start = len(run.hits)
                if start >= scenario["crash_from"]:
                    crash.rearm()
                try:
                    run.take(index, mode, unit, scenario["workers"])
                except SimulatedCrash:
                    crashed = (start, start + len(unit))
                    break
            if crashed:
                break
        crash.disarm()  # restart on healthy hardware
        tag = f"{ctx.tag}: recover row, crash at {site} in queries {crashed}"
        journal = ManifestJournal(path)
        first, run.recovery, _why = recover_logged(journal, backend=forked.disk.backend)
        state = adaptive_state(first), disk_files(first)
        del first
        # A crash during recovery just means recovery runs again, to the same state.
        run.engine, _path, _why = recover_logged(journal, backend=forked.disk.backend)
        assert (adaptive_state(run.engine), disk_files(run.engine)) == state, tag
        committed = run.engine.summary().queries_executed
        if crashed is None:
            assert (committed, run.recovery) == (len(ctx.workload), "fast"), tag
        else:
            # The in-flight unit is lost before its commit is down, kept after.
            assert committed == crashed[site in DURABLE_SITES], tag
            if site in DURABLE_SITES or site == "mutation":
                assert run.recovery == ("full" if site == "mutation" else "fast"), tag
        lost = [None] * (committed - len(run.hits))  # committed, never answered
        run.hits, run.reports, run.modes = run.hits + lost, run.reports + lost, run.modes + lost
        for query in ctx.workload[committed:]:
            run.take(None, "query", [query], 0)
        assert len(ManifestJournal(path).read_last()["queries"]) == len(ctx.workload), tag
    return run


#: Every execution mode, by name: how it runs a scenario.  The scalar row
#: is the reference; the batch row is what batched chunks are held to.
ROWS: dict[str, Callable[[Context], Run]] = {
    "scalar": lambda ctx: run_chunks(ctx, ctx.engine(ScalarOdyssey, traced=False), "query"),
    "columnar": lambda ctx: run_chunks(ctx, ctx.engine(), "query"),
    "batch": lambda ctx: run_chunks(ctx, ctx.engine(), "batch"),
    "thread": lambda ctx: run_chunks(ctx, ctx.engine(), "thread"),
    "epoch": lambda ctx: run_chunks(ctx, ctx.engine(), "epoch"),
    "serve": serve_row,
    "mixed": lambda ctx: run_chunks(ctx, ctx.engine(), ctx.scenario["mixed_modes"]),
    "recover": recover_row,
}


# ---------------------------------------------------------------------- #
# The oracle
# ---------------------------------------------------------------------- #


def assert_row(tag: str, name: str, runs: dict[str, Run]) -> None:
    """Every agreement row ``name`` guarantees (see the module docstring),
    against the scalar and batch rows of ``runs``."""
    run, scalar, batch = runs[name], runs["scalar"], runs["batch"]
    for index, mode in enumerate(run.modes):
        if mode is None:
            continue
        held, ordered, fields = BATCH_HELD_TO if name == "batch" else HELD_TO[mode]
        expected = run.reference or runs[held]
        where = f"{tag}: {name} ({mode}) vs {'its replay' if run.reference else held}"
        hits, wanted = run.hits[index], expected.hits[index]
        if ordered:
            assert hits == wanted, f"{where}: hits differ (order included) for query {index}"
        else:
            assert packed_hits(run.engine, hits) == packed_hits(expected.engine, wanted), (
                f"{where}: hit bytes differ for query {index}"
            )
        for report_field in fields:
            assert getattr(run.reports[index], report_field) == getattr(
                expected.reports[index], report_field
            ), f"{where}: report field {report_field!r} differs for query {index}"
    for chunk, reads in run.group_reads.items():
        assert reads == batch.group_reads[chunk], f"{tag}: {name} group reads, chunk {chunk}"
    truth = (run.reference or scalar).engine
    check_merge_space(run.engine, f"{tag}: {name}")
    assert adaptive_state(run.engine) == adaptive_state(truth), f"{tag}: {name} state diverged"
    assert disk_files(run.engine) == disk_files(truth), f"{tag}: {name} on-disk bytes diverged"
    if name == "columnar":
        for attribute in ("pages_read", "pages_written", "seeks", "cache_hits"):
            assert getattr(run.engine.disk.stats, attribute) == getattr(
                scalar.engine.disk.stats, attribute
            ), f"{tag}: columnar vs scalar simulated I/O differs: {attribute}"
    if name in ("thread", "epoch"):
        # The writer half charges CPU in submission order: the same float sum.
        assert run.engine.disk.stats.cpu_seconds == batch.engine.disk.stats.cpu_seconds, (
            f"{tag}: {name} vs batch CPU seconds differ"
        )


def assert_oracle(tag: str, runs: dict[str, Run]) -> None:
    """Every agreement every row guarantees."""
    for name in list(runs)[1:]:
        assert_row(tag, name, runs)


def fuzz_context(seed: int, compression: str | None = None, **options) -> Context:
    """The scenario ``seed`` derives, its suite built and its workload drawn."""
    scenario = _random_scenario(random.Random(seed))
    tag = f"fuzz seed {seed} ({scenario['dimension']}-D, {scenario['n_queries']} queries)"
    suite = _scenario_suite(scenario, compression)
    return Context(tag, scenario, suite, _scenario_workload(suite, scenario), **options)


@functools.cache
def reference_rows(seed: int) -> tuple[Context, dict[str, Run]]:
    """The plain scenario of ``seed`` and its scalar and batch rows, which
    every other row is held to: run once per seed, shared by its tests."""
    ctx = fuzz_context(seed)
    return ctx, {name: ROWS[name](ctx) for name in ("scalar", "batch")}


def run_fuzz_scenario(
    seed: int, compression: str | None = None, traced: bool = False
) -> dict[str, Run]:
    """Derive the scenario for ``seed``, run every row, assert agreement.

    ``traced=True`` traces every row but the reference, the serve row's
    replay and the recovered engine: every equality then also proves that
    telemetry observes without perturbing.
    """
    ctx = fuzz_context(seed, compression, traced=traced)
    tag = ctx.tag
    runs = {name: row(ctx) for name, row in ROWS.items()}
    assert_oracle(tag, runs)
    for name, run in runs.items():
        tracer = run.engine.tracer
        if tracer is not None:
            spans = tracer.finished()
            batched = any(mode not in (None, "query") for mode in run.modes)
            assert spans and tracer.evicted == 0, f"{tag}: traced {name} kept no whole trace"
            assert any(span.name == "batch" for span in spans) == batched, (
                f"{tag}: traced {name} has batch spans iff it ran a batch"
            )
            by_id = {span.span_id: span for span in spans}
            for span in spans:  # every parent recorded, in the same trace
                parent = by_id.get(span.parent_id) if span.parent_id is not None else span
                assert parent is not None and parent.trace_id == span.trace_id, (
                    f"{tag}: traced {name}: span {span.name} is orphaned or crosses traces"
                )
    return runs


@pytest.mark.parametrize("row", tuple(ROWS)[1:])
@pytest.mark.parametrize(
    "seed", QUICK_SEEDS + tuple(pytest.param(s, marks=pytest.mark.slow) for s in DEEP_SEEDS)
)
def test_fuzz(seed, row):
    """One row of a tier-1 seed, and in deep mode of the extra ones."""
    ctx, runs = reference_rows(seed)
    runs = {**runs, row: runs.get(row) or ROWS[row](ctx)}
    if row == "recover":
        RECOVERY_PATHS[seed] = runs[row].recovery
    assert_row(ctx.tag, row, runs)


#: Seeds of the two-level cold starts (:func:`two_level_context`).
TWO_LEVEL_SEEDS = (61, 64)


def two_level_context(seed: int) -> Context:
    """A cold start whose windows keep two levels of leaves above the threshold.

    Zipf triples on three clustered hot spots, ``ppl`` = 8, windows of
    ``0.16 / ppl**2`` of the universe: one query can refine leaves of two
    levels, or children of two parents that earlier queries split in the
    other order.  Those rows are not in search order, so refining them in
    row order moves overflow pages.  The plain seeds' windows refine
    first-level leaves, whose rows are in search order, and cannot tell the
    two orders apart.  Modes, crash and clients come from seed ``seed``'s
    plain scenario.
    """
    scenario = _random_scenario(random.Random(seed))
    scenario["config"] = OdysseyConfig(
        partitions_per_level=8, refinement_threshold=2.0, merge_threshold=1
    )
    suite = make_suite(seed)
    workload = list(
        generate_workload(
            suite.universe,
            list(suite.catalog.dataset_ids()),
            40,
            seed=seed,
            volume_fraction=0.16 / 8**2,
            datasets_per_query=3,
            ranges="clustered",
            ids_distribution="zipf",
            cluster_centers=suite.generator.microcircuit_centers[:3],
        )
    )
    n_chunks = -(-len(workload) // scenario["batch_size"])
    for key in ("mixed_modes", "recover_modes"):
        scenario[key] = [scenario[key][index % len(scenario[key])] for index in range(n_chunks)]
    scenario["crash_from"] %= len(workload)
    return Context(f"two-level seed {seed}", scenario, suite, workload)


@pytest.mark.parametrize("seed", TWO_LEVEL_SEEDS)
def test_two_level_cold_start(seed, monkeypatch):
    """Every row of a two-level cold start, after checking that one of its
    queries refines rows of one tree whose row order is not search order."""
    ctx = two_level_context(seed)
    refined: list = []
    commit_query, refine = QueryProcessor.commit_query, Adaptor.refine

    def committing(processor, *args, **kwargs):
        refined.append({})
        return commit_query(processor, *args, **kwargs)

    def refining(adaptor, tree, row):
        refined[-1].setdefault(id(tree), []).append((row, tree.leaf_snapshot().keys[row]))
        return refine(adaptor, tree, row)

    with monkeypatch.context() as patch:
        patch.setattr(QueryProcessor, "commit_query", committing)
        patch.setattr(Adaptor, "refine", refining)
        ROWS["columnar"](ctx)
    assert any(
        sorted(splits) != sorted(splits, key=lambda split: split[1], reverse=True)
        for per_tree in refined
        for splits in per_tree.values()
    ), f"{ctx.tag}: no query refined rows of one tree whose row order is not search order"
    assert_oracle(ctx.tag, {name: row(ctx) for name, row in ROWS.items()})


def refuses(ctx: Context) -> bool:
    """Whether the budget skips a qualifying key: unbounded, the same
    workload ends with more merge pages than the budget ever holds."""
    config = ctx.scenario["config"]
    unbounded = dataclasses.replace(config, merge_space_budget_pages=None)
    unbounded = SpaceOdyssey(ctx.suite.fork().catalog, unbounded)
    for query in ctx.workload:
        unbounded.query(query.box, query.dataset_ids)
    budget = config.merge_space_budget_pages
    return budget is not None and unbounded.summary().merge_pages > budget


def test_tier1_seeds_cover_the_state_space():
    """Between them, the tier-1 seeds reach every regime the oracle is for,
    and recover on both the fast and the full path."""
    seen = []
    for seed in QUICK_SEEDS:
        ctx, runs = reference_rows(seed)
        if seed not in RECOVERY_PATHS:
            RECOVERY_PATHS[seed] = ROWS["recover"](ctx).recovery
        summary, scenario = runs["scalar"].engine.summary(), ctx.scenario
        seen.append({
            "merges": summary.merges_performed > 0,
            "refuses": refuses(ctx),
            "runs single-query chunks": scenario["batch_size"] == 1,
            "draws point windows": scenario["points"] > 0,
            "draws duplicates": scenario["duplicates"] > 0,
            "serves from several clients": scenario["clients"] > 1,
        })
    for fact in seen[0]:
        assert any(facts[fact] for facts in seen), f"no tier-1 seed {fact}"
    assert {RECOVERY_PATHS[seed] for seed in QUICK_SEEDS} == {"fast", "full"}


@pytest.mark.parametrize(
    "variant", [{"compression": "zlib"}, {"traced": True}], ids=["zlib", "traced"]
)
@pytest.mark.parametrize("seed", QUICK_SEEDS[:2])
def test_fuzz_variant(seed, variant):
    """Over zlib-compressed raw files, every path and the pool's decoded
    layer decode the per-page codec header alike; traced, every row equals
    the untraced reference (telemetry observes without perturbing)."""
    run_fuzz_scenario(seed, **variant)


# ---------------------------------------------------------------------- #
# Fault campaign: the same oracle under injected storage faults
# ---------------------------------------------------------------------- #

#: Seeds fault-fuzzed in every tier-1 run.
FAULT_QUICK_SEEDS = (0, 1)

#: Extra seeds fault-fuzzed in deep mode (``REPRO_FAULT_ITERATIONS=N``).
FAULT_DEEP_ITERATIONS = int(os.environ.get("REPRO_FAULT_ITERATIONS", "0"))
FAULT_DEEP_SEEDS = tuple(
    range(len(FAULT_QUICK_SEEDS), len(FAULT_QUICK_SEEDS) + FAULT_DEEP_ITERATIONS)
)


def run_fault_campaign(seed: int) -> None:
    """One scenario with every fork's backend a seeded fault injector
    (transient errors, in-flight bit-flips, torn writes) under the retry
    layer: no error may reach a client, and the rows must agree as in the
    plain run, although each row meets its faults in other places."""
    from repro.storage.retry import RetryingBackend, RetryPolicy

    plan = FaultPlan(
        seed=seed,
        read_error_rate=0.03,
        write_error_rate=0.03,
        corrupt_read_rate=0.02,
        torn_write_rate=0.02,
    )
    policy = RetryPolicy(max_attempts=8, seed=seed)

    def wrap(backend):
        return RetryingBackend(FaultInjectingBackend(backend, plan), policy, sleep=lambda _s: None)

    ctx = fuzz_context(0xFA17 + seed, wrap=wrap)
    tag = ctx.tag = f"fault seed {seed} ({ctx.scenario['n_queries']} queries)"
    runs = {name: row(ctx) for name, row in ROWS.items()}
    # Disarm before the byte-level comparison, like restarting on healthy
    # hardware; the retry layer has already proven it absorbs everything.
    injected = 0
    for name, run in runs.items():
        for engine in filter(None, (run.engine, run.reference and run.reference.engine)):
            retrying = engine.disk.backend
            retrying.inner.disarm()
            counters = retrying.inner.counters()
            injected += counters.transient_read_errors + counters.transient_write_errors
            injected += counters.reads_corrupted + counters.torn_writes
            retries = retrying.counters()
            assert retries.exhausted == 0, f"{tag}: {name} exhausted its retries"
            # CRC32 catches every flipped bit: no corrupt read went unseen.
            assert retries.corrupt_reads_detected >= counters.reads_corrupted, f"{tag}: {name}"
    assert injected > 0, f"{tag}: the campaign injected no faults at all"
    assert_oracle(tag, runs)


@pytest.mark.parametrize(
    "seed",
    FAULT_QUICK_SEEDS + tuple(pytest.param(s, marks=pytest.mark.slow) for s in FAULT_DEEP_SEEDS),
)
def test_fault_campaign(seed):
    """The tier-1 fault seeds, and in deep mode the extra ones."""
    run_fault_campaign(seed)
