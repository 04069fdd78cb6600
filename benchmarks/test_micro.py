"""Micro-benchmarks of the substrate components (real wall time).

Unlike the figure benchmarks (whose metric is *simulated* disk time), these
measure the actual Python execution speed of the building blocks: binary
codecs, STR packing, partition refinement, grid builds, query routing —
and the batched query engine, whose whole point is wall-clock speed
(vectorized overlap tests and filtering, page reads deduplicated across
the batch).  They are the benchmarks a contributor watches when optimising
the library itself.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np
import pytest

from repro.baselines.grid import GridIndex
from repro.baselines.rtree import STRRTree
from repro.baselines.str_packing import record_centers, str_sort_tile
from repro.bench.runner import generate_workload
from repro.core.adaptor import Adaptor
from repro.core.config import OdysseyConfig
from repro.core.odyssey import SpaceOdyssey
from repro.data.dataset import Dataset
from repro.data.generator import NeuroscienceDatasetGenerator, brain_universe
from repro.data.spatial_object import spatial_object_codec
from repro.data.suite import build_benchmark_suite
from repro.geometry.box import Box
from repro.geometry.vectorized import intersect_mask, intersect_matrix
from repro.storage.codec import decode_page, encode_page
from repro.storage.cost_model import DiskModel
from repro.storage.disk import Disk

from tests.generator_reference import ReferenceNeuroscience
from tests.scalar_reference import ScalarOdyssey


@pytest.fixture(scope="module")
def universe() -> Box:
    return brain_universe()


@pytest.fixture(scope="module")
def objects(universe):
    generator = NeuroscienceDatasetGenerator(universe, seed=3)
    return list(generator.objects(dataset_id=0, count=5_000))


@pytest.fixture
def disk() -> Disk:
    return Disk(model=DiskModel(), buffer_pages=0)


@pytest.mark.benchmark(group="micro-codec")
def test_encode_decode_page(benchmark, objects):
    codec = spatial_object_codec(3)
    batch = objects[:63]

    def roundtrip():
        return decode_page(codec, encode_page(codec, batch, 4096))

    result = benchmark(roundtrip)
    assert len(result) == len(batch)


@pytest.mark.benchmark(group="micro-str")
def test_str_sort_tile_5k_objects(benchmark, universe):
    centers = record_centers(NeuroscienceDatasetGenerator(universe, seed=3).object_array(0, 5_000))
    leaves = benchmark(lambda: str_sort_tile(centers, leaf_capacity=63))
    assert sum(len(leaf) for leaf in leaves) == len(centers)


@pytest.mark.benchmark(group="micro-generator")
def test_neuroscience_generation_rate(benchmark, universe):
    generator = NeuroscienceDatasetGenerator(universe, seed=9)
    result = benchmark(lambda: generator.object_array(0, 2_000))
    assert len(result) == 2_000


#: ``object_array`` against the per-object reference ``objects()``; measured
#: 3.1–3.6x over 20 000 objects in five runs (per-object 638–747 ms, array
#: 180–210 ms; 2-core KVM guest, Python 3.11.7, NumPy 2.4.6).
GENERATOR_SPEEDUP_MIN = 2.0


@pytest.mark.benchmark(group="micro-generator")
def test_generator_array_speedup(universe):
    """``object_array`` must be >= 2x the per-object path it replaced.

    The reference is ``tests/generator_reference.py``'s ``objects()`` —
    the same draws, one validated ``SpatialObject`` at a time.  Both build
    the same 20 000 objects of one dataset (``tests/test_data_generator.py``
    holds the bytes equal); the ratio is that of each side's best of five
    runs, so a burst of load from another process slows at most the runs
    it overlaps, not the estimate.  The scalar draws, which the array path
    keeps to preserve the stream, bound the gain.
    """
    count = 20_000
    reference = ReferenceNeuroscience(universe, seed=9)
    generator = NeuroscienceDatasetGenerator(universe, seed=9)

    def per_object() -> float:
        return timed(lambda: sum(1 for _ in reference.objects(0, count)))

    def array() -> float:
        return timed(lambda: generator.object_array(0, count))

    per_object_seconds, array_seconds = best_of(5, per_object), best_of(5, array)
    ratio = per_object_seconds / array_seconds
    print(
        f"\ngeneration of {count} objects: per-object {per_object_seconds * 1e3:.0f} ms, "
        f"object_array {array_seconds * 1e3:.0f} ms, best-of-5 ratio {ratio:.2f}x"
    )
    assert ratio >= GENERATOR_SPEEDUP_MIN, (
        f"object_array speedup {ratio:.2f}x is below the {GENERATOR_SPEEDUP_MIN:g}x acceptance bar"
    )


@pytest.mark.benchmark(group="micro-build")
def test_grid_build_wall_time(benchmark, universe, objects):
    def build():
        disk = Disk(model=DiskModel(), buffer_pages=0)
        dataset = Dataset.create(disk, 0, "micro_grid", objects, universe)
        grid = GridIndex(disk, "micro_grid_idx", universe, cells_per_dim=10)
        grid.build([dataset])
        return grid

    grid = benchmark.pedantic(build, rounds=3, iterations=1)
    assert grid.n_objects == len(objects)


@pytest.mark.benchmark(group="micro-build")
def test_rtree_build_wall_time(benchmark, universe, objects):
    def build():
        disk = Disk(model=DiskModel(), buffer_pages=0)
        dataset = Dataset.create(disk, 0, "micro_rtree", objects, universe)
        tree = STRRTree(disk, "micro_rtree_idx", universe)
        tree.build([dataset])
        return tree

    tree = benchmark.pedantic(build, rounds=3, iterations=1)
    assert tree.n_objects == len(objects)


@pytest.mark.benchmark(group="micro-odyssey")
def test_initial_partitioning_wall_time(benchmark, universe, objects):
    def initialize():
        disk = Disk(model=DiskModel(), buffer_pages=0)
        dataset = Dataset.create(disk, 0, "micro_ody", objects, universe)
        adaptor = Adaptor(OdysseyConfig())
        tree = adaptor.create_tree(dataset)
        adaptor.initialize(tree)
        return tree

    tree = benchmark.pedantic(initialize, rounds=3, iterations=1)
    assert tree.n_objects == len(objects)


# --------------------------------------------------------------------------- #
# Columnar and batched query execution
# --------------------------------------------------------------------------- #
#
# Both engines trade per-query Python work for NumPy kernels, so their
# benefit is *steady-state throughput*: the suite below converges the
# adaptive engine first (one full pass of the workload pays initial
# partitioning and refinement), then measures the same workload again.
# The common baseline of every speedup assertion is the *scalar reference
# engine* (``tests.scalar_reference.ScalarOdyssey``) — the seed
# implementation that decodes records with per-record ``struct.unpack`` and
# filters in Python loops.  Two acceptance bars are enforced:
#
# * sequential columnar execution >= 1.5x the scalar path (measured 6.2x);
# * query_batch at batch size 32 >= 2x the scalar path (measured 6.5x);
#
# and a third bounds what observing that work may cost:
#
# * a traced batched pass <= 1.25x the untraced pass (measured 1.07x).
#
# The bars are constants, always on.  Every other wall-clock question
# (how fast, how much faster than the parent) goes through perfbench.

BATCH_WORKLOAD_SEED = 23
BATCH_SIZE = 32
SEQ_SPEEDUP_MIN = 1.5
BATCH_SPEEDUP_MIN = 2.0
OBS_OVERHEAD_MAX = 1.25


@pytest.fixture(scope="module")
def batch_suite():
    return build_benchmark_suite(
        n_datasets=5,
        objects_per_dataset=12_000,
        seed=17,
        buffer_pages=0,
        model=DiskModel(),
    )


@pytest.fixture(scope="module")
def batch_workload(batch_suite):
    return list(
        generate_workload(
            batch_suite.universe,
            batch_suite.catalog.dataset_ids(),
            64,
            seed=BATCH_WORKLOAD_SEED,
            datasets_per_query=2,
            volume_fraction=5e-3,
            ranges="uniform",
            ids_distribution="uniform",
        )
    )


def timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def best_of(repeats: int, fn) -> float:
    return min(fn() for _ in range(repeats))


def sequential_pass(odyssey: SpaceOdyssey, workload) -> None:
    for query in workload:
        odyssey.query(query.box, query.dataset_ids)


def _converged_engine(batch_suite, batch_workload, engine_class=SpaceOdyssey) -> SpaceOdyssey:
    """A fresh engine whose adaptive state has settled on the workload."""
    odyssey = engine_class(batch_suite.fork().catalog)
    sequential_pass(odyssey, batch_workload)
    return odyssey


def _timed_pass(odyssey: SpaceOdyssey, workload) -> float:
    return timed(lambda: sequential_pass(odyssey, workload))


@pytest.mark.benchmark(group="micro-batch")
def test_batch_query_throughput(benchmark, batch_suite, batch_workload):
    """Wall time of one 32-query batch through the batched engine."""
    odyssey = _converged_engine(batch_suite, batch_workload)
    chunk = batch_workload[:BATCH_SIZE]

    result = benchmark(lambda: odyssey.query_batch(chunk))
    assert result.total_results() > 0
    benchmark.extra_info["group_reads"] = result.group_reads
    benchmark.extra_info["group_reads_deduped"] = result.group_reads_deduped


@pytest.mark.benchmark(group="micro-seq")
def test_sequential_columnar_speedup(batch_suite, batch_workload):
    """The columnar sequential path must be >= 1.5x the scalar reference.

    Both engines start from identical converged state (forks of the same
    suite, each warmed by one pass — the reference and the engine produce
    byte-identical adaptive state, which the engine oracle in
    ``tests/test_engine_fuzz.py`` enforces); the timed region is
    a full sequential pass over the 64-query uniform workload, best of
    three.
    """
    scalar = _converged_engine(batch_suite, batch_workload, ScalarOdyssey)
    columnar = _converged_engine(batch_suite, batch_workload)

    # Interleave a warm-up of each path before timing.
    _timed_pass(scalar, batch_workload)
    _timed_pass(columnar, batch_workload)
    scalar_seconds = best_of(3, lambda: _timed_pass(scalar, batch_workload))
    columnar_seconds = best_of(3, lambda: _timed_pass(columnar, batch_workload))
    speedup = scalar_seconds / columnar_seconds
    print(
        f"\nsequential execution: scalar {scalar_seconds * 1e3:.1f} ms, "
        f"columnar {columnar_seconds * 1e3:.1f} ms, speedup {speedup:.2f}x"
    )
    assert speedup >= SEQ_SPEEDUP_MIN, (
        f"columnar sequential speedup {speedup:.2f}x is below the "
        f"{SEQ_SPEEDUP_MIN:g}x acceptance bar"
    )


@pytest.mark.benchmark(group="micro-batch")
def test_batched_execution_speedup(batch_suite, batch_workload):
    """query_batch at batch size 32 must be >= 2x the scalar per-query path.

    Both engines start from identical converged state (forks of the same
    suite, warmed by one pass); the timed region is a full pass over the
    64-query uniform workload.  The baseline is the scalar reference
    engine — the per-query execution model the batched engine was measured
    against when its bar was set (the sequential path itself is columnar
    and covered by its own bar above).  Best-of-three timings keep the
    comparison robust against scheduler noise.
    """
    sequential = _converged_engine(batch_suite, batch_workload, ScalarOdyssey)
    batched = _converged_engine(batch_suite, batch_workload)

    def run_batched() -> float:
        start = time.perf_counter()
        for offset in range(0, len(batch_workload), BATCH_SIZE):
            batched.query_batch(batch_workload[offset : offset + BATCH_SIZE])
        return time.perf_counter() - start

    # Interleave a warm-up of each path before timing.
    _timed_pass(sequential, batch_workload)
    run_batched()
    sequential_seconds = best_of(3, lambda: _timed_pass(sequential, batch_workload))
    batched_seconds = best_of(3, run_batched)
    speedup = sequential_seconds / batched_seconds
    print(
        f"\nbatched execution: scalar sequential {sequential_seconds * 1e3:.1f} ms, "
        f"batch({BATCH_SIZE}) {batched_seconds * 1e3:.1f} ms, "
        f"speedup {speedup:.2f}x"
    )
    assert speedup >= BATCH_SPEEDUP_MIN, (
        f"batched execution speedup {speedup:.2f}x at batch size {BATCH_SIZE} "
        f"is below the {BATCH_SPEEDUP_MIN:g}x acceptance bar"
    )


@pytest.mark.benchmark(group="micro-obs")
def test_tracing_overhead(batch_suite, batch_workload):
    """Per-phase tracing must not materially slow the batched engine.

    The same converged engine runs the 64-query workload batched with
    and without a tracer attached (ample ring capacity so no eviction
    churn).  The ratio is the median over nine (untraced, traced) pairs
    of passes run back to back, each from a collected heap.  Pairing is
    what makes the constant bar hold on a shared host whose speed moves
    by a third for seconds at a time: the ratio of two consecutive
    best-of-five blocks left the bar in one run of twenty (1.27x), the
    paired median stayed within 1.01–1.15x over thirty.  The telemetry
    contract is observation-only, so beyond wall clock the test also
    checks the traced pass recorded spans.
    """
    engine = _converged_engine(batch_suite, batch_workload)
    spans = 0

    def run_batched() -> float:
        gc.collect()
        start = time.perf_counter()
        for offset in range(0, len(batch_workload), BATCH_SIZE):
            engine.query_batch(batch_workload[offset : offset + BATCH_SIZE])
        return time.perf_counter() - start

    def run_traced() -> float:
        nonlocal spans
        tracer = engine.enable_tracing(capacity=65536)
        try:
            return run_batched()
        finally:
            spans = len(tracer) + tracer.evicted
            engine.disable_tracing()

    run_batched(), run_traced()  # warm both paths
    pairs = [(run_batched(), run_traced()) for _ in range(9)]
    ratio = statistics.median(traced / untraced for untraced, traced in pairs)
    untraced_seconds, traced_seconds = map(min, zip(*pairs))
    print(
        f"\ntracing overhead: untraced {untraced_seconds * 1e3:.1f} ms, "
        f"traced {traced_seconds * 1e3:.1f} ms, paired ratio {ratio:.3f}x "
        f"({spans} spans recorded)"
    )
    assert spans > 0, "traced pass recorded no spans"
    assert ratio <= OBS_OVERHEAD_MAX, (
        f"tracing overhead ratio {ratio:.3f}x is above the "
        f"{OBS_OVERHEAD_MAX:g}x acceptance bar"
    )


@pytest.mark.benchmark(group="micro-batch")
def test_batch_overlap_kernel_beats_one_mask_per_window():
    """One ``intersect_matrix`` call must cost < 0.5x one ``intersect_mask`` per window.

    A host-independent ratio at leaf-snapshot size and layout (3 000
    column-major MBRs, 32 windows): the batch engine's only reason to
    resolve a combination group's windows together is that one kernel call
    is cheaper than 32.  With the kernels reducing over ``d`` it was not
    (1.05x); accumulating over the long axis it is ~0.25x.
    """
    rng = np.random.default_rng(5)
    lo = np.asfortranarray(rng.random((3_000, 3)))
    hi = np.asfortranarray(lo + 0.05)
    q_lo = rng.random((BATCH_SIZE, 3))
    q_hi = q_lo + 0.1

    def one_by_one():
        return [intersect_mask(q_lo[i], q_hi[i], lo, hi) for i in range(BATCH_SIZE)]

    def together():
        return intersect_matrix(q_lo, q_hi, lo, hi)

    assert np.array_equal(np.array(one_by_one()), together())
    rounds = range(20)  # one matrix call is ~50 us: time twenty per sample
    masks_seconds = best_of(5, lambda: timed(lambda: [one_by_one() for _ in rounds]))
    matrix_seconds = best_of(5, lambda: timed(lambda: [together() for _ in rounds]))
    ratio = matrix_seconds / masks_seconds
    print(
        f"\noverlap kernels at n=3000: {BATCH_SIZE} masks {masks_seconds / 20 * 1e6:.0f} us, "
        f"one matrix {matrix_seconds / 20 * 1e6:.0f} us, ratio {ratio:.2f}x"
    )
    assert ratio < 0.5, f"intersect_matrix costs {ratio:.2f}x {BATCH_SIZE} intersect_mask calls"


@pytest.mark.benchmark(group="micro-batch")
def test_batch_read_dedup_on_repeated_region(batch_suite):
    """Duplicate windows in one batch must be served from the shared read set."""
    odyssey = SpaceOdyssey(batch_suite.fork().catalog)
    universe = batch_suite.universe
    region = Box.cube(universe.center, universe.side(0) * 0.1).clamp(universe)
    result = odyssey.query_batch([(region, (0, 1))] * 8)
    assert result.group_reads_deduped >= result.group_reads * 0.8


@pytest.mark.benchmark(group="micro-odyssey")
def test_refinement_wall_time(benchmark, universe, objects, disk):
    dataset = Dataset.create(disk, 0, "micro_refine", objects, universe)
    adaptor = Adaptor(OdysseyConfig())

    def refine_hottest():
        tree = adaptor.create_tree(dataset)
        adaptor.initialize(tree)
        adaptor.refine(tree, int(np.argmax(tree.leaf_snapshot().n_records)))
        return tree

    tree = benchmark.pedantic(refine_hottest, rounds=3, iterations=1)
    assert tree.depth == 2
