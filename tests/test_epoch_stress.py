"""Concurrency battery for the epoch-snapshot (MVCC) read path.

Three properties are exercised, deterministically and under real thread
interleavings:

* **stale but consistent** — a reader pinned to an old epoch sees exactly
  the engine state captured at pin time: leaf runs decode to the same
  records even after refinement overwrote their pages in place (served
  from retained pre-image pages);
* **exactness under concurrency** — snapshot batches racing a
  sequentially-adapting mutator return precisely the answers a pristine
  engine gives for the same windows (query answers depend only on the
  data and the window — adaptation changes how data is read, never what
  matches);
* **refcounted release** — once all pins are dropped and the engine
  quiesces, the epoch chain collapses to the single current epoch and
  every retained pre-image page is freed (no leaked snapshots).

The scenario parameters are chosen so adaptation actually churns: small
windows over coarse initial partitions force refinement splits (in-place
page overwrites).
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.bench.runner import generate_workload
from repro.core.config import OdysseyConfig
from repro.core.epoch import EpochManager
from repro.core.odyssey import SpaceOdyssey
from repro.data.suite import build_benchmark_suite
from repro.storage.cost_model import DiskModel

from tests.oracle import packed_hits


def _churny_suite(n_datasets: int = 2, objects: int = 2500):
    """A suite whose workloads (below) trigger heavy refinement."""
    return build_benchmark_suite(
        n_datasets=n_datasets,
        objects_per_dataset=objects,
        seed=7,
        dimension=2,
        buffer_pages=16,
        model=DiskModel(seek_time_s=1e-4),
    )


def _workload(suite, n_queries: int, seed: int = 3, datasets_per_query: int = 2):
    return list(
        generate_workload(
            suite.universe,
            suite.catalog.dataset_ids(),
            n_queries,
            seed=seed,
            datasets_per_query=datasets_per_query,
            volume_fraction=1e-3,
        )
    )


CONFIG = OdysseyConfig(refinement_threshold=2.0, merge_threshold=1)


def _start_epochs(engine: SpaceOdyssey, query) -> EpochManager:
    """Run ``query`` as the engine's first snapshot read, which starts its epochs."""
    engine.query_batch([query], snapshot=True)
    return engine.epochs


class TestStaleButConsistent:
    def test_pinned_epoch_serves_pre_adaptation_state(self):
        """Leaf runs of a pinned epoch decode to the records captured at
        pin time, even after refinement overwrote their pages in place."""
        suite = _churny_suite()
        workload = _workload(suite, 40)
        engine = SpaceOdyssey(suite.fork().catalog, CONFIG)
        manager = _start_epochs(engine, workload[0])  # also initialises the trees
        pinned = manager.pin()
        # Capture every pinned leaf run's records through the live path
        # (nothing has mutated yet, so this IS the pinned content).
        captured = {}
        for dataset_id, snapshot in pinned.trees.items():
            for leaf_index, run in enumerate(snapshot.snapshot.runs):
                if run is not None and run.n_records:
                    captured[(dataset_id, leaf_index)] = snapshot.file.read_group_array(
                        run
                    ).copy()
        # Adapt hard: refinement splits overwrite partition pages in place.
        for query in workload[1:30]:
            engine.query(query.box, query.dataset_ids)
        versions = {d: t.version for d, t in engine.trees.items()}
        assert any(v > 1 for v in versions.values()), (
            f"scenario did not refine (versions {versions}); the test needs churn"
        )
        assert manager.gauges()["retained_pages"] > 0, (
            "refinement overwrote no pages? retention should have pre-images"
        )
        # The pinned snapshot must replay byte-identically via the overlay.
        for (dataset_id, leaf_index), expected in captured.items():
            snapshot = pinned.trees[dataset_id]
            run = snapshot.snapshot.runs[leaf_index]
            got = snapshot.file.read_group_array_at(run, pinned.lookup_page)
            assert np.array_equal(got, expected), (
                f"dataset {dataset_id} leaf {leaf_index}: pinned read diverged "
                f"from pin-time content"
            )
        manager.unpin(pinned)
        assert manager.gauges()["live_epochs"] == 1
        assert manager.gauges()["retained_pages"] == 0


class TestConcurrentStress:
    @pytest.mark.parametrize("readers", [2])
    def test_snapshot_batches_racing_adaptation_stay_exact(self, readers):
        """Reader threads running snapshot batches against an engine whose
        adaptive state a mutator thread is churning get exact answers —
        and afterwards the epoch chain is fully released."""
        suite = _churny_suite()
        mutator_load = _workload(suite, 60)
        reader_load = _workload(suite, 24, seed=11)
        truth_engine = SpaceOdyssey(suite.fork().catalog, CONFIG)
        truth = [
            packed_hits(
                truth_engine, truth_engine.query(query.box, query.dataset_ids)
            )
            for query in reader_load
        ]

        engine = SpaceOdyssey(suite.fork().catalog, CONFIG)
        engine.query(mutator_load[0].box, mutator_load[0].dataset_ids)
        errors: list[BaseException] = []
        start = threading.Barrier(readers + 1)

        def mutate() -> None:
            try:
                start.wait()
                for query in mutator_load[1:]:
                    engine.query(query.box, query.dataset_ids)
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def read(offset: int) -> None:
            try:
                start.wait()
                for round_no in range(3):
                    order = (
                        reader_load[offset:] + reader_load[:offset]
                        if round_no % 2
                        else reader_load
                    )
                    indices = (
                        list(range(offset, len(reader_load))) + list(range(offset))
                        if round_no % 2
                        else list(range(len(reader_load)))
                    )
                    for chunk_start in range(0, len(order), 6):
                        chunk = order[chunk_start : chunk_start + 6]
                        result = engine.query_batch(chunk, snapshot=True)
                        for position, hits in enumerate(result.results):
                            index = indices[chunk_start + position]
                            assert packed_hits(engine, hits) == truth[index], (
                                f"reader query {index} returned wrong hits "
                                f"under concurrent adaptation"
                            )
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=mutate, daemon=True)] + [
            threading.Thread(target=read, args=(r * 5,), daemon=True)
            for r in range(readers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads), "stress hung"
        assert not errors, f"concurrent stress raised: {errors!r}"

        # The readers' first snapshot reads raced to start the epochs: one won.
        assert engine.disk._snapshot_sinks == [engine.epochs]
        gauges = engine.epochs.gauges()
        assert gauges["pinned_readers"] == 0, "a pin leaked"
        assert gauges["live_epochs"] == 1, (
            f"epoch chain not released: {gauges['live_epochs']} epochs alive"
        )
        assert gauges["retained_pages"] == 0, "retained pre-image pages leaked"


class TestRefcountDiscipline:
    def test_unpinned_epoch_freed_pinned_epoch_kept(self):
        suite = _churny_suite(objects=600)
        workload = _workload(suite, 10)
        engine = SpaceOdyssey(suite.fork().catalog, CONFIG)
        manager = _start_epochs(engine, workload[0])
        old = manager.pin()
        for query in workload[1:5]:
            engine.query(query.box, query.dataset_ids)
        # The pinned epoch anchors the chain: everything from it forward
        # stays alive, no matter how many epochs were published since.
        assert manager.gauges()["live_epochs"] >= 5
        current = manager.pin()
        manager.unpin(old)
        assert manager.gauges()["live_epochs"] == 1, "chain must collapse to current"
        manager.unpin(current)
        gauges = manager.gauges()
        assert gauges["live_epochs"] == 1 and gauges["pinned_readers"] == 0

    def test_unbalanced_unpin_rejected(self):
        suite = _churny_suite(objects=300)
        engine = SpaceOdyssey(suite.fork().catalog, CONFIG)
        manager = _start_epochs(engine, _workload(suite, 1)[0])
        epoch = manager.pin()
        manager.unpin(epoch)
        with pytest.raises(RuntimeError):
            manager.unpin(epoch)



class TestLazyEpochs:
    def test_no_epoch_machinery_until_a_snapshot_read(self, monkeypatch):
        """Live reads of every kind start nothing: no manager, no sink, no
        publish, and no backend read beyond the charged reads and the
        post-write re-caches.  The first snapshot read starts the epochs,
        and from then on every commit publishes."""
        suite = _churny_suite(objects=600)
        workload = _workload(suite, 40)
        engine = SpaceOdyssey(suite.fork().catalog, CONFIG)
        disk = engine.disk
        published: list[int] = []
        publish = EpochManager.publish

        def recording_publish(manager, trees, directory):
            epoch = publish(manager, trees, directory)
            published.append(epoch.epoch_id)
            return epoch

        monkeypatch.setattr(EpochManager, "publish", recording_publish)
        backend_reads = []
        backend_class = type(disk.backend)
        read = backend_class.read

        def counting_read(backend, name, page_no):
            backend_reads.append((name, page_no))
            return read(backend, name, page_no)

        monkeypatch.setattr(backend_class, "read", counting_read)
        start = disk.stats_snapshot()
        for query in workload[:10]:
            engine.query(query.box, query.dataset_ids)
        engine.query_batch(workload[10:15])
        engine.query_batch(workload[15:20], workers=2)
        with engine.serve(max_batch=4, max_delay_ms=1) as service:
            for submission in [service.submit(q.box, q.dataset_ids) for q in workload[20:25]]:
                submission.result(timeout=60)
        summary = engine.summary()
        assert summary.queries_executed == 25
        first_level = len(engine.trees) * CONFIG.partitions_per_level
        assert summary.total_partitions > first_level, (
            "the scenario never refined; the guard needs in-place overwrites"
        )
        assert engine.epochs is None
        assert disk._snapshot_sinks == []
        assert published == []
        io = disk.stats_snapshot().delta_since(start)
        assert len(backend_reads) == io.pages_read + io.pages_written

        engine.query_batch(workload[25:28], snapshot=True)
        manager = engine.epochs
        assert manager is not None
        assert disk._snapshot_sinks == [manager]
        assert published and published == sorted(set(published))

        def assert_published_since(last_id: int) -> int:
            assert published[-1] > last_id
            assert published == sorted(set(published))
            return published[-1]

        last = published[-1]
        engine.query(workload[28].box, workload[28].dataset_ids)
        last = assert_published_since(last)
        engine.query_batch(workload[29:32])
        last = assert_published_since(last)
        engine.query_batch(workload[32:35], workers=2)
        last = assert_published_since(last)
        with engine.serve(max_batch=4, max_delay_ms=1) as service:
            service.query(workload[35].box, workload[35].dataset_ids, timeout=60)
        last = assert_published_since(last)
        prepared = engine.prepare_batch(workload[36:38])
        engine.commit_batch(prepared)
        assert_published_since(last)
        assert manager.current.epoch_id == published[-1]
