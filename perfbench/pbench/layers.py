"""Per-layer metrics of one traced pass.

``_s`` metrics are *self* time (a span's duration minus its children's)
unless the name says ``_total_s`` (inclusive).  A metric that does not
apply to a workload (no journal, no service) reads 0.
"""

from __future__ import annotations

import statistics

from pbench.tracing import LayerTotals, Recorder
from pbench.workloads import PassSample, Workload


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    workload: Workload,
    sample: PassSample,
    recorder: Recorder,
    totals: dict[str, LayerTotals],
    ingest_totals: dict[str, LayerTotals],
) -> dict[str, float]:
    """Every per-layer metric, from the traced pass's ``totals`` (and the traced ingest's)."""
    nothing = LayerTotals()

    def self_s(*names: str) -> float:
        return sum(totals.get(name, nothing).self_s for name in names)

    def total_s(name: str) -> float:
        return totals.get(name, nothing).total_s

    def calls(name: str) -> int:
        return totals.get(name, nothing).calls

    operations = len(sample.latencies)
    io = sample.io
    buffer = sample.buffer
    page_size = workload.engine.disk.page_size
    commits = recorder.spans("core.epoch.commit")
    if sample.reports:
        partitions = sum(r.partitions_read for r in sample.reports)
        examined = sum(r.objects_examined for r in sample.reports)
        results = sum(r.results for r in sample.reports)
    else:  # serve: the reports travel inside the committed batches
        partitions = sum(span[5]["partitions"] for span in commits)
        examined = sum(span[5]["examined"] for span in commits)
        results = sum(span[5]["results"] for span in commits)
    mergeable = [r for r in sample.reports if len(r.requested) >= 3]
    merges = sum(1 for r in sample.reports if r.merged)
    ingest_s = statistics.median(workload.ingest_times)
    epochs = workload.engine.epochs
    metrics = {
        "data.generator.ingest_s": ingest_s,
        "data.generator.objects_per_s": _ratio(
            workload.scale.n_datasets * workload.scale.objects_per_dataset, ingest_s
        ),
        "storage.codec.encode_s": self_s("storage.codec.encode")
        + ingest_totals.get("storage.codec.encode", nothing).self_s,
        "storage.codec.compressed_ratio": _ratio(workload.ingest_bytes, workload.raw_user_bytes),
        "storage.codec.decode_s": self_s("storage.codec.decode"),
        "storage.codec.pages_decoded": calls("storage.codec.decode"),
        "storage.disk.read_s": self_s("storage.disk.read"),
        "storage.disk.write_s": self_s("storage.disk.write"),
        "storage.disk.pages_read": io["pages_read"],
        "storage.disk.pages_written": io["pages_written"],
        "storage.disk.seeks": io["seeks"],
        "storage.disk.sim_io_ms_per_q": _ratio(io["io_seconds"] * 1e3, operations),
        "storage.disk.retries": io["retries"],
        "storage.buffer.hit_ratio": _ratio(buffer["hits"], buffer["hits"] + buffer["misses"]),
        "storage.buffer.decoded_hit_ratio": _ratio(
            buffer["decoded_hits"], buffer["decoded_hits"] + buffer["decoded_misses"]
        ),
        "storage.buffer.evictions": buffer["evictions"],
        "storage.backend.read_s": self_s("storage.backend.read"),
        "storage.backend.write_s": self_s("storage.backend.write"),
        "storage.backend.bytes_written": calls("storage.backend.write") * page_size,
        "storage.pagedfile.read_s": self_s("storage.pagedfile.read"),
        "storage.pagedfile.write_s": self_s("storage.pagedfile.write"),
        "storage.journal.commit_s": self_s("storage.journal.commit"),
        "storage.journal.commits": calls("storage.journal.commit"),
        "storage.journal.bytes_per_commit": _ratio(
            sample.extra.get("journal_bytes", 0), calls("storage.journal.commit")
        ),
        "storage.journal.rewrite_s": self_s("storage.journal.rewrite"),
        "storage.journal.rewrites": calls("storage.journal.rewrite"),
        "core.partition.overlap_s": self_s("core.partition.overlap"),
        "core.partition.snapshot_s": self_s("core.partition.snapshot"),
        "core.partition.leaves_per_q": _ratio(partitions, operations),
        "core.adaptor.init_total_s": total_s("core.adaptor.init"),
        "core.adaptor.refine_s": self_s("core.adaptor.maybe_refine", "core.adaptor.refine"),
        "core.adaptor.refine_total_s": total_s("core.adaptor.maybe_refine"),
        "core.adaptor.refinements": calls("core.adaptor.refine"),
        "core.adaptor.refine_ratio": _ratio(
            calls("core.adaptor.refine"), calls("core.adaptor.maybe_refine")
        ),
        "core.statistics.record_s": self_s("core.statistics.record"),
        "core.merge.route_s": self_s("core.merge.route"),
        "core.merge.merge_route_ratio": _ratio(
            sum(1 for r in mergeable if r.used_merge_file), len(mergeable)
        ),
        "core.merger.maybe_merge_s": self_s("core.merger.maybe_merge"),
        "core.merger.merge_total_s": total_s("core.merger.maybe_merge"),
        "core.merger.merges": merges,
        "core.merger.merge_ratio": _ratio(merges, calls("core.merger.maybe_merge")),
        "core.merger.merge_pages": workload.engine.summary().merge_pages,
        "core.epoch.publish_s": self_s("core.epoch.publish"),
        "core.epoch.prepare_s": self_s("core.epoch.prepare"),
        "core.epoch.commit_s": self_s("core.epoch.commit"),
        "core.epoch.retained_pages": epochs.gauges()["retained_pages"] if epochs else 0,
        "core.query_processor.self_s": self_s("core.query_processor.execute"),
        "core.query_processor.examined_per_hit": _ratio(examined, results),
        "core.query_processor.direct_qps": 0.0,
        "core.batch.read_s": self_s("core.batch.read"),
        "core.batch.direct_qps": 0.0,
        "core.recovery.record_s": self_s("core.recovery.record"),
        "core.recovery.recover_s": total_s("core.recovery.recover"),
        "core.recovery.replayed_queries": (
            workload.scale.durable_queries if calls("core.recovery.recover") else 0
        ),
        "data.columnar.decode_group_s": self_s("data.columnar.decode_group"),
        "data.columnar.materialize_s": self_s("data.columnar.materialize"),
        "data.columnar.objects_materialized": results,
        "geometry.vectorized.mask_s": self_s("geometry.vectorized.mask"),
        "geometry.vectorized.grid_s": self_s("geometry.vectorized.grid"),
        "serve.service.submit_s": self_s("serve.service.submit"),
        "serve.service.queue_wait_ms_p50": 0.0,
        "serve.service.commit_wait_ms_p50": 0.0,
        "serve.service.batch_size_mean": 0.0,
        "serve.service.size_flush_ratio": 0.0,
        "serve.service.failed": 0,
        "serve.service.efficiency": 0.0,
        "serve.service.overlap_ratio": 0.0,
        "perfbench.trace_coverage": _ratio(
            sum(entry.self_s for entry in totals.values()), sample.wall
        ),
    }
    if "submitted_at" in sample.extra:
        metrics.update(_service_metrics(workload.queries, sample, recorder, commits))
    return metrics


def _service_metrics(
    requests: list, sample: PassSample, recorder: Recorder, commits: list
) -> dict[str, float]:
    """Where a served request waited: before its batch, and between stages."""
    extra = sample.extra
    prepares = recorder.spans("core.epoch.prepare")
    # perf_counter timestamps are comparable across the process's threads.
    prepare_began = {box_id: span[1] for span in prepares for box_id in span[5]["boxes"]}
    prepared_end = {span[5]["prepared"]: span[1] + span[2] for span in prepares}
    queue_waits = [
        prepare_began[id(box)] - sent
        for (box, _ids), sent in zip(requests, extra["submitted_at"])
        if id(box) in prepare_began
    ]
    commit_waits = [
        span[1] - prepared_end[span[5]["prepared"]]
        for span in commits
        if span[5]["prepared"] in prepared_end
    ]
    busy = sum(span[2] for span in prepares) + sum(span[2] for span in commits)
    return {
        "serve.service.queue_wait_ms_p50": statistics.median(queue_waits) * 1e3 if queue_waits else 0.0,
        "serve.service.commit_wait_ms_p50": statistics.median(commit_waits) * 1e3 if commit_waits else 0.0,
        "serve.service.batch_size_mean": _ratio(extra["queries_batched"], extra["batches"]),
        "serve.service.size_flush_ratio": _ratio(extra["size_flushes"], extra["batches"]),
        "serve.service.failed": extra["failed"] + extra["wrong"] + extra["anomalies"],
        "serve.service.overlap_ratio": _ratio(busy, sample.wall),
    }
