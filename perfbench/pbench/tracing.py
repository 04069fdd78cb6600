"""Spans around the layers' public callables, recorded from the harness.

Nothing under ``src/`` knows about this module: :class:`Instrumentation`
patches wrappers onto the classes and module namespaces named in
:data:`TARGETS` for the duration of one traced pass and puts the
originals back afterwards.  A target that no longer exists is skipped
(and listed in ``Instrumentation.missing``), so a refactor of the engine
can make a per-layer number disappear but can never break the untraced
end-to-end run, which does not import this table at all.

A span is ``(name, start, duration, self time, depth, attrs)``; spans
nest through a per-thread stack and a span's *self* time is its duration
minus the time covered by its children on the same thread.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import threading
import time
from dataclasses import dataclass


def _prepare_attrs(args, result):
    # args = (engine, queries); box identity ties a batch to its submissions.
    return {"boxes": [id(query[0]) for query in args[1]], "prepared": id(result)}


def _commit_attrs(args, result):
    reports = result.reports
    return {
        "prepared": id(args[1]),
        "queries": len(reports),
        "partitions": sum(r.partitions_read for r in reports),
        "examined": sum(r.objects_examined for r in reports),
        "results": sum(r.results for r in reports),
    }


#: (span name, module, class or None, attribute, attrs function or None).
#: Several callables may share one span name: a layer's entry points.
TARGETS = (
    ("storage.codec.encode", "repro.storage.codec", None, "encode_page", None),
    ("storage.codec.encode", "repro.storage.codec", None, "paginate_array", None),
    ("storage.codec.encode", "repro.storage.codec", None, "paginate_bytes_compressed", None),
    ("storage.codec.decode", "repro.storage.codec", None, "decode_page_array", None),
    ("storage.codec.decode", "repro.storage.codec", None, "decode_page", None),
    ("storage.disk.read", "repro.storage.disk", "Disk", "read_page", None),
    ("storage.disk.read", "repro.storage.disk", "Disk", "read_run", None),
    ("storage.disk.read", "repro.storage.disk", "Disk", "read_run_at", None),
    ("storage.disk.write", "repro.storage.disk", "Disk", "write_page", None),
    ("storage.disk.write", "repro.storage.disk", "Disk", "append_page", None),
    ("storage.disk.write", "repro.storage.disk", "Disk", "append_run", None),
    ("storage.backend.read", "repro.storage.backend", "InMemoryBackend", "read", None),
    ("storage.backend.read", "repro.storage.backend", "FileSystemBackend", "read", None),
    ("storage.backend.write", "repro.storage.backend", "InMemoryBackend", "write", None),
    ("storage.backend.write", "repro.storage.backend", "InMemoryBackend", "append", None),
    ("storage.backend.write", "repro.storage.backend", "FileSystemBackend", "write", None),
    ("storage.backend.write", "repro.storage.backend", "FileSystemBackend", "append", None),
    ("storage.pagedfile.read", "repro.storage.pagedfile", "PagedFile", "read_group_array", None),
    ("storage.pagedfile.read", "repro.storage.pagedfile", "PagedFile", "read_group_array_at", None),
    ("storage.pagedfile.read", "repro.storage.pagedfile", "PagedFile", "scan_arrays", None),
    ("storage.pagedfile.write", "repro.storage.pagedfile", "PagedFile", "append_group", None),
    ("storage.pagedfile.write", "repro.storage.pagedfile", "PagedFile", "append_group_array", None),
    ("storage.pagedfile.write", "repro.storage.pagedfile", "PagedFile", "write_groups_array", None),
    ("storage.journal.commit", "repro.storage.journal", "ManifestJournal", "commit", None),
    ("storage.journal.rewrite", "repro.storage.journal", "ManifestJournal", "rewrite", None),
    ("core.partition.overlap", "repro.core.partition", "PartitionTree", "leaves_overlapping_vectorized", None),
    ("core.partition.overlap", "repro.core.partition", "PartitionTree", "leaves_overlapping_batch", None),
    ("core.partition.overlap", "repro.core.partition", "TreeEpochSnapshot", "overlapping_batch", None),
    ("core.partition.snapshot", "repro.core.partition", "PartitionTree", "leaf_snapshot", None),
    ("core.partition.snapshot", "repro.core.partition", "PartitionTree", "epoch_snapshot", None),
    ("core.adaptor.init", "repro.core.adaptor", "Adaptor", "initialize", None),
    ("core.adaptor.maybe_refine", "repro.core.adaptor", "Adaptor", "maybe_refine", None),
    ("core.adaptor.refine", "repro.core.adaptor", "Adaptor", "refine", None),
    ("core.statistics.record", "repro.core.statistics", "StatisticsCollector", "record_query", None),
    ("core.merge.route", "repro.core.merge", None, "choose_route", None),
    ("core.merger.maybe_merge", "repro.core.merger", "Merger", "maybe_merge", None),
    ("core.epoch.publish", "repro.core.epoch", "EpochManager", "publish", None),
    ("core.epoch.prepare", "repro.core.odyssey", "SpaceOdyssey", "prepare_batch", _prepare_attrs),
    ("core.epoch.commit", "repro.core.odyssey", "SpaceOdyssey", "commit_batch", _commit_attrs),
    ("core.query_processor.execute", "repro.core.query_processor", "QueryProcessor", "execute", None),
    ("core.query_processor.execute", "repro.core.query_processor", "QueryProcessor", "execute_batch", None),
    ("core.batch.read", "repro.core.batch", "BatchReadSet", "read", None),
    ("core.batch.read", "repro.core.parallel", "ParallelReadSet", "read", None),
    ("core.recovery.record", "repro.core.recovery", "DurabilityLog", "record", None),
    ("core.recovery.recover", "repro.core.odyssey", "SpaceOdyssey", "recover", None),
    ("data.generator.create", "repro.data.dataset", "Dataset", "create", None),
    ("data.columnar.decode_group", "repro.data.columnar", "DecodedGroup", "from_records", None),
    ("data.columnar.materialize", "repro.data.columnar", "DecodedGroup", "materialize", None),
    ("geometry.vectorized.mask", "repro.geometry.vectorized", None, "intersect_mask", None),
    ("geometry.vectorized.mask", "repro.geometry.vectorized", None, "intersect_matrix", None),
    ("geometry.vectorized.grid", "repro.geometry.vectorized", None, "grid_child_indices", None),
    ("serve.service.submit", "repro.serve.service", "QueryService", "submit", None),
)


@dataclass
class LayerTotals:
    """Aggregate of every span sharing one name."""

    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0


class Recorder:
    """Collects finished spans, one append-only list per thread."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._per_thread: list[list[tuple]] = []

    def _thread_state(self) -> tuple[list, list]:
        stack: list = []
        out: list = []
        self._local.stack = stack
        self._local.out = out
        with self._lock:
            self._per_thread.append(out)
        return stack, out

    def clear(self) -> None:
        """Forget every recorded span (between the traced ingest and pass)."""
        with self._lock:
            for out in self._per_thread:
                del out[:]

    def threads(self) -> list[list[tuple]]:
        """Per-thread span lists, each in completion (post-) order."""
        with self._lock:
            return [list(out) for out in self._per_thread]

    def spans(self, name: str) -> list[tuple]:
        """Every finished span called ``name``, across threads."""
        return [span for out in self.threads() for span in out if span[0] == name]

    def totals(self) -> dict[str, LayerTotals]:
        """Calls, self time and inclusive time per span name."""
        totals: dict[str, LayerTotals] = {}
        for out in self.threads():
            for name, _start, duration, self_s, _depth, _attrs in out:
                entry = totals.get(name)
                if entry is None:
                    entry = totals[name] = LayerTotals()
                entry.calls += 1
                entry.self_s += self_s
                entry.total_s += duration
        return totals

    # -- wrappers ---------------------------------------------------------- #

    def wrap(self, name: str, fn, attrs_fn=None):
        """``fn`` wrapped so that each call records one span called ``name``."""
        local = self._local
        new_thread = self._thread_state
        perf = time.perf_counter

        if inspect.isgeneratorfunction(fn):
            # A generator does its work while being iterated, not when it
            # is called: open a span around every resumption instead.
            def generator_wrapper(*args, **kwargs):
                iterator = fn(*args, **kwargs)
                while True:
                    try:
                        stack, out = local.stack, local.out
                    except AttributeError:
                        stack, out = new_thread()
                    frame = [0.0]
                    stack.append(frame)
                    start = perf()
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        duration = perf() - start
                        stack.pop()
                        if stack:
                            stack[-1][0] += duration
                        out.append((name, start, duration, duration - frame[0], len(stack), None))
                    yield item

            return generator_wrapper

        def wrapper(*args, **kwargs):
            try:
                stack, out = local.stack, local.out
            except AttributeError:
                stack, out = new_thread()
            frame = [0.0]
            stack.append(frame)
            attrs = None
            start = perf()
            try:
                result = fn(*args, **kwargs)
                if attrs_fn is not None:
                    attrs = attrs_fn(args, result)
                return result
            finally:
                duration = perf() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                out.append((name, start, duration, duration - frame[0], len(stack), attrs))

        return wrapper


class Instrumentation:
    """Context manager: install :data:`TARGETS` wrappers, then remove them."""

    def __init__(self, recorder: Recorder) -> None:
        self._recorder = recorder
        self._undo: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def __enter__(self) -> "Instrumentation":
        try:
            for span, module_name, class_name, attr, attrs_fn in TARGETS:
                self._install(span, module_name, class_name, attr, attrs_fn)
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _install(self, span, module_name, class_name, attr, attrs_fn) -> None:
        label = f"{module_name}:{class_name + '.' if class_name else ''}{attr}"
        try:
            module = importlib.import_module(module_name)
            owner = getattr(module, class_name) if class_name else module
            original = vars(owner)[attr]
        except (ImportError, AttributeError, KeyError):
            self.missing.append(label)
            print(f"perfbench: trace target {label} not found; skipped", file=sys.stderr)
            return
        wrap = self._recorder.wrap
        if class_name:
            if isinstance(original, classmethod):
                wrapped = classmethod(wrap(span, original.__func__, attrs_fn))
            elif isinstance(original, staticmethod):
                wrapped = staticmethod(wrap(span, original.__func__, attrs_fn))
            else:
                wrapped = wrap(span, original, attrs_fn)
            self._patch(owner, attr, original, wrapped)
            return
        # A module function is reachable under every name it was imported
        # as (``from repro.storage.codec import decode_page_array``).
        wrapped = wrap(span, original, attrs_fn)
        for loaded_name, loaded in list(sys.modules.items()):
            if loaded is None or not (loaded_name == "repro" or loaded_name.startswith("repro.")):
                continue
            for bound_name, value in list(vars(loaded).items()):
                if value is original:
                    self._patch(loaded, bound_name, original, wrapped)

    def _patch(self, owner, attr, original, wrapped) -> None:
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapped)


def write_trace(path, recorder: Recorder, *, limit: int) -> int:
    """Write the spans as ``{"evicted": n, "spans": [...]}``.

    The document has the shape of ``repro.obs.export.spans_to_json``.
    Spans of one top-level call (one query, one batch) share a
    ``trace_id``; at most ``limit`` spans are written, the rest counted
    in ``evicted``.
    """
    wall_offset = time.time() - time.perf_counter()
    documents: list[dict] = []
    total = 0
    next_id = 1
    next_trace = 0
    for thread_no, out in enumerate(recorder.threads()):
        total += len(out)
        # Completion order is post-order: a span's parent is the next
        # later span one level up; walk backwards so parents come first.
        parent_at_depth: dict[int, int] = {}
        trace_id = next_trace
        for name, start, duration, self_s, depth, attrs in reversed(out):
            if len(documents) >= limit:
                break
            span_id = next_id
            next_id += 1
            if depth == 0:
                next_trace += 1
                trace_id = next_trace
            parent_at_depth[depth] = span_id
            attributes = {"thread": thread_no, "self_s": self_s}
            if attrs:
                attributes.update(
                    (key, value) for key, value in attrs.items() if isinstance(value, (int, float))
                )
            documents.append(
                {
                    "name": name,
                    "trace_id": trace_id,
                    "span_id": span_id,
                    "parent_id": parent_at_depth.get(depth - 1) if depth else None,
                    "start_wall": start + wall_offset,
                    "duration_s": duration,
                    "attributes": attributes,
                }
            )
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"evicted": total - len(documents), "spans": documents}, handle)
    return len(documents)
