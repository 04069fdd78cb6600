#!/usr/bin/env python3
"""Crash and recover: a journaled engine on real page files survives a crash.

The engine journals every committed query to a manifest journal kept next
to its page files.  This example runs a few queries, then "crashes": the
engine is dropped without any shutdown and the journal ends in a torn
record.  ``SpaceOdyssey.recover`` rebuilds the engine from the journal and
the raw files alone, and its state equals the state before the crash.

Run it with:

    PYTHONPATH=src python examples/durable_recovery.py
"""

from __future__ import annotations

import os
import struct
import tempfile

from repro import Box, Disk, SpaceOdyssey, build_benchmark_suite
from repro.storage.backend import FileSystemBackend


def main() -> None:
    with tempfile.TemporaryDirectory() as root:
        disk = Disk(backend=FileSystemBackend(os.path.join(root, "pages")), buffer_pages=64)
        suite = build_benchmark_suite(n_datasets=4, objects_per_dataset=2_000, seed=7, disk=disk)
        journal = os.path.join(root, "manifest.journal")
        engine = SpaceOdyssey(suite.catalog, journal=journal)
        side = suite.universe.side(0) * 0.2
        for step, center in enumerate(suite.generator.microcircuit_centers[:6]):
            region = Box.cube(tuple(center), side).clamp(suite.universe)
            engine.query(region, [step % 3, step % 3 + 1])
        before = engine.summary()
        print(f"before the crash: {before.queries_executed} queries committed")

        # The crash: no shutdown, and a record torn halfway through its payload.
        del engine
        with open(journal, "ab") as handle:
            handle.write(struct.pack("<II", 4096, 0) + b"\0" * 2048)

        recovered = SpaceOdyssey.recover(journal)
        assert recovered.summary() == before, "recovery lost committed state"
        stats = recovered.disk.stats_snapshot()
        print(f"replayed queries: {recovered.summary().queries_executed}")
        print(f"pages read by recovery: {stats.pages_read}")
        recovered.disk.backend.close()


if __name__ == "__main__":
    main()
