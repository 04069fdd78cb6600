#!/usr/bin/env python3
"""Crash and recover: a journaled engine on real page files survives a crash.

The engine journals every committed query to a manifest journal kept next
to its page files.  This example crashes it twice.

1. Between two queries: the engine is dropped without any shutdown and
   the journal ends in a torn record.  Nothing changed after the last
   commit, so ``SpaceOdyssey.recover`` keeps every page file as it is: it
   replays the journal's bookkeeping from the runs each query recorded,
   reading and writing no page and leaving the journal's intact records
   as they were, and its state equals the state before the crash.
2. In the middle of a query: a fault-injecting backend kills the process
   on a page write.  The journal knows a file changed after its last
   commit, so recovery wipes the derived files and replays the committed
   queries in full from the raw files.

Run it with:

    PYTHONPATH=src python examples/durable_recovery.py
"""

from __future__ import annotations

import os
import struct
import tempfile

from repro import Box, Disk, SpaceOdyssey, build_benchmark_suite
from repro.storage.backend import FileSystemBackend
from repro.storage.errors import SimulatedCrash
from repro.storage.faults import FaultInjectingBackend, FaultPlan


def main() -> None:
    with tempfile.TemporaryDirectory() as root:
        pages = os.path.join(root, "pages")
        disk = Disk(backend=FileSystemBackend(pages), buffer_pages=64)
        suite = build_benchmark_suite(n_datasets=4, objects_per_dataset=2_000, seed=7, disk=disk)
        journal = os.path.join(root, "manifest.journal")
        engine = SpaceOdyssey(suite.catalog, journal=journal)
        # Windows shrink as the exploration goes on, so later queries
        # refine (and write) what earlier ones touched.
        side = suite.universe.side(0)
        queries = [
            (
                Box.cube(tuple(center), side * (0.2 if step < 6 else 0.02)).clamp(suite.universe),
                [step % 3, step % 3 + 1],
            )
            for step, center in enumerate(suite.generator.microcircuit_centers[:12])
        ]
        for region, ids in queries[:6]:
            engine.query(region, ids)
        before = engine.summary()
        print(f"before the first crash: {before.queries_executed} queries committed")

        # Crash 1, between queries: no shutdown, and a record torn halfway
        # through its payload.
        del engine
        with open(journal, "rb") as handle:
            intact = handle.read()
        with open(journal, "ab") as handle:
            handle.write(struct.pack("<II", 4096, 0) + b"\0" * 2048)

        # Recover onto a backend that will kill the process on the third
        # page write from now: recovery itself writes none.
        faulty = FaultInjectingBackend(
            FileSystemBackend(pages), FaultPlan(crash_after_mutations=3, torn_crash=True)
        )
        recovered = SpaceOdyssey.recover(journal, backend=faulty)
        assert recovered.summary() == before, "recovery lost committed state"
        stats = recovered.disk.stats_snapshot()
        assert stats.pages_read == stats.pages_written == 0, "a clean crash's recovery did I/O"
        with open(journal, "rb") as handle:
            assert handle.read(len(intact)) == intact, "a clean crash's recovery rewrote the journal"
        print(
            f"clean crash: {recovered.summary().queries_executed} queries recovered, "
            f"{stats.pages_read} pages read, {stats.pages_written} written"
        )

        # Crash 2, in the middle of a query.
        committed = recovered.summary()
        for region, ids in queries[6:]:
            try:
                recovered.query(region, ids)
            except SimulatedCrash:
                break
            committed = recovered.summary()
        else:
            raise AssertionError("the fault plan never fired")
        del recovered

        replayed = SpaceOdyssey.recover(journal)
        assert replayed.summary() == committed, "recovery lost committed state"
        stats = replayed.disk.stats_snapshot()
        assert stats.pages_written > 0, "a crash mid-query must be replayed in full"
        print(
            f"crash mid-query: {replayed.summary().queries_executed} queries replayed in full, "
            f"{stats.pages_read} pages read, {stats.pages_written} written"
        )
        replayed.disk.backend.close()


if __name__ == "__main__":
    main()
