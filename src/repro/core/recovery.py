"""Crash-consistent recovery by logical replay.

Space Odyssey's adaptive state — partition trees, merge files, statistics
— is entirely *derived*: it is a deterministic function of the immutable
raw dataset files and the ordered sequence of executed queries.  The
engines prove this continuously (the differential oracles in
``tests/test_batch_differential.py`` and ``tests/test_engine_fuzz.py``
show all five execution modes produce bit-identical adaptive state and
on-disk bytes from the same query sequence).  Recovery exploits it: the
durable manifest is not a physical redo log but a **logical query log**.

At every commit point (each :meth:`QueryProcessor.execute`, and each
batch's gated writer phase) the engine commits its manifest — the
catalog and disk geometry, the configuration, and the ordered list of
committed queries — to a :class:`~repro.storage.journal.ManifestJournal`.
The journal writes the whole manifest only when it compacts; a commit
appends just the queries committed since the previous record and the
running committed count, so journaling a query costs one small record,
not the history.  The journal is checksummed and torn-tail tolerant, so
a crash mid-commit simply re-exposes the previous commit point.

:func:`recover` rebuilds an engine from the last intact manifest (the
journal's last intact base with every intact, contiguous delta folded
in; a journal written before deltas existed, every record a full
version-1 manifest, reads the same way):

1. re-open the raw dataset files (they are append-once and never touched
   after creation, so they survive any crash intact);
2. **delete every derived file** — partition files and merge files may be
   torn by the crash, and all of them can be regenerated;
3. construct a fresh engine and replay the committed queries in order
   with journaling disabled.  Determinism makes the replayed state —
   including on-disk partition and merge bytes — bit-identical to the
   state of a never-crashed engine after the same committed prefix;
4. re-attach the journal so subsequent commits extend the same log.

A crash *during* recovery is harmless: replay writes nothing to the
journal, so recovery can simply be run again.

The physical cost is replaying the committed workload; compacting the
log against a checkpoint of the derived files is future work recorded in
ROADMAP.md.
"""

from __future__ import annotations

import logging
import os
from dataclasses import asdict
from typing import TYPE_CHECKING, Iterable

from repro.core.config import OdysseyConfig
from repro.data.dataset import Dataset, DatasetCatalog, raw_file_name
from repro.geometry.box import Box
from repro.storage.backend import FileSystemBackend, StorageBackend, flat_file_name
from repro.storage.cost_model import DiskModel
from repro.storage.disk import Disk
from repro.storage.journal import ManifestJournal

if TYPE_CHECKING:  # pragma: no cover - import cycle avoidance
    from repro.core.odyssey import SpaceOdyssey

#: Manifest schema version (bumped on incompatible layout changes).
#: Version 2 journals a base plus per-commit deltas; a version-1 journal,
#: which holds one full manifest per commit, is still read.
MANIFEST_VERSION = 2
READABLE_VERSIONS = (1, MANIFEST_VERSION)

#: Silent unless the embedding application configures handlers (e.g. via
#: :func:`repro.obs.configure_json_logging`).
logger = logging.getLogger("repro.recovery")


class RecoveryError(RuntimeError):
    """Recovery cannot proceed (no intact manifest, missing raw files, ...)."""


# ---------------------------------------------------------------------- #
# Manifest encoding
# ---------------------------------------------------------------------- #


def _encode_box(box: Box) -> dict:
    return {"lo": list(box.lo), "hi": list(box.hi)}


def _decode_box(data: dict) -> Box:
    return Box(tuple(data["lo"]), tuple(data["hi"]))


def encode_query(box: Box, dataset_ids: Iterable[int]) -> dict:
    """One committed query as a JSON-safe record."""
    entry = _encode_box(box)
    entry["ids"] = sorted(dataset_ids)
    return entry


def _encode_catalog(catalog: DatasetCatalog) -> dict:
    disk = catalog.datasets()[0].disk
    backend = disk.backend
    # Unwrap fault-injection / retry decorators to describe the real store.
    while hasattr(backend, "inner"):
        backend = backend.inner
    if isinstance(backend, FileSystemBackend):
        store = {"kind": "filesystem", "root": str(backend.root)}
    else:
        store = {"kind": "memory"}
    pool = disk.buffer_pool
    return {
        "datasets": [
            {
                "id": dataset.dataset_id,
                "name": dataset.name,
                "universe": _encode_box(dataset.universe),
            }
            for dataset in catalog.datasets()
        ],
        "store": store,
        "model": asdict(disk.model),
        "buffer_pages": pool.capacity_pages,
        "buffer_shards": getattr(pool, "n_shards", 1),
    }


class DurabilityLog:
    """Tracks the committed query log and journals the manifest.

    Attached to a :class:`~repro.core.query_processor.QueryProcessor`;
    :meth:`record` must be called with the processor's gate held so the
    journal order equals the commit order.
    """

    def __init__(
        self,
        journal: ManifestJournal,
        *,
        catalog: DatasetCatalog,
        config: OdysseyConfig,
        committed: list[dict] | None = None,
    ) -> None:
        self._journal = journal
        # Catalog and config are immutable: the header never changes.
        self._header = {
            "version": MANIFEST_VERSION,
            "config": asdict(config),
            "catalog": _encode_catalog(catalog),
        }
        self._committed: list[dict] = list(committed or [])

    @property
    def journal(self) -> ManifestJournal:
        """The underlying journal."""
        return self._journal

    @property
    def committed_queries(self) -> int:
        """How many queries the durable log covers."""
        return len(self._committed)

    def manifest(self) -> dict:
        """The manifest describing the current committed state."""
        return {**self._header, "queries": list(self._committed)}

    def record(self, entries: Iterable[tuple[Box, Iterable[int]]]) -> None:
        """Extend the log with newly committed queries and journal it.

        ``entries`` may be empty (e.g. an empty batch), in which case the
        state did not change and nothing is written.
        """
        appended = [encode_query(box, ids) for box, ids in entries]
        if not appended:
            return
        self._committed.extend(appended)
        self.checkpoint()

    def checkpoint(self) -> None:
        """Journal the current state now (used for the initial commit)."""
        # The journal only reads the queries it does not cover yet, so it
        # is handed the live list, not a copy of the history.
        self._journal.commit({**self._header, "queries": self._committed})


# ---------------------------------------------------------------------- #
# Recovery
# ---------------------------------------------------------------------- #


def _rebuild_disk(manifest_catalog: dict, backend: StorageBackend | None) -> Disk:
    model = DiskModel(**manifest_catalog["model"])
    if backend is None:
        store = manifest_catalog["store"]
        if store["kind"] != "filesystem":
            raise RecoveryError(
                "the crashed engine ran on an in-memory backend; pass the "
                "surviving backend (or a Disk) to recover()"
            )
        backend = FileSystemBackend(store["root"], page_size=model.page_size)
    return Disk(
        backend=backend,
        model=model,
        buffer_pages=manifest_catalog["buffer_pages"],
        buffer_shards=manifest_catalog["buffer_shards"],
    )


def _wipe_derived_files(disk: Disk, raw_names: set[str]) -> list[str]:
    # A filesystem backend lists files under their flattened names.
    keep = raw_names | {flat_file_name(name) for name in raw_names}
    dropped = []
    for name in disk.list_files():
        if name not in keep:
            disk.delete_file(name)
            dropped.append(name)
    return dropped


def recover(
    journal_path: str | os.PathLike[str] | ManifestJournal,
    *,
    backend: StorageBackend | None = None,
    disk: Disk | None = None,
    compact_every: int = 64,
    crash_hook=None,
) -> "SpaceOdyssey":
    """Rebuild an engine from the last intact manifest in the journal.

    Parameters
    ----------
    journal_path:
        The journal file (or an already-open :class:`ManifestJournal`).
    backend / disk:
        Where the page bytes survived.  For a filesystem-backed engine
        both may be omitted — the manifest records the root directory.
        For an in-memory engine the surviving backend object must be
        passed (typically the fault injector's inner backend, or the
        injector itself disarmed).
    compact_every / crash_hook:
        Forwarded to the re-attached journal when ``journal_path`` is a
        path.

    Returns an engine whose adaptive state, on-disk derived bytes and
    subsequent answers are bit-identical to an engine that executed the
    committed query prefix without crashing.  Raises
    :class:`RecoveryError` if the journal holds no intact manifest or a
    raw dataset file is missing.
    """
    from repro.core.odyssey import SpaceOdyssey

    if isinstance(journal_path, ManifestJournal):
        journal = journal_path
    else:
        journal = ManifestJournal(
            journal_path, compact_every=compact_every, crash_hook=crash_hook
        )
    manifest = journal.read_last()
    if manifest is None:
        raise RecoveryError(
            f"journal {journal.path} holds no intact manifest; nothing was "
            "ever durably committed, so rebuild the engine from scratch"
        )
    if manifest.get("version") not in READABLE_VERSIONS:
        raise RecoveryError(
            f"unsupported manifest version {manifest.get('version')!r}"
        )

    logger.info(
        "recovery started",
        extra={
            "journal": str(journal.path),
            "committed_queries": len(manifest["queries"]),
            "datasets": len(manifest["catalog"]["datasets"]),
        },
    )

    # Heal the journal before re-using it: a torn tail left by the crash
    # would swallow every post-recovery append (records() stops at the
    # first torn record).  Atomically rewriting the file down to the
    # manifest being recovered from truncates the tail; a crash during
    # the rewrite leaves either the old or the new journal, both of which
    # expose this same manifest.  (The new base is in today's layout
    # whatever the version read, so the deltas that follow it belong.)
    manifest["version"] = MANIFEST_VERSION
    journal.rewrite(manifest)

    config = OdysseyConfig(**manifest["config"])
    manifest_catalog = manifest["catalog"]
    if disk is None:
        disk = _rebuild_disk(manifest_catalog, backend)

    specs = manifest_catalog["datasets"]
    raw_names = {raw_file_name(spec["name"]) for spec in specs}
    for name in raw_names:
        if not disk.file_exists(name):
            raise RecoveryError(f"raw dataset file {name!r} is missing")
    dropped = _wipe_derived_files(disk, raw_names)
    logger.info(
        "derived files wiped", extra={"dropped_files": len(dropped)}
    )

    datasets = [
        Dataset.open(
            disk, spec["id"], spec["name"], universe=_decode_box(spec["universe"])
        )
        for spec in specs
    ]
    engine = SpaceOdyssey(DatasetCatalog(datasets), config)
    for entry in manifest["queries"]:
        engine.query(_decode_box(entry), entry["ids"])

    engine.attach_journal(journal, committed=list(manifest["queries"]))
    logger.info(
        "recovery complete",
        extra={"replayed_queries": len(manifest["queries"])},
    )
    return engine
