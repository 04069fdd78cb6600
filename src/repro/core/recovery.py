"""Crash-consistent recovery by logical replay.

Space Odyssey's adaptive state — partition trees, merge files, statistics
— is entirely *derived*: it is a deterministic function of the immutable
raw dataset files and the ordered sequence of executed queries.  The
engines prove this continuously (the oracle in ``tests/test_engine_fuzz.py``
holds every execution mode, recovery after a seeded crash included, to
the same adaptive state and on-disk bytes from the same query
sequence).  Recovery exploits it: the
durable manifest is not a physical redo log but a **logical query log**.

At every commit point (each :meth:`QueryProcessor.execute`, and each
batch's gated writer phase) the engine commits its manifest — the
catalog and disk geometry, the configuration, the boot it runs in, a
taint flag, and the ordered list of committed queries — to a
:class:`~repro.storage.journal.ManifestJournal`.  The journal writes the
whole manifest only when its header changes; a commit appends just the
queries committed since the previous record and the running committed
count, so journaling a query costs one small record, and the journal's
file is the only copy of the history.  The journal is checksummed and
torn-tail tolerant, so a crash mid-commit simply re-exposes the previous
commit point.

Each committed query's entry also carries its **storage facts**
(:mod:`repro.core.facts`): the runs its first touches, refinements and
merge copies returned, in call order.  And before the first file mutation
after each commit the disk's mutation hook appends an *intent* to the
journal, so the log tells a crash between commits (files as the last
commit left them) from a crash mid-query (files changed beyond it).

:func:`recover` rebuilds an engine from the last intact manifest (the
journal's last intact base with every intact, contiguous delta folded
in), on one of two paths.  It reads a manifest of :data:`MANIFEST_VERSION`
only and refuses any other before it touches a file: the engine of such
a journal is rebuilt by opening the raw datasets afresh.

**The fast path** keeps every file as it is.  It is taken when all of
these hold:

* the fold ends at a commit with no intact intent after it (a torn tail
  is fine: a torn append never preceded a mutation);
* the manifest's boot id (``/proc/sys/kernel/random/boot_id`` when the
  engine ran) equals the current one.  An intent is not ``fsync`` ed, so
  only a crash of the process, not of the machine, is known to keep it:
  after a reboot or a power loss, and wherever no boot id can be read,
  recovery always replays in full;
* the manifest is not *tainted*: no writer half — first touch or commit
  — has raised after its intent since the last full replay.  Such a
  writer half may have left files half written while the engine ran on,
  and the taint is kept in the header until a full replay clears it;
* every committed entry carries facts.

It opens the raw files (reading no page) and runs every committed entry
through the same first touch and writer half
(:meth:`QueryProcessor.commit_query`) as the full path, so statistics,
routes, refinement and merge decisions and ``summary()`` are recomputed
— but each storage step takes its journaled runs instead of reading,
assigning, encoding or writing a page.  Each step checks that its fact
names the dataset or key it is splitting or merging, every fact of an
entry must be taken, no file may change (the disk's mutation hook
refuses), and at the end the derived files on disk must be exactly
those the rebuilt state names; anything else falls back to the full
path.  A clean crash's recovery therefore reads and writes no page and
creates or deletes no file; it costs the bookkeeping of the history,
not its I/O.

**The full path** is the replay of the committed log from the raw files:

1. re-open the raw dataset files (they are append-once and never touched
   after creation, so they survive any crash intact).  Opening reads no
   page: a raw file is read when replay first touches its dataset, so a
   log that touches k of n datasets reads k raw files, and a damaged raw
   page raises its ``CorruptPageError`` at that first touch;
2. rewrite the journal down to the manifest being recovered, marked
   tainted, so that a crash during the replay leaves a log that is
   replayed in full again;
3. **delete every derived file** — partition files and merge files may be
   torn by the crash, and all of them can be regenerated;
4. construct a fresh engine and replay the committed queries in order
   with journaling disabled, through the writer half only
   (:meth:`QueryProcessor.commit_query` after the first touch): no
   answer is recomputed, since answers never feed adaptation.
   Determinism makes the replayed state — including on-disk partition
   and merge bytes — bit-identical to the state of a never-crashed
   engine after the same committed prefix.  The replay records every
   entry's facts.

The full path ends by rewriting the journal down to the recovered
manifest (with facts, the current boot id and no taint: the files now
match it).  The fast path writes nothing: its manifest already says all
that, so a clean crash's recovery leaves the journal's intact records as
they are (the next append cuts off a torn tail).  Either way the journal
is re-attached, so subsequent commits extend the same log.  A crash
*during* recovery is harmless: until that last rewrite the journal says
what it said before (or, on the full path, that a full replay is due), so
recovery can simply be run again.

The fast path still costs the bookkeeping of every committed query —
O(history) CPU; a checkpoint of the adaptive state, so that recovery
costs the suffix after it, is future work recorded in ROADMAP.md.
"""

from __future__ import annotations

import logging
import os
from dataclasses import asdict
from typing import TYPE_CHECKING, Iterable

from repro.core.config import OdysseyConfig
from repro.core.facts import FactMismatch, FactPlayer, FactRecorder
from repro.core.query_processor import QueryReport
from repro.data.dataset import Dataset, DatasetCatalog, raw_file_name
from repro.geometry.box import Box
from repro.storage.backend import FileSystemBackend, StorageBackend, flat_file_name
from repro.storage.cost_model import DiskModel
from repro.storage.disk import Disk
from repro.storage.journal import ManifestJournal

if TYPE_CHECKING:  # pragma: no cover - import cycle avoidance
    from repro.core.odyssey import SpaceOdyssey

#: Manifest schema version (bumped on incompatible layout changes).
#: Recovery reads this version only and refuses every other: the adaptive
#: state is derived from the raw files, so a journal of another version
#: costs re-adaptation from a fresh engine, never data.
MANIFEST_VERSION = 5

#: Where Linux names the current boot (a fresh UUID on every boot).
BOOT_ID_PATH = "/proc/sys/kernel/random/boot_id"

#: Silent unless the embedding application configures handlers (e.g. via
#: :func:`repro.obs.configure_json_logging`).
logger = logging.getLogger("repro.recovery")


class RecoveryError(RuntimeError):
    """Recovery cannot proceed (no intact manifest, missing raw files, ...)."""


def boot_id() -> str | None:
    """The current boot's id, or ``None`` where none can be read."""
    try:
        with open(BOOT_ID_PATH) as handle:
            return handle.read().strip() or None
    except OSError:
        return None


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


def _encode_store(backend: StorageBackend, journal_dir: str) -> dict:
    # Unwrap fault-injection / retry decorators to describe the real store.
    while hasattr(backend, "inner"):
        backend = backend.inner
    if isinstance(backend, FileSystemBackend):
        return {"kind": "filesystem", "root": os.path.relpath(backend.root, journal_dir)}
    return {"kind": "memory"}


def _encode_catalog(catalog: DatasetCatalog, journal_dir: str) -> dict:
    disk = catalog.datasets()[0].disk
    return {
        "datasets": [
            {
                "id": dataset.dataset_id,
                "name": dataset.name,
                "universe": _encode_box(dataset.universe),
            }
            for dataset in catalog.datasets()
        ],
        "store": _encode_store(disk.backend, journal_dir),
        "model": asdict(disk.model),
        "buffer_pages": disk.buffer_pool.capacity_pages,
    }


class DurabilityLog:
    """Journals the committed query log.

    Attached to a :class:`~repro.core.query_processor.QueryProcessor`;
    :meth:`record` must be called with the processor's gate held so the
    journal order equals the commit order.  It owns the
    :class:`~repro.core.facts.FactRecorder` whose sealed facts each
    recorded entry carries, and arms the disk's mutation hook after every
    commit: the first mutation after it appends an intent to the journal.
    The journal's file is the one copy of the history.
    """

    def __init__(
        self, journal: ManifestJournal, *, catalog: DatasetCatalog, config: OdysseyConfig
    ) -> None:
        self._journal = journal
        # Catalog, config and boot are immutable; only a taint changes
        # the header (and so rewrites the journal once).
        self._header = {
            "version": MANIFEST_VERSION,
            "config": asdict(config),
            "catalog": _encode_catalog(catalog, _journal_dir(journal)),
            "boot_id": boot_id(),
            "tainted": False,
        }
        # The hook is the journal's own method: a disk never refers back
        # to its engine, so a dropped engine is freed at once.
        self._disk = catalog.datasets()[0].disk
        self.facts = FactRecorder()
        self._disk.arm_mutation_hook(journal.intent)

    @property
    def journal(self) -> ManifestJournal:
        """The underlying journal."""
        return self._journal

    @property
    def committed_queries(self) -> int:
        """How many queries the durable log covers."""
        return self._journal.committed

    def record(self, entries: Iterable[tuple[Box, Iterable[int]]]) -> None:
        """Journal newly committed queries.

        Each entry carries the facts its writer half sealed.  ``entries``
        may be empty (e.g. an empty batch), in which case the state did not
        change and nothing is written.
        """
        appended = [encode_query(box, ids) for box, ids in entries]
        if not appended:
            return
        for entry, facts in zip(appended, self.facts.take(len(appended))):
            if facts is not None:
                entry["facts"] = facts
        self._journal.commit(self._header, appended)
        self._disk.arm_mutation_hook(self._journal.intent)

    def checkpoint(self) -> None:
        """Make the header durable now: a journal's first base, or a
        rewrite when the file's header is another."""
        self._journal.commit(self._header, [])
        self._disk.arm_mutation_hook(self._journal.intent)

    def abort(self) -> None:
        """A writer half raised (gate held): drop its facts, and taint the
        log if a file may have changed since the last commit.  The taint
        reaches the journal with the next commit; a crash before it finds
        the intent."""
        self.facts.abort()
        if self._journal.dirty:
            self._header["tainted"] = True


# ---------------------------------------------------------------------- #
# Recovery
# ---------------------------------------------------------------------- #


def _journal_dir(journal: ManifestJournal) -> str:
    return os.path.dirname(os.path.abspath(journal.path))


def _rebuild_disk(
    manifest_catalog: dict, backend: StorageBackend | None, root_base: str
) -> Disk:
    model = DiskModel(**manifest_catalog["model"])
    if backend is None:
        store = manifest_catalog["store"]
        if store["kind"] != "filesystem":
            raise RecoveryError(
                "the crashed engine ran on an in-memory backend; pass the "
                "surviving backend to recover()"
            )
        root = os.path.normpath(os.path.join(root_base, store["root"]))
        backend = FileSystemBackend(root, page_size=model.page_size)
    return Disk(backend=backend, model=model, buffer_pages=manifest_catalog["buffer_pages"])


def _derived_files(disk: Disk, raw_names: set[str]) -> list[str]:
    # A filesystem backend lists files under their flattened names.
    keep = raw_names | {flat_file_name(name) for name in raw_names}
    return [name for name in disk.list_files() if name not in keep]


def _fast_path_refusal(manifest: dict, dirty: bool) -> str | None:
    """Why the files cannot be kept as they are, or ``None`` when they can."""
    if dirty:
        return "a file changed after the last commit"
    current = boot_id()
    if current is None or manifest.get("boot_id") != current:
        return "the journal was written before the last boot"
    if manifest.get("tainted"):
        return "a writer half raised since the last full replay"
    if not all("facts" in entry for entry in manifest["queries"]):
        return "an entry carries no facts"
    return None


def _refuse_mutation() -> None:
    raise FactMismatch("replaying journaled facts would change a file")


def _replay(
    disk: Disk, manifest: dict, config: OdysseyConfig, facts: FactPlayer | FactRecorder
) -> "SpaceOdyssey":
    """A fresh engine that ran every committed entry's first touch and
    writer half, its storage steps run by ``facts``."""
    from repro.core.odyssey import SpaceOdyssey

    datasets = [
        Dataset.open(
            disk, spec["id"], spec["name"], universe=_decode_box(spec["universe"])
        )
        for spec in manifest["catalog"]["datasets"]
    ]
    engine = SpaceOdyssey(DatasetCatalog(datasets), config)
    processor = engine._processor
    processor.attach_facts(facts)
    for entry in manifest["queries"]:
        if facts.replaying:
            facts.begin(entry["facts"])
        box = _decode_box(entry)
        requested = processor.check_query(box, entry["ids"])
        ordered = tuple(sorted(requested))
        report = QueryReport(query_index=processor.queries_executed, requested=ordered)
        report.initialized_datasets = processor.initialize_trees(ordered)
        processor.commit_query(box, requested, report)
    return engine


def _replay_facts(
    disk: Disk, manifest: dict, config: OdysseyConfig, raw_names: set[str]
) -> "SpaceOdyssey":
    """The fast path: the journaled facts over the files as they are."""
    disk.arm_mutation_hook(_refuse_mutation)
    try:
        engine = _replay(disk, manifest, config, FactPlayer())
    finally:
        disk.arm_mutation_hook(None)
    named = {tree.file.name for tree in engine.trees.values()}
    named.update(info.file_name for info in engine.merge_directory.all_files())
    # Listed under their flattened names by a filesystem backend.
    named = {flat_file_name(name) for name in named}
    found = {flat_file_name(name) for name in _derived_files(disk, raw_names)}
    if found != named:
        raise FactMismatch(f"the derived files are {sorted(found)}, the facts name {sorted(named)}")
    return engine


def recover(
    journal_path: str | os.PathLike[str] | ManifestJournal,
    *,
    backend: StorageBackend | None = None,
) -> "SpaceOdyssey":
    """Rebuild an engine from the last intact manifest in the journal.

    Parameters
    ----------
    journal_path:
        The journal file (or an already-open :class:`ManifestJournal`).
    backend:
        Where the page bytes survived.  For a filesystem-backed engine it
        may be omitted — the manifest records the root directory relative
        to the journal's own directory, so a store copied or moved
        together with its journal recovers from its new place.
        For an in-memory engine the surviving backend object must be
        passed (typically the fault injector's inner backend, or the
        injector itself disarmed).

    Returns an engine whose adaptive state, on-disk derived bytes and
    subsequent answers are bit-identical to an engine that executed the
    committed query prefix without crashing — on the fast path by
    keeping the files, on the full path by rebuilding them (see the
    module docstring for which one runs).  Raises
    :class:`RecoveryError` if the journal holds no intact manifest or one
    of another version than :data:`MANIFEST_VERSION` (both before a file
    is touched), or if a raw dataset file is missing.
    """
    if isinstance(journal_path, ManifestJournal):
        journal = journal_path
    else:
        journal = ManifestJournal(journal_path)
    manifest = journal.read_last()
    if manifest is None:
        raise RecoveryError(
            f"journal {journal.path} holds no intact manifest; nothing was "
            "ever durably committed, so rebuild the engine from scratch"
        )
    if manifest.get("version") != MANIFEST_VERSION:
        raise RecoveryError(
            f"journal {journal.path} holds a manifest of version "
            f"{manifest.get('version')!r}; only version {MANIFEST_VERSION} is "
            "read, so open the raw datasets and start a fresh engine"
        )

    logger.info(
        "recovery started",
        extra={
            "journal": str(journal.path),
            "committed_queries": len(manifest["queries"]),
            "datasets": len(manifest["catalog"]["datasets"]),
        },
    )

    manifest_catalog = manifest["catalog"]
    journal_dir = _journal_dir(journal)
    disk = _rebuild_disk(manifest_catalog, backend, journal_dir)
    refusal = _fast_path_refusal(manifest, journal.dirty)
    # The journal's next base names the store recovery runs on.
    manifest_catalog["store"] = _encode_store(disk.backend, journal_dir)

    config = OdysseyConfig(**manifest["config"])

    specs = manifest_catalog["datasets"]
    raw_names = {raw_file_name(spec["name"]) for spec in specs}
    for name in raw_names:
        if not disk.file_exists(name):
            raise RecoveryError(f"raw dataset file {name!r} is missing")

    engine = None
    if refusal is None:
        try:
            engine = _replay_facts(disk, manifest, config, raw_names)
        except FactMismatch as mismatch:
            refusal = str(mismatch)
    if engine is None:
        # Taint the journal before touching a file, so that a crash during
        # the replay replays in full again.  A crash during the rewrite
        # leaves either the old or the new journal, both of which expose
        # this same manifest.
        journal.rewrite({**manifest, "tainted": True})
        dropped = _derived_files(disk, raw_names)
        for name in dropped:
            disk.delete_file(name)
        logger.info("derived files wiped", extra={"dropped_files": len(dropped)})
        recorder = FactRecorder()
        engine = _replay(disk, manifest, config, recorder)
        queries = manifest["queries"]
        manifest["queries"] = [
            {**entry, "facts": facts}
            for entry, facts in zip(queries, recorder.take(len(queries)))
        ]
    if refusal is not None or journal.committed != len(manifest["queries"]):
        # The full path's entries carry the facts it recorded and its files
        # match them; a journal object that kept the entries of a failed
        # write holds queries the recovered engine never ran.
        journal.rewrite({**manifest, "boot_id": boot_id(), "tainted": False})
    engine.attach_journal(journal)
    logger.info(
        "recovery complete",
        extra={
            "replayed_queries": len(manifest["queries"]),
            "path": "full" if refusal else "fast",
            "full_replay_reason": refusal,
        },
    )
    return engine
