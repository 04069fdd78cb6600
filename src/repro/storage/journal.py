"""Crash-consistent manifest journal.

The recovery layer (:mod:`repro.core.recovery`) persists a *manifest* —
one JSON document describing everything needed to rebuild the engine's
adaptive state: a constant header (version, config, catalog) and the
ordered list of committed queries — at every commit point.  This module
owns the on-disk format and its crash-consistency discipline:

* The journal is an append-only host-filesystem file of length-prefixed,
  checksummed records::

      <u32 payload length> <u32 crc32(payload)> <payload: UTF-8 JSON>

* A record is either a **base** — a full manifest, header and every
  query so far — or a **delta**, ``{"committed": n, "queries": [...]}``:
  the queries committed since the previous record and the running
  committed count.  Bases are written only by :meth:`ManifestJournal.
  rewrite`, as the journal's first record; :meth:`ManifestJournal.commit`
  appends one delta, so a commit costs what changed, not the history,
  and ``fsync`` s before returning, so a record either survives whole or
  is detectably torn.  The file is the one copy of the history: the
  journal keeps no entry it has written.

* :meth:`ManifestJournal.read_last` scans forward and **folds**: the last
  intact base, extended by the queries of each intact delta after it.
  It stops — silently discarding the tail — at the first torn or corrupt
  record and at the first delta that does not continue what precedes it
  (``committed`` must equal the queries folded so far plus the delta's
  own; the count is in every delta so that a reader can tell, from the
  delta alone, that it extends *this* base and not some other history).
  A crash mid-commit simply re-exposes the previous commit point.  A
  journal in the version-1 layout — every record a full manifest — is a
  sequence of bases and folds to its last record.

* An **intent**, ``{"intent": n}``, says that files are about to change
  beyond what the ``n`` queries folded so far describe.  The engine
  appends one (:meth:`ManifestJournal.intent`, *without* ``fsync``)
  before the first derived-file mutation after each commit; the next
  commit covers it.  The fold is **dirty** (:attr:`ManifestJournal.
  dirty`) when an intact intent follows its last base or delta: a crash
  came after a mutation the log does not describe.  A torn intent does
  not count — the process died writing it, before the mutation it
  announced — and since an intent is flushed to the operating system
  before its mutation is, only a power loss can keep the mutation and
  lose the intent (recovery refuses its fast path across a reboot for
  that reason).  Intents are not records of the manifest:
  :meth:`ManifestJournal.records` skips them and a rewrite drops them.
  Whatever else the manifest says about the files — the engine keeps a
  *taint* in its header once a writer half has raised after its intent —
  is the caller's, and a rewrite keeps it like any header field.

* Deltas and intents are appended where the last intact record ends, and
  whatever follows it — a torn tail, or a delta that continues no fold —
  is cut off, so the record is never hidden behind bytes no reader
  passes.  The entries of a commit whose write raised are kept and
  written ahead of the next commit's.

* The journal is **rewritten** — one base, the history folded from the
  file — only when the file has no base or a commit brings another
  header (an engine's first base, a taint), and on demand via
  :meth:`ManifestJournal.rewrite` (recovery's full path).  A rewrite goes
  through the classic write-temp/fsync/rename dance: the new content is
  written to ``<path>.tmp``, fsync'd, atomically renamed over ``<path>``,
  and the directory is fsync'd.  A crash at any step leaves either the
  complete old journal or the complete new one.  Between header changes
  the file only grows.

Crash points
------------
For the crash-point sweep, a ``crash_hook(name)`` callable can be
injected; the journal invokes it at named sites —
``journal.commit.start`` (nothing written yet), ``journal.commit.torn``
(half the record bytes written), ``journal.commit.end`` (record
durable), and ``journal.rewrite.start`` / ``journal.rewrite.
before_rename`` / ``journal.rewrite.end``.  A hook that raises
:class:`~repro.storage.errors.SimulatedCrash` leaves the file exactly as
a power loss at that point would.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.obs.trace import maybe_span

#: Per-record header: payload length and crc32 of the payload.
RECORD_HEADER = struct.Struct("<II")


def _header_of(manifest: dict[str, Any]) -> dict[str, Any]:
    return {key: value for key, value in manifest.items() if key != "queries"}


class ManifestJournal:
    """An append-only, checksummed manifest log, atomically rewritten when
    its header changes."""

    def __init__(
        self,
        path: str | os.PathLike[str],
        *,
        crash_hook: Callable[[str], None] | None = None,
    ) -> None:
        self._path = Path(path)
        self._path.parent.mkdir(parents=True, exist_ok=True)
        self._crash_hook = crash_hook
        self._tracer = None
        # The file as last folded or written: the base's header (None
        # without one), the queries base plus deltas cover, where the last
        # intact record ends, whether bytes follow it and whether an intent
        # follows the last commit; ``_stale`` when it may have changed since.
        # ``_pending``: entries of commits whose write raised.
        self._header: dict[str, Any] | None = None
        self._covered = 0
        self._end = 0
        self._tail = self._dirty = False
        self._stale = True
        self._pending: list = []

    def attach_tracer(self, tracer) -> None:
        """Attach (or with ``None``, detach) a tracer recording commit
        and rewrite spans.  Observation only: it never changes what, or
        whether, bytes hit the disk."""
        self._tracer = tracer

    @property
    def path(self) -> Path:
        """Where the journal lives on the host filesystem."""
        return self._path

    def exists(self) -> bool:
        """Whether any journal bytes exist yet."""
        return self._path.exists()

    @property
    def dirty(self) -> bool:
        """Whether an intact intent follows the last commit the file holds
        (as last read or written)."""
        if self._stale:
            self.read_last()
        return self._dirty

    @property
    def committed(self) -> int:
        """How many queries the journal's value holds, the entries of a
        commit whose write raised included."""
        if self._stale:
            self.read_last()
        return self._covered + len(self._pending)

    def _crash_point(self, name: str) -> None:
        if self._crash_hook is not None:
            self._crash_hook(name)

    # ------------------------------------------------------------------ #
    # Writing
    # ------------------------------------------------------------------ #

    @staticmethod
    def _encode(record: dict[str, Any]) -> bytes:
        payload = json.dumps(record, separators=(",", ":"), sort_keys=True).encode()
        return RECORD_HEADER.pack(len(payload), zlib.crc32(payload)) + payload

    def commit(self, header: dict[str, Any], entries: list) -> None:
        """Durably extend the journal's value by ``entries`` under ``header``.

        Appends one delta (none without entries) when the file's base
        carries ``header``; otherwise :meth:`rewrite` s the history folded
        from the file plus the entries under ``header``.  The entries of a
        commit whose write raised are kept and written ahead of the next's.
        """
        if self._stale:
            self.read_last()
        self._pending += entries
        if self._header != header:
            folded = self.read_last()["queries"] if self._covered else []
            self.rewrite({**header, "queries": folded + self._pending})
        elif self._pending:
            committed = self._covered + len(self._pending)
            encoded = self._encode({"committed": committed, "queries": self._pending})
            with maybe_span(self._tracer, "journal.commit", bytes=len(encoded)):
                self._crash_point("journal.commit.start")
                self._append(encoded, sync=True)
                self._covered = committed
                self._pending = []
                self._crash_point("journal.commit.end")

    def intent(self) -> None:
        """Append an intent record: files are about to change beyond the
        last commit.  Not ``fsync`` ed."""
        if self._stale:
            self.read_last()
        self._append(self._encode({"intent": self._covered}), sync=False)

    def _append(self, encoded: bytes, *, sync: bool) -> None:
        """Write a delta (``sync``) or an intent where the last intact record
        ends, cutting off the bytes after it, which would hide it from the
        fold.  A delta stops at the ``journal.commit.torn`` crash point."""
        self._stale = True  # until the whole record is known to be down
        fd = os.open(self._path, os.O_WRONLY | os.O_CREAT, 0o666)
        try:
            if self._tail:
                os.ftruncate(fd, self._end)
            written = 0
            if sync:
                written = os.pwrite(fd, encoded[: len(encoded) // 2], self._end)
                try:
                    self._crash_point("journal.commit.torn")
                except BaseException:
                    # Persist the torn prefix exactly as a power loss would.
                    os.fsync(fd)
                    raise
            while written < len(encoded):
                written += os.pwrite(fd, encoded[written:], self._end + written)
            if sync:
                os.fsync(fd)
        finally:
            os.close(fd)
        self._end += len(encoded)
        self._tail, self._dirty, self._stale = False, not sync, False

    def rewrite(self, manifest: dict[str, Any]) -> None:
        """Atomically replace the whole journal with one base record."""
        encoded = self._encode(manifest)
        self._stale = True
        with maybe_span(self._tracer, "journal.rewrite", bytes=len(encoded)):
            self._crash_point("journal.rewrite.start")
            tmp = self._path.with_suffix(self._path.suffix + ".tmp")
            with tmp.open("wb") as handle:
                handle.write(encoded)
                handle.flush()
                os.fsync(handle.fileno())
            self._crash_point("journal.rewrite.before_rename")
            os.replace(tmp, self._path)
            self._fsync_dir()
            self._header = _header_of(manifest)
            self._covered = len(manifest["queries"])
            self._end = len(encoded)
            self._tail = self._dirty = False
            self._pending = []
            self._stale = False
            self._crash_point("journal.rewrite.end")

    def _fsync_dir(self) -> None:
        # Durability of the rename itself; ignored where directories
        # cannot be opened (non-POSIX filesystems).
        try:
            fd = os.open(self._path.parent, os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(fd)
        except OSError:
            pass
        finally:
            os.close(fd)

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #

    def _scan(self, blob: bytes) -> Iterator[tuple[dict[str, Any], int]]:
        """Yield ``(record, end offset)`` for every intact record in order."""
        offset = 0
        while offset + RECORD_HEADER.size <= len(blob):
            length, checksum = RECORD_HEADER.unpack_from(blob, offset)
            start = offset + RECORD_HEADER.size
            end = start + length
            if end > len(blob):
                return  # torn tail
            payload = blob[start:end]
            if zlib.crc32(payload) != checksum:
                return  # corrupt record: discard it and everything after
            try:
                record = json.loads(payload.decode())
            except (UnicodeDecodeError, json.JSONDecodeError):
                return
            if not isinstance(record, dict):
                return
            yield record, end
            offset = end

    def _read_bytes(self) -> bytes:
        try:
            return self._path.read_bytes()
        except FileNotFoundError:
            return b""

    def records(self) -> Iterator[dict[str, Any]]:
        """Yield every intact record — bases and deltas, unfolded — in
        order, stopping at the first torn/corrupt one (anything after it
        is unreachable by design: appends are sequential, so bytes after a
        torn record can only be more of the same interrupted write).
        Intents are skipped."""
        for record, _end in self._scan(self._read_bytes()):
            if "intent" not in record:
                yield record

    def read_last(self) -> dict[str, Any] | None:
        """The most recent intact manifest, or ``None`` for an empty or
        wholly-corrupt journal: the last intact base with the queries of
        every intact delta that continues it folded in.  Reading stops at
        the first torn or corrupt record and at a delta whose committed
        count is not its predecessor's plus its own queries.  Whether an
        intact intent follows the last record folded is :attr:`dirty`."""
        blob = self._read_bytes()
        base: dict[str, Any] | None = None
        queries: list = []
        reached = 0
        dirty = False
        for record, end in self._scan(blob):
            if "intent" in record:
                dirty = True
                reached = end
                continue
            added = record.get("queries")
            if not isinstance(added, list):
                break
            if "committed" not in record:  # a base: a full manifest
                base, queries = record, list(added)
            elif base is not None and record["committed"] == len(queries) + len(added):
                queries.extend(added)
            else:
                break
            reached = end
            dirty = False
        # Kept entries of a failed write that reached the file after all.
        del self._pending[: max(0, len(queries) - self._covered)]
        self._header = None if base is None else _header_of(base)
        self._covered = len(queries)
        self._end = reached
        self._tail = reached < len(blob)
        self._dirty = dirty
        self._stale = False
        if base is None:
            return None
        return {**base, "queries": queries}
