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
  and ``flush`` + ``fsync`` s before returning, so a record either
  survives whole or is detectably torn.

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

* When the file already holds ``compact_every`` records (and on demand
  via :meth:`ManifestJournal.rewrite`, and whenever the file has no base
  a delta could continue: empty, torn at the tail, another header) the
  journal is compacted to a single base through the classic
  write-temp/fsync/rename dance: the new content is written to
  ``<path>.tmp``, fsync'd, atomically renamed over ``<path>``, and the
  directory is fsync'd.  A crash at any step leaves either the complete
  old journal or the complete new one.  The cadence is read from the
  file, not counted per process, so a journal reopened after every
  commit compacts exactly as often as one that never is.

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
    """An append-only, checksummed, atomically-compactable manifest log."""

    def __init__(
        self,
        path: str | os.PathLike[str],
        *,
        compact_every: int = 64,
        crash_hook: Callable[[str], None] | None = None,
    ) -> None:
        if compact_every < 1:
            raise ValueError("compact_every must be >= 1")
        self._path = Path(path)
        self._path.parent.mkdir(parents=True, exist_ok=True)
        self._compact_every = compact_every
        self._crash_hook = crash_hook
        self._tracer = None
        # What an appended delta would continue, as last folded from (or
        # written to) the file: the base's header, how many queries base
        # plus deltas cover, and how many records that is.  ``_header`` is
        # None when the file has no base or ends in bytes a reader stops
        # at; ``_stale`` when the file may have changed since.
        self._header: dict[str, Any] | None = None
        self._covered = 0
        self._records = 0
        self._stale = True

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

    def commit(self, manifest: dict[str, Any]) -> None:
        """Durably make ``manifest`` the journal's value.

        Appends one delta — the queries the file does not cover yet and
        the new committed count — when the file's base carries this
        manifest's header and holds fewer than ``compact_every`` records;
        otherwise compacts through :meth:`rewrite`.  ``manifest["queries"]``
        may only ever grow by appending.
        """
        if self._stale:
            self.read_last()
        queries = manifest["queries"]
        if (
            self._header != _header_of(manifest)
            or self._records >= self._compact_every
            or len(queries) < self._covered
        ):
            self.rewrite(manifest)
            return
        encoded = self._encode(
            {"committed": len(queries), "queries": queries[self._covered :]}
        )
        self._stale = True  # until the whole record is known to be down
        with maybe_span(self._tracer, "journal.commit", bytes=len(encoded)):
            self._crash_point("journal.commit.start")
            half = len(encoded) // 2
            with self._path.open("ab") as handle:
                handle.write(encoded[:half])
                try:
                    self._crash_point("journal.commit.torn")
                except BaseException:
                    # Persist the torn prefix exactly as a power loss would.
                    handle.flush()
                    os.fsync(handle.fileno())
                    raise
                handle.write(encoded[half:])
                handle.flush()
                os.fsync(handle.fileno())
            self._covered = len(queries)
            self._records += 1
            self._stale = False
            self._crash_point("journal.commit.end")

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
            self._records = 1
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
        torn record can only be more of the same interrupted write)."""
        for record, _end in self._scan(self._read_bytes()):
            yield record

    def read_last(self) -> dict[str, Any] | None:
        """The most recent intact manifest, or ``None`` for an empty or
        wholly-corrupt journal: the last intact base with the queries of
        every intact delta that continues it folded in.  Reading stops at
        the first torn or corrupt record and at a delta whose committed
        count is not its predecessor's plus its own queries."""
        blob = self._read_bytes()
        base: dict[str, Any] | None = None
        queries: list = []
        records = 0
        reached = 0
        for record, end in self._scan(blob):
            added = record.get("queries")
            if not isinstance(added, list):
                break
            if "committed" not in record:  # a base: a full manifest
                base, queries, records = record, list(added), 1
            elif base is not None and record["committed"] == len(queries) + len(added):
                queries.extend(added)
                records += 1
            else:
                break
            reached = end
        clean = base is not None and reached == len(blob)
        self._header = _header_of(base) if clean else None
        self._covered = len(queries)
        self._records = records
        self._stale = False
        if base is None:
            return None
        return {**base, "queries": queries}
