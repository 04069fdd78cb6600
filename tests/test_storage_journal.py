"""Unit tests for the crash-consistent manifest journal."""

from __future__ import annotations

import struct

import pytest

from repro.storage import journal as journal_module
from repro.storage.errors import SimulatedCrash
from repro.storage.journal import RECORD_HEADER, ManifestJournal


#: The header every test commits under, unless it says otherwise.
HEADER = {"version": 2, "config": {"knob": 1}}


def manifest(n: int) -> dict:
    """A manifest whose history is the first ``n`` queries."""
    return {**HEADER, "queries": list(range(n))}


def commit_each(journal: ManifestJournal, start: int, stop: int) -> None:
    """Commit queries ``start`` to ``stop - 1`` one at a time."""
    for query in range(start, stop):
        journal.commit(HEADER, [query])


def covered(record: dict) -> int:
    """How many queries the journal covers once ``record`` is read: a
    delta says so, a base (a full manifest) holds that many."""
    return record.get("committed", len(record["queries"]))


class TestCommitAndRead:
    def test_empty_journal_reads_none(self, tmp_path):
        journal = ManifestJournal(tmp_path / "j.log")
        assert not journal.exists()
        assert journal.read_last() is None
        assert list(journal.records()) == []

    def test_last_commit_wins(self, tmp_path):
        journal = ManifestJournal(tmp_path / "j.log")
        journal.commit(HEADER, [])
        commit_each(journal, 0, 4)
        assert journal.read_last() == manifest(4)
        # One base, then one delta per commit holding only what is new.
        first, *deltas = journal.records()
        assert first == manifest(0)
        assert deltas == [{"committed": n, "queries": [n - 1]} for n in range(1, 5)]

    def test_reopened_journal_sees_committed_records(self, tmp_path):
        path = tmp_path / "j.log"
        ManifestJournal(path).commit(HEADER, list(range(7)))
        assert ManifestJournal(path).read_last() == manifest(7)

    def test_a_commit_without_entries_writes_nothing(self, tmp_path):
        path = tmp_path / "j.log"
        journal = ManifestJournal(path)
        journal.commit(HEADER, [0])
        size = path.stat().st_size
        journal.commit(HEADER, [])
        ManifestJournal(path).commit(HEADER, [])
        assert path.stat().st_size == size


class TestTornAndCorruptTails:
    def test_torn_tail_discarded(self, tmp_path):
        path = tmp_path / "j.log"
        journal = ManifestJournal(path)
        commit_each(journal, 0, 2)
        blob = path.read_bytes()
        path.write_bytes(blob[:-3])  # tear the last record mid-payload
        assert ManifestJournal(path).read_last() == manifest(1)

    def test_torn_header_discarded(self, tmp_path):
        path = tmp_path / "j.log"
        journal = ManifestJournal(path)
        journal.commit(HEADER, [0])
        with path.open("ab") as handle:
            handle.write(b"\x05")  # lone byte: not even a full header
        assert ManifestJournal(path).read_last() == manifest(1)

    def test_corrupt_record_and_everything_after_discarded(self, tmp_path):
        path = tmp_path / "j.log"
        journal = ManifestJournal(path)
        journal.commit(HEADER, [0])
        offset_second = path.stat().st_size
        commit_each(journal, 1, 3)
        blob = bytearray(path.read_bytes())
        blob[offset_second + RECORD_HEADER.size] ^= 0xFF  # flip in record 2
        path.write_bytes(bytes(blob))
        assert ManifestJournal(path).read_last() == manifest(1)

    def test_garbage_length_prefix_discarded(self, tmp_path):
        path = tmp_path / "j.log"
        journal = ManifestJournal(path)
        journal.commit(HEADER, [0])
        with path.open("ab") as handle:
            handle.write(struct.pack("<II", 2**30, 0))  # absurd length
        assert ManifestJournal(path).read_last() == manifest(1)


class TestCompaction:
    def test_explicit_rewrite(self, tmp_path):
        path = tmp_path / "j.log"
        journal = ManifestJournal(path)
        commit_each(journal, 0, 6)
        journal.rewrite(manifest(99))
        assert path.stat().st_size == len(ManifestJournal._encode(manifest(99)))
        assert [covered(r) for r in journal.records()] == [99]

    def test_commits_never_rewrite(self, tmp_path, monkeypatch):
        path = tmp_path / "j.log"
        ManifestJournal(path).commit(HEADER, [0])
        rewrites = []
        monkeypatch.setattr(ManifestJournal, "rewrite", lambda self, m: rewrites.append(m))
        commit_each(ManifestJournal(path), 1, 20)
        for query in range(20, 30):  # reopened before every commit
            ManifestJournal(path).commit(HEADER, [query])
        assert rewrites == []
        assert ManifestJournal(path).read_last() == manifest(30)
        assert [covered(r) for r in ManifestJournal(path).records()] == list(range(1, 31))


def crash_at(point_to_crash):
    def hook(point):
        if point == point_to_crash:
            raise SimulatedCrash(point)

    return hook


class TestCrashPoints:
    def test_crash_before_commit_keeps_previous(self, tmp_path):
        path = tmp_path / "j.log"
        ManifestJournal(path).commit(HEADER, [0])
        journal = ManifestJournal(path, crash_hook=crash_at("journal.commit.start"))
        with pytest.raises(SimulatedCrash):
            journal.commit(HEADER, [1])
        assert ManifestJournal(path).read_last() == manifest(1)

    def test_crash_mid_commit_persists_torn_record(self, tmp_path):
        path = tmp_path / "j.log"
        ManifestJournal(path).commit(HEADER, [0])
        size_before = path.stat().st_size
        journal = ManifestJournal(path, crash_hook=crash_at("journal.commit.torn"))
        with pytest.raises(SimulatedCrash):
            journal.commit(HEADER, [1])
        assert path.stat().st_size > size_before  # the torn prefix landed
        assert ManifestJournal(path).read_last() == manifest(1)

    def test_crash_after_commit_keeps_new_record(self, tmp_path):
        path = tmp_path / "j.log"
        ManifestJournal(path).commit(HEADER, [0])
        journal = ManifestJournal(path, crash_hook=crash_at("journal.commit.end"))
        with pytest.raises(SimulatedCrash):
            journal.commit(HEADER, [1])
        assert ManifestJournal(path).read_last() == manifest(2)

    @pytest.mark.parametrize(
        "point", ["journal.rewrite.start", "journal.rewrite.before_rename"]
    )
    def test_crash_before_rename_keeps_old_journal(self, tmp_path, point):
        path = tmp_path / "j.log"
        old = ManifestJournal(path)
        old.commit(HEADER, [])
        commit_each(old, 0, 2)
        journal = ManifestJournal(path, crash_hook=crash_at(point))
        with pytest.raises(SimulatedCrash):
            journal.rewrite(manifest(99))
        assert [covered(r) for r in ManifestJournal(path).records()] == [0, 1, 2]

    def test_crash_after_rename_keeps_new_journal(self, tmp_path):
        path = tmp_path / "j.log"
        old = ManifestJournal(path)
        old.commit(HEADER, [])
        commit_each(old, 0, 2)
        journal = ManifestJournal(path, crash_hook=crash_at("journal.rewrite.end"))
        with pytest.raises(SimulatedCrash):
            journal.rewrite(manifest(99))
        assert [covered(r) for r in ManifestJournal(path).records()] == [99]

    def test_commit_after_torn_crash_recovers_cleanly(self, tmp_path):
        # A process that crashed mid-commit, restarted, and committed again
        # must not resurrect the torn tail, nor append behind it where no
        # reader looks: the restarted journal appends where the intact
        # records end and cuts the tail off.
        path = tmp_path / "j.log"
        ManifestJournal(path).commit(HEADER, [])
        journal = ManifestJournal(path, crash_hook=crash_at("journal.commit.torn"))
        with pytest.raises(SimulatedCrash):
            journal.commit(HEADER, [0])
        reopened = ManifestJournal(path)
        reopened.commit(HEADER, [0, 1])
        assert ManifestJournal(path).read_last() == manifest(2)
        reopened.commit(HEADER, [2])
        assert ManifestJournal(path).read_last() == manifest(3)
        records = [manifest(0), {"committed": 2, "queries": [0, 1]}, {"committed": 3, "queries": [2]}]
        assert path.read_bytes() == b"".join(map(ManifestJournal._encode, records))

    def test_commit_on_the_crashed_journal_object_heals_too(self, tmp_path):
        path = tmp_path / "j.log"
        ManifestJournal(path).commit(HEADER, [])
        armed = [True]

        def hook(point):
            if armed[0] and point == "journal.commit.torn":
                raise SimulatedCrash(point)

        journal = ManifestJournal(path, crash_hook=hook)
        with pytest.raises(SimulatedCrash):
            journal.commit(HEADER, [0])
        assert journal.committed == 1  # kept, and written with the next commit
        armed[0] = False
        journal.commit(HEADER, [1])
        assert [covered(r) for r in ManifestJournal(path).records()] == [0, 2]
        assert ManifestJournal(path).read_last() == manifest(2)

    def test_a_write_that_landed_before_it_raised_is_not_written_twice(
        self, tmp_path, monkeypatch
    ):
        # The record is down but ``fsync`` reports an error: the next
        # commit reads the file, finds the record and writes only its own.
        path = tmp_path / "j.log"
        journal = ManifestJournal(path)
        journal.commit(HEADER, [0])
        real_fsync = journal_module.os.fsync

        def failing_fsync(fd):
            raise OSError("fsync")

        monkeypatch.setattr(journal_module.os, "fsync", failing_fsync)
        with pytest.raises(OSError):
            journal.commit(HEADER, [1])
        monkeypatch.setattr(journal_module.os, "fsync", real_fsync)
        journal.commit(HEADER, [2])
        assert ManifestJournal(path).read_last() == manifest(3)


class TestBaseAndDeltas:
    def test_header_is_written_only_by_rewrite(self, tmp_path):
        journal = ManifestJournal(tmp_path / "j.log")
        journal.commit(HEADER, [])
        commit_each(journal, 0, 5)
        bases = [r for r in journal.records() if "committed" not in r]
        assert bases == [manifest(0)]

    def test_changed_header_forces_a_new_base(self, tmp_path):
        path = tmp_path / "j.log"
        ManifestJournal(path).commit(HEADER, [])
        commit_each(ManifestJournal(path), 0, 2)
        other = {**HEADER, "config": {"knob": 2}}
        ManifestJournal(path).commit(other, [2])
        assert list(ManifestJournal(path).records()) == [{**other, "queries": [0, 1, 2]}]

    def test_delta_that_does_not_continue_its_base_is_the_torn_tail(self, tmp_path):
        path = tmp_path / "j.log"
        journal = ManifestJournal(path)
        commit_each(journal, 0, 2)
        stray = ManifestJournal._encode({"committed": 7, "queries": [6]})
        later = ManifestJournal._encode({"committed": 8, "queries": [7]})
        with path.open("ab") as handle:
            handle.write(stray + later)
        reopened = ManifestJournal(path)
        assert reopened.read_last() == manifest(2)
        # ...and, like a torn tail, the next commit cuts it off.
        reopened.commit(HEADER, [2])
        assert [covered(r) for r in ManifestJournal(path).records()] == [1, 2, 3]
        assert ManifestJournal(path).read_last() == manifest(3)

    def test_delta_without_a_base_reads_as_nothing(self, tmp_path):
        path = tmp_path / "j.log"
        path.write_bytes(ManifestJournal._encode({"committed": 1, "queries": [0]}))
        assert ManifestJournal(path).read_last() is None

    def test_version_1_journal_folds_to_its_last_full_manifest(self, tmp_path):
        path = tmp_path / "j.log"
        old = [{"version": 1, "config": {}, "queries": list(range(n))} for n in range(4)]
        path.write_bytes(b"".join(ManifestJournal._encode(m) for m in old))
        journal = ManifestJournal(path)
        assert journal.read_last() == old[-1]
        journal.commit(HEADER, [3])  # another header: rewrites, never mixes
        assert list(ManifestJournal(path).records()) == [manifest(4)]


class TestIntents:
    """An intent announces a file mutation beyond the last commit."""

    def test_intact_intent_after_the_last_delta_marks_the_fold_dirty(self, tmp_path):
        path = tmp_path / "j.log"
        journal = ManifestJournal(path)
        commit_each(journal, 0, 2)
        assert not ManifestJournal(path).dirty
        journal.intent()
        reopened = ManifestJournal(path)
        assert reopened.read_last() == manifest(2)
        assert reopened.dirty
        # The next commit covers it.
        journal.commit(HEADER, [2])
        reopened = ManifestJournal(path)
        assert reopened.read_last() == manifest(3) and not reopened.dirty

    def test_torn_intent_does_not(self, tmp_path):
        path = tmp_path / "j.log"
        journal = ManifestJournal(path)
        journal.commit(HEADER, [0, 1])
        whole = ManifestJournal._encode({"intent": 2})
        with path.open("ab") as handle:
            handle.write(whole[: len(whole) - 1])  # the process died writing it
        reopened = ManifestJournal(path)
        assert reopened.read_last() == manifest(2)
        assert not reopened.dirty

    def test_intent_after_a_torn_commit_is_not_hidden_by_it(self, tmp_path):
        # A commit that failed half way leaves a tail no reader passes; the
        # intent is written where the intact records end, over that tail.
        path = tmp_path / "j.log"
        ManifestJournal(path).commit(HEADER, [0])
        journal = ManifestJournal(path, crash_hook=crash_at("journal.commit.torn"))
        with pytest.raises(SimulatedCrash):
            journal.commit(HEADER, [1])
        ManifestJournal(path).intent()
        reopened = ManifestJournal(path)
        assert reopened.read_last() == manifest(1)
        assert reopened.dirty

    def test_records_skip_intents(self, tmp_path):
        path = tmp_path / "j.log"
        journal = ManifestJournal(path)
        journal.commit(HEADER, [])
        journal.intent()
        journal.commit(HEADER, [0])
        journal.intent()
        assert list(journal.records()) == [manifest(0), {"committed": 1, "queries": [0]}]

    def test_rewrite_drops_intents_and_keeps_the_taint(self, tmp_path):
        path = tmp_path / "j.log"
        journal = ManifestJournal(path)
        tainted = {**manifest(2), "tainted": True}
        journal.commit({**HEADER, "tainted": True}, [0, 1])
        journal.intent()
        assert journal.dirty
        journal.rewrite(tainted)
        reopened = ManifestJournal(path)
        assert reopened.read_last() == tainted and not reopened.dirty
        assert path.stat().st_size == len(ManifestJournal._encode(tainted))


class TestFacts:
    """Entries are the caller's: the journal folds whatever they carry."""

    @staticmethod
    def entry(n: int, facts=None) -> dict:
        query = {"lo": [0.0, 0.0], "hi": [1.0, float(n)], "ids": [0, 1]}
        if facts is not None:
            query["facts"] = facts
        return query

    def test_version_4_fold_returns_facts(self, tmp_path):
        facts = [
            ["init", 0, [[3, 0, 1], [0]], [0.5, 0.5], 3],
            ["refine", [0, [2]], [[2, 1, 1], [1, 4, 1]]],
            ["merge", [[0, 1], [[2, 1]]], [[2, 0, 1], [1, 1, 1]]],
        ]
        path = tmp_path / "j.log"
        journal = ManifestJournal(path)
        header = {"version": 4, "boot_id": "b", "tainted": False}
        journal.commit(header, [self.entry(0, facts)])
        journal.commit(header, [self.entry(1, [])])
        folded = ManifestJournal(path).read_last()
        assert [query.get("facts") for query in folded["queries"]] == [facts, []]

    def test_version_3_journal_folds_with_none(self, tmp_path):
        path = tmp_path / "j.log"
        path.write_bytes(
            ManifestJournal._encode({"version": 3, "queries": [self.entry(0)]})
            + ManifestJournal._encode({"committed": 2, "queries": [self.entry(1)]})
        )
        folded = ManifestJournal(path).read_last()
        assert len(folded["queries"]) == 2
        assert all("facts" not in query for query in folded["queries"])
