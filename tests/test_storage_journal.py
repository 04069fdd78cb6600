"""Unit tests for the crash-consistent manifest journal."""

from __future__ import annotations

import struct

import pytest

from repro.storage.errors import SimulatedCrash
from repro.storage.journal import RECORD_HEADER, ManifestJournal


def manifest(n: int) -> dict:
    """A manifest whose history is the first ``n`` queries."""
    return {"version": 2, "config": {"knob": 1}, "queries": list(range(n))}


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
        for n in range(5):
            journal.commit(manifest(n))
        assert journal.read_last() == manifest(4)
        # One base, then one delta per commit holding only what is new.
        first, *deltas = journal.records()
        assert first == manifest(0)
        assert deltas == [{"committed": n, "queries": [n - 1]} for n in range(1, 5)]

    def test_reopened_journal_sees_committed_records(self, tmp_path):
        path = tmp_path / "j.log"
        ManifestJournal(path).commit(manifest(7))
        assert ManifestJournal(path).read_last() == manifest(7)

    def test_rejects_bad_compact_every(self, tmp_path):
        with pytest.raises(ValueError):
            ManifestJournal(tmp_path / "j.log", compact_every=0)


class TestTornAndCorruptTails:
    def test_torn_tail_discarded(self, tmp_path):
        path = tmp_path / "j.log"
        journal = ManifestJournal(path)
        journal.commit(manifest(1))
        journal.commit(manifest(2))
        blob = path.read_bytes()
        path.write_bytes(blob[:-3])  # tear the last record mid-payload
        assert ManifestJournal(path).read_last() == manifest(1)

    def test_torn_header_discarded(self, tmp_path):
        path = tmp_path / "j.log"
        journal = ManifestJournal(path)
        journal.commit(manifest(1))
        with path.open("ab") as handle:
            handle.write(b"\x05")  # lone byte: not even a full header
        assert ManifestJournal(path).read_last() == manifest(1)

    def test_corrupt_record_and_everything_after_discarded(self, tmp_path):
        path = tmp_path / "j.log"
        journal = ManifestJournal(path)
        journal.commit(manifest(1))
        offset_second = path.stat().st_size
        journal.commit(manifest(2))
        journal.commit(manifest(3))
        blob = bytearray(path.read_bytes())
        blob[offset_second + RECORD_HEADER.size] ^= 0xFF  # flip in record 2
        path.write_bytes(bytes(blob))
        assert ManifestJournal(path).read_last() == manifest(1)

    def test_garbage_length_prefix_discarded(self, tmp_path):
        path = tmp_path / "j.log"
        journal = ManifestJournal(path)
        journal.commit(manifest(1))
        with path.open("ab") as handle:
            handle.write(struct.pack("<II", 2**30, 0))  # absurd length
        assert ManifestJournal(path).read_last() == manifest(1)


class TestCompaction:
    def test_auto_compaction_bounds_the_file(self, tmp_path):
        path = tmp_path / "j.log"
        journal = ManifestJournal(path, compact_every=4)
        sizes = []
        for n in range(12):
            journal.commit(manifest(3))
            sizes.append(path.stat().st_size)
        single = len(ManifestJournal._encode(manifest(3)))
        # A commit that finds 4 records collapses the file back to one.
        assert sizes[0] == single and sizes[4] == single and sizes[8] == single
        assert max(sizes) <= 4 * single
        assert journal.read_last() == manifest(3)

    def test_explicit_rewrite(self, tmp_path):
        path = tmp_path / "j.log"
        journal = ManifestJournal(path)
        for n in range(6):
            journal.commit(manifest(n))
        journal.rewrite(manifest(99))
        assert path.stat().st_size == len(ManifestJournal._encode(manifest(99)))
        assert [covered(r) for r in journal.records()] == [99]


def crash_at(point_to_crash):
    def hook(point):
        if point == point_to_crash:
            raise SimulatedCrash(point)

    return hook


class TestCrashPoints:
    def test_crash_before_commit_keeps_previous(self, tmp_path):
        path = tmp_path / "j.log"
        ManifestJournal(path).commit(manifest(1))
        journal = ManifestJournal(path, crash_hook=crash_at("journal.commit.start"))
        with pytest.raises(SimulatedCrash):
            journal.commit(manifest(2))
        assert ManifestJournal(path).read_last() == manifest(1)

    def test_crash_mid_commit_persists_torn_record(self, tmp_path):
        path = tmp_path / "j.log"
        ManifestJournal(path).commit(manifest(1))
        size_before = path.stat().st_size
        journal = ManifestJournal(path, crash_hook=crash_at("journal.commit.torn"))
        with pytest.raises(SimulatedCrash):
            journal.commit(manifest(2))
        assert path.stat().st_size > size_before  # the torn prefix landed
        assert ManifestJournal(path).read_last() == manifest(1)

    def test_crash_after_commit_keeps_new_record(self, tmp_path):
        path = tmp_path / "j.log"
        ManifestJournal(path).commit(manifest(1))
        journal = ManifestJournal(path, crash_hook=crash_at("journal.commit.end"))
        with pytest.raises(SimulatedCrash):
            journal.commit(manifest(2))
        assert ManifestJournal(path).read_last() == manifest(2)

    @pytest.mark.parametrize(
        "point", ["journal.rewrite.start", "journal.rewrite.before_rename"]
    )
    def test_crash_before_rename_keeps_old_journal(self, tmp_path, point):
        path = tmp_path / "j.log"
        old = ManifestJournal(path)
        for n in range(3):
            old.commit(manifest(n))
        journal = ManifestJournal(path, crash_hook=crash_at(point))
        with pytest.raises(SimulatedCrash):
            journal.rewrite(manifest(99))
        assert [covered(r) for r in ManifestJournal(path).records()] == [0, 1, 2]

    def test_crash_after_rename_keeps_new_journal(self, tmp_path):
        path = tmp_path / "j.log"
        old = ManifestJournal(path)
        for n in range(3):
            old.commit(manifest(n))
        journal = ManifestJournal(path, crash_hook=crash_at("journal.rewrite.end"))
        with pytest.raises(SimulatedCrash):
            journal.rewrite(manifest(99))
        assert [covered(r) for r in ManifestJournal(path).records()] == [99]

    def test_commit_after_torn_crash_recovers_cleanly(self, tmp_path):
        # A process that crashed mid-commit, restarted, and committed again
        # must not resurrect the torn tail, nor append behind it where no
        # reader looks: the restarted journal sees the tail and compacts.
        path = tmp_path / "j.log"
        ManifestJournal(path).commit(manifest(0))
        journal = ManifestJournal(path, crash_hook=crash_at("journal.commit.torn"))
        with pytest.raises(SimulatedCrash):
            journal.commit(manifest(1))
        reopened = ManifestJournal(path, compact_every=2)
        reopened.commit(manifest(2))
        assert ManifestJournal(path).read_last() == manifest(2)
        reopened.commit(manifest(3))
        assert [covered(r) for r in ManifestJournal(path).records()] == [2, 3]
        assert ManifestJournal(path).read_last() == manifest(3)

    def test_commit_on_the_crashed_journal_object_heals_too(self, tmp_path):
        path = tmp_path / "j.log"
        ManifestJournal(path).commit(manifest(0))
        armed = [True]

        def hook(point):
            if armed[0] and point == "journal.commit.torn":
                raise SimulatedCrash(point)

        journal = ManifestJournal(path, crash_hook=hook)
        with pytest.raises(SimulatedCrash):
            journal.commit(manifest(1))
        armed[0] = False
        journal.commit(manifest(2))
        assert [covered(r) for r in ManifestJournal(path).records()] == [2]


class TestBaseAndDeltas:
    def test_header_is_written_only_by_rewrite(self, tmp_path):
        journal = ManifestJournal(tmp_path / "j.log")
        for n in range(6):
            journal.commit(manifest(n))
        bases = [r for r in journal.records() if "committed" not in r]
        assert bases == [manifest(0)]

    def test_changed_header_forces_a_new_base(self, tmp_path):
        journal = ManifestJournal(tmp_path / "j.log")
        journal.commit(manifest(2))
        other = {**manifest(2), "config": {"knob": 2}}
        journal.commit(other)
        assert list(journal.records()) == [other]

    def test_shrunken_history_forces_a_new_base(self, tmp_path):
        journal = ManifestJournal(tmp_path / "j.log")
        journal.commit(manifest(5))
        journal.commit(manifest(2))
        assert ManifestJournal(journal.path).read_last() == manifest(2)

    def test_delta_that_does_not_continue_its_base_is_the_torn_tail(self, tmp_path):
        path = tmp_path / "j.log"
        journal = ManifestJournal(path)
        journal.commit(manifest(1))
        journal.commit(manifest(2))
        stray = ManifestJournal._encode({"committed": 7, "queries": [6]})
        later = ManifestJournal._encode({"committed": 8, "queries": [7]})
        with path.open("ab") as handle:
            handle.write(stray + later)
        reopened = ManifestJournal(path)
        assert reopened.read_last() == manifest(2)
        # ...and, like a torn tail, the next commit compacts it away.
        reopened.commit(manifest(3))
        assert list(ManifestJournal(path).records()) == [manifest(3)]

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
        journal.commit(manifest(4))  # another header: compacts, never mixes
        assert list(ManifestJournal(path).records()) == [manifest(4)]

    def test_reopening_does_not_defeat_compaction(self, tmp_path):
        # The cadence follows the file: a journal reopened before every
        # commit compacts as often as one that never is.
        path = tmp_path / "j.log"
        compact_every = 4
        most = 0
        for n in range(3 * compact_every):
            ManifestJournal(path, compact_every=compact_every).commit(manifest(n))
            most = max(most, sum(1 for _ in ManifestJournal(path).records()))
        assert most == compact_every
        assert ManifestJournal(path).read_last() == manifest(3 * compact_every - 1)


class TestIntents:
    """An intent announces a file mutation beyond the last commit."""

    def test_intact_intent_after_the_last_delta_marks_the_fold_dirty(self, tmp_path):
        path = tmp_path / "j.log"
        journal = ManifestJournal(path)
        journal.commit(manifest(1))
        journal.commit(manifest(2))
        assert not ManifestJournal(path).dirty
        journal.intent()
        reopened = ManifestJournal(path)
        assert reopened.read_last() == manifest(2)
        assert reopened.dirty
        # The next commit covers it.
        journal.commit(manifest(3))
        reopened = ManifestJournal(path)
        assert reopened.read_last() == manifest(3) and not reopened.dirty

    def test_torn_intent_does_not(self, tmp_path):
        path = tmp_path / "j.log"
        journal = ManifestJournal(path)
        journal.commit(manifest(2))
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
        ManifestJournal(path).commit(manifest(1))
        journal = ManifestJournal(path, crash_hook=crash_at("journal.commit.torn"))
        with pytest.raises(SimulatedCrash):
            journal.commit(manifest(2))
        ManifestJournal(path).intent()
        reopened = ManifestJournal(path)
        assert reopened.read_last() == manifest(1)
        assert reopened.dirty

    def test_intents_do_not_advance_the_compaction_cadence(self, tmp_path):
        path = tmp_path / "j.log"
        journal = ManifestJournal(path, compact_every=3)
        for n in range(3):
            journal.intent()
            journal.commit(manifest(n))
        # Three records and three intents: the next commit compacts, as it
        # would without the intents.
        assert [covered(r) for r in journal.records()] == [0, 1, 2]
        journal.intent()
        journal.commit(manifest(3))
        assert [covered(r) for r in ManifestJournal(path).records()] == [3]

    def test_records_skip_intents(self, tmp_path):
        path = tmp_path / "j.log"
        journal = ManifestJournal(path)
        journal.commit(manifest(0))
        journal.intent()
        journal.commit(manifest(1))
        journal.intent()
        assert list(journal.records()) == [manifest(0), {"committed": 1, "queries": [0]}]

    def test_rewrite_drops_intents_and_keeps_the_taint(self, tmp_path):
        path = tmp_path / "j.log"
        journal = ManifestJournal(path)
        tainted = {**manifest(2), "tainted": True}
        journal.commit(tainted)
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
        journal.commit({**header, "queries": [self.entry(0, facts)]})
        journal.commit({**header, "queries": [self.entry(0, facts), self.entry(1, [])]})
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
