"""Unit tests for the logging progress table and incarnation end table."""

import json

import pytest

from repro.core.columnar import pack
from repro.core.entry import Entry
from repro.core.tables import EntrySetTable, IncarnationEndTable, LoggingProgressTable


class TestInsertSemantics:
    """The paper's Insert keeps one entry per incarnation, max index."""

    def test_insert_new_incarnation(self):
        t = EntrySetTable(3)
        t.insert(0, Entry(0, 5))
        assert list(t.entries(0)) == [Entry(0, 5)]

    def test_insert_keeps_maximum(self):
        t = EntrySetTable(3)
        t.insert(0, Entry(0, 5))
        t.insert(0, Entry(0, 3))
        assert t.lookup(0, 0) == 5
        t.insert(0, Entry(0, 9))
        assert t.lookup(0, 0) == 9

    def test_separate_incarnations_coexist(self):
        t = EntrySetTable(3)
        t.insert(1, Entry(0, 5))
        t.insert(1, Entry(1, 2))
        assert list(t.entries(1)) == [Entry(0, 5), Entry(1, 2)]
        assert t.row_size(1) == 2

    def test_rows_are_per_process(self):
        t = EntrySetTable(3)
        t.insert(0, Entry(0, 5))
        assert t.lookup(1, 0) is None

    def test_bad_pid(self):
        t = EntrySetTable(3)
        with pytest.raises(IndexError):
            t.insert(3, Entry(0, 1))

    def test_bad_size(self):
        with pytest.raises(ValueError):
            EntrySetTable(0)


class TestSnapshotMerge:
    def test_roundtrip(self):
        t = EntrySetTable(3)
        t.insert(0, Entry(0, 5))
        t.insert(2, Entry(1, 7))
        u = EntrySetTable(3)
        u.merge_snapshot(t.snapshot_columns())
        assert u.lookup(0, 0) == 5
        assert u.lookup(2, 1) == 7

    def test_merge_takes_max(self):
        t = EntrySetTable(2)
        t.insert(0, Entry(0, 9))
        u = EntrySetTable(2)
        u.insert(0, Entry(0, 4))
        u.merge_snapshot(t.snapshot_columns())
        assert u.lookup(0, 0) == 9

    def test_snapshot_is_deep(self):
        t = EntrySetTable(2)
        t.insert(0, Entry(0, 1))
        snap = t.snapshot_columns()
        t.insert(0, Entry(0, 5))
        assert snap.rows()[0][0] == 1

    def test_size_mismatch_rejected(self):
        t = EntrySetTable(2)
        with pytest.raises(ValueError):
            t.merge_snapshot(EntrySetTable(1).snapshot_columns())


class TestLoggingProgressCovers:
    def test_covers_lower_index_same_incarnation(self):
        log = LoggingProgressTable(2)
        log.insert(1, Entry(0, 6))
        assert log.covers(1, Entry(0, 6))
        assert log.covers(1, Entry(0, 3))

    def test_does_not_cover_higher_index(self):
        log = LoggingProgressTable(2)
        log.insert(1, Entry(0, 6))
        assert not log.covers(1, Entry(0, 7))

    def test_does_not_cover_other_incarnations(self):
        # covers() is per-incarnation, exactly like the pseudo-code's
        # "(t, x') in log[j] and x <= x'".
        log = LoggingProgressTable(2)
        log.insert(1, Entry(1, 9))
        assert not log.covers(1, Entry(0, 2))

    def test_empty_table_covers_nothing(self):
        log = LoggingProgressTable(2)
        assert not log.covers(0, Entry(0, 1))


class TestIncarnationEndInvalidates:
    def test_invalidates_same_incarnation_beyond_end(self):
        # iet announces incarnation 0 of P1 ended at 4: (0,5) is orphaned.
        iet = IncarnationEndTable(2)
        iet.insert(1, Entry(0, 4))
        assert iet.invalidates(1, Entry(0, 5))
        assert not iet.invalidates(1, Entry(0, 4))
        assert not iet.invalidates(1, Entry(0, 3))

    def test_invalidates_earlier_incarnations_too(self):
        # The end of incarnation 2 at index 6 also kills (0,9) and (1,7):
        # everything beyond index 6 of incarnation <= 2 was rolled back.
        iet = IncarnationEndTable(2)
        iet.insert(1, Entry(2, 6))
        assert iet.invalidates(1, Entry(0, 9))
        assert iet.invalidates(1, Entry(1, 7))
        assert not iet.invalidates(1, Entry(2, 6))

    def test_does_not_invalidate_newer_incarnations(self):
        iet = IncarnationEndTable(2)
        iet.insert(1, Entry(0, 4))
        assert not iet.invalidates(1, Entry(1, 5))

    def test_multiple_ends(self):
        iet = IncarnationEndTable(2)
        iet.insert(0, Entry(0, 4))
        iet.insert(0, Entry(1, 10))
        assert iet.invalidates(0, Entry(1, 11))
        assert iet.invalidates(0, Entry(0, 5))
        assert not iet.invalidates(0, Entry(2, 12))

    def test_highest_ended_incarnation(self):
        iet = IncarnationEndTable(3)
        assert iet.highest_ended_incarnation(0) == -1
        iet.insert(0, Entry(0, 4))
        iet.insert(0, Entry(2, 9))
        assert iet.highest_ended_incarnation(0) == 2

    def test_figure1_r1(self):
        # r1 carries (0,4)_1: P3's dependency (0,5)_1 is invalidated,
        # P4's dependency (0,4)_1 is not.
        iet = IncarnationEndTable(6)
        iet.insert(1, Entry(0, 4))
        assert iet.invalidates(1, Entry(0, 5))      # P3 must roll back
        assert not iet.invalidates(1, Entry(0, 4))  # P4 is fine


@pytest.mark.parametrize("n", [5, 64])  # list backend / numpy when present
class TestPlainPythonValues:
    """Reads never leak ``numpy.int64`` / ``numpy.bool_``: every backend
    answers in plain ``int`` / ``bool`` (JSON-serialisable, one ``repr``)."""

    @staticmethod
    def _gossiped(cls, n):
        donor = cls(n)
        donor.insert(1, Entry(0, 7))
        donor.insert(2, Entry(3, 9))  # grows the column past one block
        table = cls(n)
        table.enable_changelog()
        table.insert(1, Entry(0, 4))
        table.merge_snapshot(donor.snapshot_columns())
        return table

    def test_table_reads_are_int(self, n):
        table = self._gossiped(EntrySetTable, n)
        assert type(table.lookup(1, 0)) is int
        assert table.lookup(1, 1) is None
        assert all(type(e.sii) is int and type(e.inc) is int
                   for pid in range(n) for e in table.entries(pid))
        assert type(table.row_size(2)) is int
        snap = table.snapshot_columns()
        assert all(type(v) is int for row in snap.rows() for v in row.values())
        assert all(type(v) is int for v in snap.restrict(2).rows()[2].values())
        delta = table.delta_since((0, 0))
        assert delta.entries == ((1, 0, 7), (2, 3, 9))
        assert all(type(x) is int for e in delta.entries for x in e)
        assert json.loads(json.dumps(snap.rows()))[2] == {"3": 9}

    def test_covers_is_bool(self, n):
        log = self._gossiped(LoggingProgressTable, n)
        for entry in (Entry(0, 7), Entry(0, 8), Entry(3, 1), Entry(5, 0)):
            assert type(log.covers(1, entry)) is bool
            assert type(log.covers_packed(2, pack(entry.inc, entry.sii))) is bool
        assert log.covers(1, Entry(0, 7)) and not log.covers(1, Entry(0, 8))

    def test_invalidates_is_bool(self, n):
        iet = self._gossiped(IncarnationEndTable, n)
        for entry in (Entry(0, 7), Entry(0, 8), Entry(3, 10), Entry(5, 0)):
            assert type(iet.invalidates(1, entry)) is bool
            assert type(iet.invalidates_packed(2, pack(entry.inc, entry.sii))) is bool
        assert iet.invalidates(2, Entry(1, 10)) and not iet.invalidates(2, Entry(1, 9))
        assert type(iet.highest_ended_incarnation(2)) is int
        assert iet.highest_ended_incarnation(2) == 3
