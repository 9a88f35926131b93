"""Unit tests for dependency entries and for the NULL-aware lexicographic
ops of ``helpers``, the reference the vector property tests check merges
against."""

import pytest

from repro.core.entry import Entry
from helpers import lex_max, lex_min


class TestEntryOrdering:
    def test_equal_entries(self):
        assert Entry(1, 5) == Entry(1, 5)

    def test_higher_incarnation_dominates(self):
        assert Entry(1, 2) > Entry(0, 99)

    def test_same_incarnation_compares_by_index(self):
        assert Entry(2, 7) > Entry(2, 6)

    def test_strict_ordering_is_total(self):
        entries = [Entry(1, 5), Entry(0, 9), Entry(1, 4), Entry(2, 1)]
        assert sorted(entries) == [Entry(0, 9), Entry(1, 4), Entry(1, 5), Entry(2, 1)]

    def test_entries_are_hashable_and_frozen(self):
        entry = Entry(3, 4)
        assert {entry: "x"}[Entry(3, 4)] == "x"
        with pytest.raises(AttributeError):
            entry.sii = 9  # type: ignore[misc]


class TestEntrySuccessors:
    def test_next_interval_keeps_incarnation(self):
        assert Entry(2, 5).next_interval() == Entry(2, 6)


class TestLexMax:
    def test_null_is_smaller_than_anything(self):
        assert lex_max(None, Entry(0, 1)) == Entry(0, 1)
        assert lex_max(Entry(0, 1), None) == Entry(0, 1)

    def test_both_null(self):
        assert lex_max(None, None) is None

    def test_picks_larger(self):
        assert lex_max(Entry(0, 9), Entry(1, 2)) == Entry(1, 2)

    def test_strom_yemini_example(self):
        # Section 3: "(0,4) and (1,5) ... update the entry to (1,5)".
        assert lex_max(Entry(0, 4), Entry(1, 5)) == Entry(1, 5)


class TestLexMin:
    def test_null_wins(self):
        assert lex_min(None, Entry(5, 5)) is None
        assert lex_min(Entry(5, 5), None) is None

    def test_picks_smaller(self):
        assert lex_min(Entry(0, 9), Entry(1, 2)) == Entry(0, 9)

    def test_equal(self):
        assert lex_min(Entry(1, 1), Entry(1, 1)) == Entry(1, 1)


class TestRendering:
    def test_entry_str(self):
        assert str(Entry(2, 6)) == "(2,6)"
