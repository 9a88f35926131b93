"""Property-based tests: entries and NULL-aware lexicographic operations."""

from hypothesis import given
from hypothesis import strategies as st

from repro.core.entry import Entry
from helpers import lex_max, lex_min

entries = st.builds(Entry, inc=st.integers(0, 10), sii=st.integers(1, 100))
opt_entries = st.one_of(st.none(), entries)


class TestLexMaxProperties:
    @given(opt_entries, opt_entries)
    def test_commutative(self, a, b):
        assert lex_max(a, b) == lex_max(b, a)

    @given(opt_entries, opt_entries, opt_entries)
    def test_associative(self, a, b, c):
        assert lex_max(lex_max(a, b), c) == lex_max(a, lex_max(b, c))

    @given(opt_entries)
    def test_idempotent(self, a):
        assert lex_max(a, a) == a

    @given(opt_entries)
    def test_null_is_identity(self, a):
        assert lex_max(a, None) == a

    @given(entries, entries)
    def test_result_dominates_both(self, a, b):
        m = lex_max(a, b)
        assert m >= a and m >= b
        assert m in (a, b)


class TestLexMinProperties:
    @given(opt_entries, opt_entries)
    def test_commutative(self, a, b):
        assert lex_min(a, b) == lex_min(b, a)

    @given(opt_entries)
    def test_null_is_absorbing(self, a):
        assert lex_min(a, None) is None

    @given(entries, entries)
    def test_result_dominated_by_both(self, a, b):
        m = lex_min(a, b)
        assert m <= a and m <= b
        assert m in (a, b)

    @given(entries, entries)
    def test_min_max_partition(self, a, b):
        assert {lex_min(a, b), lex_max(a, b)} == {a, b}


class TestOrderingProperties:
    @given(entries, entries)
    def test_total_order(self, a, b):
        assert (a < b) or (b < a) or (a == b)

    @given(entries, entries, entries)
    def test_transitive(self, a, b, c):
        if a <= b <= c:
            assert a <= c

    @given(entries)
    def test_successors_strictly_increase(self, a):
        assert a.next_interval() > a
        assert a.next_interval().next_interval() > a.next_interval()
