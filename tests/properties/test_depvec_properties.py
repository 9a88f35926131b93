"""Property-based tests: dependency vectors and the two table types."""

from hypothesis import given
from hypothesis import strategies as st

from repro.core.depvec import DependencyVector
from repro.core.entry import Entry
from helpers import lex_max
from repro.core.tables import IncarnationEndTable, LoggingProgressTable

N = 5

entries = st.builds(Entry, inc=st.integers(0, 4), sii=st.integers(1, 30))
entry_maps = st.dictionaries(st.integers(0, N - 1), entries, max_size=N)


def vec(mapping):
    return DependencyVector(N, mapping)


class TestMergeProperties:
    @given(entry_maps, entry_maps)
    def test_merge_commutative(self, a, b):
        left = vec(a)
        left.merge(vec(b))
        right = vec(b)
        right.merge(vec(a))
        assert left == right

    @given(entry_maps, entry_maps, entry_maps)
    def test_merge_associative(self, a, b, c):
        ab_c = vec(a)
        ab_c.merge(vec(b))
        ab_c.merge(vec(c))
        bc = vec(b)
        bc.merge(vec(c))
        a_bc = vec(a)
        a_bc.merge(bc)
        assert ab_c == a_bc

    @given(entry_maps)
    def test_merge_idempotent(self, a):
        v = vec(a)
        v.merge(vec(a))
        assert v == vec(a)

    @given(entry_maps, entry_maps)
    def test_merge_pointwise_max(self, a, b):
        v = vec(a)
        v.merge(vec(b))
        for pid in range(N):
            assert v.get(pid) == lex_max(a.get(pid), b.get(pid))

    @given(entry_maps, entry_maps)
    def test_merge_monotone(self, a, b):
        # Merging never loses or shrinks an entry.
        v = vec(a)
        v.merge(vec(b))
        for pid, entry in a.items():
            assert v.get(pid) >= entry

    @given(entry_maps)
    def test_size_bounded_by_n(self, a):
        assert vec(a).non_null_count() <= N


class TestCopyProperties:
    @given(entry_maps)
    def test_copy_equal_but_independent(self, a):
        v = vec(a)
        c = v.copy()
        assert c == v
        c.set(0, Entry(9, 999))
        if a.get(0) != Entry(9, 999):
            assert v != c


class TestTableProperties:
    @given(st.lists(st.tuples(st.integers(0, N - 1), entries), max_size=20))
    def test_insert_order_irrelevant(self, inserts):
        a = LoggingProgressTable(N)
        b = LoggingProgressTable(N)
        for pid, entry in inserts:
            a.insert(pid, entry)
        for pid, entry in reversed(inserts):
            b.insert(pid, entry)
        assert a.snapshot_columns() == b.snapshot_columns()

    @given(st.lists(st.tuples(st.integers(0, N - 1), entries), max_size=20),
           st.integers(0, N - 1), entries)
    def test_covers_monotone_under_inserts(self, inserts, pid, probe):
        log = LoggingProgressTable(N)
        covered_before = False
        for insert_pid, entry in inserts:
            if covered_before:
                assert log.covers(pid, probe)
            covered_before = log.covers(pid, probe)
            log.insert(insert_pid, entry)
        # covers never flips back to False once True.

    @given(st.lists(st.tuples(st.integers(0, N - 1), entries), max_size=20),
           st.integers(0, N - 1), entries)
    def test_invalidates_monotone_under_inserts(self, inserts, pid, probe):
        # An incarnation ends exactly once, so a real execution never
        # inserts two *different* end indices for the same (pid, inc);
        # deduplicate the generated inserts accordingly (duplicates of the
        # same announcement are fine and exercised).
        seen = {}
        for insert_pid, entry in inserts:
            seen.setdefault((insert_pid, entry.inc), entry)
        iet = IncarnationEndTable(N)
        was_invalid = False
        for (insert_pid, _inc), entry in seen.items():
            iet.insert(insert_pid, entry)
            iet.insert(insert_pid, entry)  # duplicate announcement
            invalid_now = iet.invalidates(pid, probe)
            assert invalid_now or not was_invalid
            was_invalid = invalid_now

    @given(st.lists(st.tuples(st.integers(0, N - 1), entries), max_size=20))
    def test_merge_snapshot_equals_inserts(self, inserts):
        direct = LoggingProgressTable(N)
        for pid, entry in inserts:
            direct.insert(pid, entry)
        merged = LoggingProgressTable(N)
        merged.merge_snapshot(direct.snapshot_columns())
        assert merged.snapshot_columns() == direct.snapshot_columns()

    @given(st.integers(0, N - 1), entries, entries)
    def test_covers_and_invalidates_disjoint_same_incarnation(self, pid, end, probe):
        # For a single iet/log entry pair derived from one announcement,
        # a dependency cannot be both covered (stable) and invalidated.
        log = LoggingProgressTable(N)
        iet = IncarnationEndTable(N)
        log.insert(pid, end)
        iet.insert(pid, end)
        if probe.inc == end.inc:
            assert not (log.covers(pid, probe) and iet.invalidates(pid, probe))
