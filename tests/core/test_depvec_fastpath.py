"""The optimized DependencyVector against a reference implementation.

``merge`` grew pre-scan/skip-empty fast paths and ``copy`` became
copy-on-write; these tests pin both to the obvious dict-of-lex-max
semantics so future "optimizations" cannot drift."""

from hypothesis import given
from hypothesis import strategies as st

from repro.core.depvec import DependencyVector
from repro.core.entry import Entry
from helpers import lex_max

N = 6

entries = st.builds(Entry, inc=st.integers(0, 3), sii=st.integers(1, 25))
entry_maps = st.dictionaries(st.integers(0, N - 1), entries, max_size=N)


def reference_merge(a: dict, b: dict) -> dict:
    merged = {}
    for pid in range(N):
        entry = lex_max(a.get(pid), b.get(pid))
        if entry is not None:
            merged[pid] = entry
    return merged


class TestMergeMatchesReference:
    @given(entry_maps, entry_maps)
    def test_merge_equals_reference(self, a, b):
        vec = DependencyVector(N, a)
        vec.merge(DependencyVector(N, b))
        assert vec.as_dict() == reference_merge(a, b)

    @given(entry_maps, entry_maps)
    def test_merge_into_cow_alias_equals_reference(self, a, b):
        # Exercise the materialize-on-write path: merge into a shared copy.
        original = DependencyVector(N, a)
        vec = original.copy()
        vec.merge(DependencyVector(N, b))
        assert vec.as_dict() == reference_merge(a, b)
        assert original.as_dict() == a

    @given(entry_maps, entry_maps)
    def test_merge_reports_a_change_iff_content_changes(self, a, b):
        vec = DependencyVector(N, a)
        taken = vec.merge(DependencyVector(N, b))
        assert (taken is not None) == (vec.as_dict() != a)

    @given(entry_maps)
    def test_merge_empty_is_noop(self, a):
        vec = DependencyVector(N, a)
        assert vec.merge(DependencyVector(N)) is None
        assert vec.as_dict() == a


class TestCopyOnWrite:
    @given(entry_maps)
    def test_copy_is_equal_and_independent(self, a):
        vec = DependencyVector(N, a)
        dup = vec.copy()
        assert dup == vec
        dup.set(0, Entry(9, 99))
        assert vec.as_dict() == a

    @given(entry_maps)
    def test_mutating_original_leaves_copy_intact(self, a):
        vec = DependencyVector(N, a)
        dup = vec.copy()
        vec.set(1, Entry(9, 99))
        vec.nullify(0)
        assert dup.as_dict() == a

    def test_nullify_under_sharing(self):
        # The send-buffer pattern: a piggybacked snapshot is nullified in
        # place while the live vector keeps its entry.
        vec = DependencyVector(4, {1: Entry(0, 5), 2: Entry(1, 3)})
        snapshot = vec.copy()
        snapshot.nullify(1)
        assert snapshot.get(1) is None
        assert vec.get(1) == Entry(0, 5)

    def test_chained_copies(self):
        a = DependencyVector(4, {0: Entry(0, 1)})
        b = a.copy()
        c = b.copy()
        b.set(1, Entry(0, 2))
        assert a.as_dict() == {0: Entry(0, 1)}
        assert c.as_dict() == {0: Entry(0, 1)}
        assert b.as_dict() == {0: Entry(0, 1), 1: Entry(0, 2)}

    def test_iter_items_matches_items(self):
        vec = DependencyVector(5, {3: Entry(0, 7), 1: Entry(2, 2)})
        assert sorted(vec.iter_items()) == list(vec.items())
