"""Differential properties: columnar hot state vs the reference model.

The columnar rewrite (PR 8) re-laid the dependency vector and both
bookkeeping tables as flat integer columns, keeping the pre-columnar
dict implementations as ``Reference*`` ground truth (they live in this
file; nothing in ``src/`` uses them).  These tests drive
both implementations through the same random operation sequences —
set/nullify/merge/copy for vectors; insert/gossip-merge/incarnation
bumps for tables — and assert the observable state stays equal at every
step, including:

- the packed-query fast paths (``covers_packed``/``invalidates_packed``)
  agree with the Entry-based queries on both implementations;
- the COW contract: copies are O(1) aliases that detach on first
  mutation, and mutations never leak across a copy;
- a table's ``version`` bumps exactly when its observable state changes,
  and ``version == 0`` iff an (append-only) table is empty — the
  invariants the stability index and the protocol's fast exits rely on;
- the incarnation-major layout: tables are as wide as the highest
  incarnation they hold, so gossip routinely meets snapshots of another
  stride — taken *before* a growth and merged *after* it, on either side
  (``TestStrideCrossings``).

Table sizes cover both storage backends: small n uses plain lists,
n >= 64 uses numpy when available (see repro.core.columnar.NP_MIN_N);
CI also runs this file under ``REPRO_NO_NUMPY=1`` (lists at every n).
"""

import os
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import columnar
from repro.core.columnar import pack
from repro.core.depvec import DependencyVector
from repro.core.entry import Entry
from repro.core.tables import (
    EntrySetTable,
    IncarnationEndTable,
    LoggingProgressTable,
    SparseSnapshot,
    TableSnapshot,
    _snapshot_entries,
)

np = columnar.numpy_module()


# -- reference (pre-columnar) vector and tables --------------------------------
#
# The dict-of-Entry vector and dict-of-dicts tables the columnar structures
# replaced: the ground truth of every test below.  Deliberately naive — one
# dict per vector or process, no layout, no stride, nothing to grow.


class ReferenceDependencyVector:
    """The pre-columnar dict-of-Entry vector: same observable API as
    :class:`DependencyVector` (including COW :meth:`copy`)."""

    __slots__ = ("n", "_entries", "_shared")

    def __init__(self, n: int, entries: Optional[Mapping[int, Entry]] = None):
        if n <= 0:
            raise ValueError(f"vector needs at least one process, got n={n}")
        self.n = n
        self._entries: Dict[int, Entry] = {}
        self._shared = False
        if entries:
            for pid, entry in entries.items():
                self.set(pid, entry)

    def _materialize(self) -> None:
        if self._shared:
            self._entries = dict(self._entries)
            self._shared = False

    def get(self, pid: int) -> Optional[Entry]:
        self._check_pid(pid)
        return self._entries.get(pid)

    def set(self, pid: int, entry: Optional[Entry]) -> None:
        self._check_pid(pid)
        if entry is None:
            if pid in self._entries:
                self._materialize()
                del self._entries[pid]
        elif self._entries.get(pid) != entry:
            self._materialize()
            self._entries[pid] = entry

    def nullify(self, pid: int) -> None:
        self._check_pid(pid)
        if pid in self._entries:
            self._materialize()
            del self._entries[pid]

    def nullify_entry(self, pid: int, entry: Entry) -> None:
        self.nullify(pid)

    def non_null_count(self) -> int:
        return len(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def processes(self) -> Iterator[int]:
        return iter(sorted(self._entries))

    def items(self) -> Iterator[Tuple[int, Entry]]:
        return iter(sorted(self._entries.items()))

    def iter_items(self) -> Iterable[Tuple[int, Entry]]:
        return self._entries.items()

    def merge(self, other) -> None:
        if other.n != self.n:
            raise ValueError(
                f"cannot merge vectors of different sizes ({self.n} vs {other.n})"
            )
        entries = self._entries
        changed = None
        for pid, entry in other.iter_items():
            cur = entries.get(pid)
            if cur is None or cur < entry:
                if changed is None:
                    changed = []
                changed.append((pid, entry))
        if changed is None:
            return
        self._materialize()
        entries = self._entries
        for pid, entry in changed:
            entries[pid] = entry

    def copy(self) -> "ReferenceDependencyVector":
        dup = ReferenceDependencyVector(self.n)
        dup._entries = self._entries
        dup._shared = True
        self._shared = True
        return dup

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ReferenceDependencyVector):
            return self.n == other.n and self._entries == other._entries
        if isinstance(other, DependencyVector):
            return self.n == other.n and self.as_dict() == other.as_dict()
        return NotImplemented

    def __hash__(self):  # pragma: no cover - vectors are mutable
        raise TypeError("ReferenceDependencyVector is mutable and unhashable")

    def __repr__(self) -> str:
        inner = ", ".join(f"{e}_{pid}" for pid, e in self.items())
        return "{" + inner + "}"

    def as_dict(self) -> Dict[int, Entry]:
        return dict(self._entries)

    def _check_pid(self, pid: int) -> None:
        if not 0 <= pid < self.n:
            raise IndexError(f"process id {pid} out of range [0, {self.n})")


class ReferenceEntrySetTable:
    """Dict-of-dicts ``array[1..N] of set of entry`` (pre-columnar model)."""

    def __init__(self, n: int):
        self.n = n
        self._rows: List[Dict[int, int]] = [{} for _ in range(n)]
        self.version = 0

    def insert(self, pid: int, entry: Entry) -> None:
        row = self._row(pid)
        existing = row.get(entry.inc)
        if existing is None or entry.sii > existing:
            row[entry.inc] = entry.sii
            self.version += 1

    def entries(self, pid: int) -> Iterator[Entry]:
        return iter(Entry(t, x) for t, x in sorted(self._row(pid).items()))

    def lookup(self, pid: int, inc: int):
        return self._row(pid).get(inc)

    def row_size(self, pid: int) -> int:
        return len(self._row(pid))

    def snapshot(self) -> List[Dict[int, int]]:
        return [dict(row) for row in self._rows]

    def merge_snapshot(self, rows: List[Dict[int, int]]) -> None:
        changed = False
        for pid, snap_row in enumerate(rows):
            row = self._rows[pid]
            for inc, sii in snap_row.items():
                existing = row.get(inc)
                if existing is None or sii > existing:
                    row[inc] = sii
                    changed = True
        if changed:
            self.version += 1

    def _row(self, pid: int) -> Dict[int, int]:
        if not 0 <= pid < self.n:
            raise IndexError(f"process id {pid} out of range [0, {self.n})")
        return self._rows[pid]


class ReferenceLoggingProgressTable(ReferenceEntrySetTable):
    def covers(self, pid: int, entry: Entry) -> bool:
        x_prime = self.lookup(pid, entry.inc)
        return x_prime is not None and entry.sii <= x_prime


class ReferenceIncarnationEndTable(ReferenceEntrySetTable):
    def invalidates(self, pid: int, entry: Entry) -> bool:
        return any(t >= entry.inc and x_prime < entry.sii
                   for t, x_prime in self._row(pid).items())

    def highest_ended_incarnation(self, pid: int) -> int:
        row = self._row(pid)
        return max(row) if row else -1


SIZES = [5, 64]  # list backend / numpy backend (when numpy is present)

# The op-sequence tests are the expensive ones; they run a reduced example
# count in tier-1 and the full hypothesis default x10 under the nightly
# profile (see tests/conftest.py).
_NIGHTLY = os.environ.get("HYPOTHESIS_PROFILE") == "nightly"
_SEQ = settings(max_examples=600 if _NIGHTLY else 60, deadline=None)
_TAB = settings(max_examples=400 if _NIGHTLY else 40, deadline=None)

entries = st.builds(Entry, inc=st.integers(0, 9), sii=st.integers(0, 50))


def pids(n):
    return st.integers(0, n - 1)


def entry_maps(n):
    return st.dictionaries(pids(n), entries, max_size=n)


def vector_ops(n):
    return st.lists(
        st.one_of(
            st.tuples(st.just("set"), pids(n), entries),
            st.tuples(st.just("nullify"), pids(n)),
            st.tuples(st.just("merge"), entry_maps(n)),
            st.tuples(st.just("copy")),
        ),
        max_size=30,
    )


def assert_vectors_equal(col, ref):
    assert col.as_dict() == ref.as_dict()
    assert len(col) == len(ref)
    assert col.non_null_count() == ref.non_null_count()
    assert list(col.items()) == list(ref.items())
    assert col == ref and ref == col


class TestVectorEquivalence:
    @pytest.mark.parametrize("n", SIZES)
    @given(data=st.data())
    @_SEQ
    def test_random_op_sequences_stay_equal(self, n, data):
        ops = data.draw(vector_ops(n))
        col = DependencyVector(n)
        ref = ReferenceDependencyVector(n)
        copies = []
        for op in ops:
            if op[0] == "set":
                col.set(op[1], op[2])
                ref.set(op[1], op[2])
            elif op[0] == "nullify":
                col.nullify(op[1])
                ref.nullify(op[1])
            elif op[0] == "merge":
                # Piggyback-then-deliver: merge a message's vector, built
                # once per implementation from the same mapping.
                col.merge(DependencyVector(n, op[1]))
                ref.merge(ReferenceDependencyVector(n, op[1]))
            else:
                copies.append((col.copy(), ref.copy(), col.as_dict()))
            assert_vectors_equal(col, ref)
        # COW discipline: snapshots kept their state across later
        # mutations of the original, on both implementations.
        for col_copy, ref_copy, frozen in copies:
            assert col_copy.as_dict() == frozen
            assert ref_copy.as_dict() == frozen

    @pytest.mark.parametrize("n", SIZES)
    @given(data=st.data())
    @_SEQ
    def test_copy_mutation_never_leaks_either_direction(self, n, data):
        col = DependencyVector(n, data.draw(entry_maps(n)))
        ref = ReferenceDependencyVector(n, col.as_dict())
        frozen = col.as_dict()
        col_copy, ref_copy = col.copy(), ref.copy()
        pid, entry = data.draw(pids(n)), data.draw(entries)
        if data.draw(st.booleans()):
            col.set(pid, entry)
            ref.set(pid, entry)
            assert col_copy.as_dict() == frozen == ref_copy.as_dict()
        else:
            col_copy.set(pid, entry)
            ref_copy.set(pid, entry)
            assert col.as_dict() == frozen == ref.as_dict()
        assert_vectors_equal(col, ref)
        assert_vectors_equal(col_copy, ref_copy)

    @pytest.mark.parametrize("n", SIZES)
    @given(data=st.data())
    @_SEQ
    def test_packed_accessors_agree_with_entry_form(self, n, data):
        col = DependencyVector(n, data.draw(entry_maps(n)))
        for pid in range(n):
            entry = col.get(pid)
            packed = col.get_packed(pid)
            if entry is None:
                assert packed == -1
            else:
                assert packed == pack(entry.inc, entry.sii)
        assert [(pid, pack(e.inc, e.sii)) for pid, e in col.items()] == list(
            col.iter_packed()
        )


def rows_strategy(n):
    return st.lists(
        st.dictionaries(st.integers(0, 9), st.integers(0, 50), max_size=4),
        min_size=n, max_size=n,
    )


def table_ops(n):
    return st.lists(
        st.one_of(
            st.tuples(st.just("insert"), pids(n), entries),
            st.tuples(st.just("merge_sparse"), rows_strategy(n)),
            st.tuples(st.just("merge_snap"), rows_strategy(n)),
        ),
        max_size=15,
    )


def apply_table_op(table, op, columnar_side):
    if op[0] == "insert":
        table.insert(op[1], op[2])
    elif not columnar_side:
        table.merge_snapshot(op[1])
    elif op[0] == "merge_sparse":
        # The delta path: the rows as explicit (pid, inc, sii) triples.
        table.merge_snapshot(SparseSnapshot(table.n, [
            (pid, inc, sii) for pid, row in enumerate(op[1])
            for inc, sii in row.items()]))
    else:
        # Columnar gossip path: rebuild the rows as a TableSnapshot so the
        # elementwise-max merge runs; the reference gets the same rows.
        donor = EntrySetTable(table.n)
        for pid, row in enumerate(op[1]):
            for inc, sii in row.items():
                donor.insert(pid, Entry(inc, sii))
        table.merge_snapshot(donor.snapshot_columns())


def pairs(table) -> List[Tuple[int, Entry]]:
    """Every (pid, entry) the table holds, in pid then incarnation order."""
    return [(pid, entry) for pid in range(table.n)
            for entry in table.entries(pid)]


def assert_tables_equal(col, ref):
    assert col.snapshot_columns().rows() == ref.snapshot()
    for pid in range(col.n):
        assert list(col.entries(pid)) == list(ref.entries(pid))
        assert col.row_size(pid) == ref.row_size(pid)
        for inc in range(12):
            assert col.lookup(pid, inc) == ref.lookup(pid, inc)


class TestTableEquivalence:
    @pytest.mark.parametrize("n", SIZES)
    @given(data=st.data())
    @_TAB
    def test_log_table_and_covers_queries(self, n, data):
        col = LoggingProgressTable(n)
        ref = ReferenceLoggingProgressTable(n)
        for op in data.draw(table_ops(n)):
            before = col.snapshot_columns()
            version = col.version
            apply_table_op(col, op, columnar_side=True)
            apply_table_op(ref, op, columnar_side=False)
            assert (col.version > version) == (col.snapshot_columns() != before)
            assert (col.version == 0) == (not any(col.snapshot_columns().rows()))
        assert_tables_equal(col, ref)
        for _ in range(10):
            pid, entry = data.draw(pids(n)), data.draw(entries)
            expected = ref.covers(pid, entry)
            assert col.covers(pid, entry) == expected
            assert col.covers_packed(pid, pack(entry.inc, entry.sii)) == expected

    @pytest.mark.parametrize("n", SIZES)
    @given(data=st.data())
    @_TAB
    def test_iet_table_and_orphan_queries(self, n, data):
        col = IncarnationEndTable(n)
        ref = ReferenceIncarnationEndTable(n)
        for op in data.draw(table_ops(n)):
            apply_table_op(col, op, columnar_side=True)
            apply_table_op(ref, op, columnar_side=False)
        assert_tables_equal(col, ref)
        for pid in range(n):
            assert (col.highest_ended_incarnation(pid)
                    == ref.highest_ended_incarnation(pid))
        assert pairs(col) == pairs(ref)
        for _ in range(10):
            pid, entry = data.draw(pids(n)), data.draw(entries)
            expected = ref.invalidates(pid, entry)
            assert col.invalidates(pid, entry) == expected
            assert (col.invalidates_packed(pid, pack(entry.inc, entry.sii))
                    == expected)

    @pytest.mark.parametrize("n", SIZES)
    @given(inserts=st.lists(st.tuples(st.integers(0, 4), entries), max_size=20))
    def test_incarnation_bump_grows_stride_transparently(self, n, inserts):
        # Every crash appends one incarnation block to the column; growth
        # must be invisible to every query.
        col = IncarnationEndTable(n)
        ref = ReferenceIncarnationEndTable(n)
        for bump, entry in inserts:
            entry = Entry(entry.inc + 4 * bump, entry.sii)
            col.insert(0, entry)
            ref.insert(0, entry)
        assert_tables_equal(col, ref)
        assert col.highest_ended_incarnation(0) == ref.highest_ended_incarnation(0)


# -- mixed-stride gossip ---------------------------------------------------------
#
# A pool of tables gossips among itself.  A snapshot is *taken* at one point
# of the script and *merged* at a later one, after either side may have
# learned higher incarnations — so narrower-into-wider, wider-into-narrower
# and mixed strides within one ``merge_snapshots`` batch all occur.

POOL = 3
KINDS = {
    "log": (LoggingProgressTable, ReferenceLoggingProgressTable),
    "iet": (IncarnationEndTable, ReferenceIncarnationEndTable),
}
# "list" / "ndarray" re-house a dense snapshot's column in the other
# container, so numpy tables meet list snapshots and list tables ndarray ones.
FORMS = ["native", "list"] + (["ndarray"] if np is not None else [])


def gossip_ops(n):
    table = st.integers(0, POOL - 1)
    return st.lists(
        st.one_of(
            st.tuples(st.just("insert"), table, pids(n), entries),
            st.tuples(st.just("snap"), table, st.sampled_from(FORMS)),
            st.tuples(st.just("merge"), table, st.integers(0, 99)),
            st.tuples(st.just("batch"), table,
                      st.lists(st.integers(0, 99), min_size=2, max_size=4)),
            st.tuples(st.just("cursor"), table),
        ),
        max_size=25,
    )


def rehouse(snap, form):
    if form == "native":
        return snap
    cols = snap.cols if isinstance(snap.cols, list) else snap.cols.tolist()
    if form == "ndarray":
        cols = np.array(cols, dtype=np.int64)
    return TableSnapshot(snap.n, snap.stride, cols)


def assert_snapshot_views(snap, rows):
    """Every read-side view of a gossiped snapshot against reference rows."""
    n = len(rows)
    assert snap.rows() == rows
    triples = [(pid, inc, sii) for pid in range(n)
               for inc, sii in sorted(rows[pid].items())]
    assert len(snap.cols) == n * snap.stride
    # Tight: the last incarnation block is there because it holds something.
    assert snap.stride == 1 + max((inc for _, inc, _ in triples), default=0)
    assert sorted(_snapshot_entries(snap)) == triples
    for pid in range(n):
        only = snap.restrict(pid)
        assert only.rows() == [rows[q] if q == pid else {} for q in range(n)]


def assert_queries_equal(kind, col, ref, probes):
    assert_tables_equal(col, ref)
    for pid, entry in probes:
        packed = pack(entry.inc, entry.sii)
        if kind == "log":
            expected = ref.covers(pid, entry)
            assert col.covers(pid, entry) is expected
            assert col.covers_packed(pid, packed) is expected
        else:
            expected = ref.invalidates(pid, entry)
            assert col.invalidates(pid, entry) is expected
            assert col.invalidates_packed(pid, packed) is expected
    if kind == "iet":
        for pid in range(col.n):
            assert (col.highest_ended_incarnation(pid)
                    == ref.highest_ended_incarnation(pid))
        assert pairs(col) == pairs(ref)


def run_gossip_script(kind, n, ops, probes=()):
    col_cls, ref_cls = KINDS[kind]
    cols = [col_cls(n) for _ in range(POOL)]
    refs = [ref_cls(n) for _ in range(POOL)]
    for col in cols:
        col.enable_changelog()
    bag = []      # (snapshot as gossiped, reference rows at that moment)
    cursors = []  # (table, changelog position, reference rows at that moment)
    for op in ops:
        col, ref = cols[op[1]], refs[op[1]]
        before, version = ref.snapshot(), col.version
        if op[0] == "insert":
            col.insert(op[2], op[3])
            ref.insert(op[2], op[3])
        elif op[0] == "snap":
            snap = rehouse(col.snapshot_columns(), op[2])
            assert_snapshot_views(snap, before)
            bag.append((snap, before))
        elif op[0] == "cursor":
            cursors.append((op[1], col.changelog_position, before))
        elif bag:
            picks = [bag[k % len(bag)] for k in
                     (op[2] if op[0] == "batch" else [op[2]])]
            if op[0] == "batch":
                col.merge_snapshots([snap for snap, _ in picks])
            else:
                col.merge_snapshot(picks[0][0])
            for _, rows in picks:
                ref.merge_snapshot(rows)
        assert col.snapshot_columns().rows() == ref.snapshot()
        assert (col.version > version) == (ref.snapshot() != before)
    for col, ref in zip(cols, refs):
        assert_queries_equal(kind, col, ref, probes)
        assert_snapshot_views(col.snapshot_columns(), ref.snapshot())
    for index, (epoch, offset), then in cursors:
        delta = cols[index].delta_since((epoch, offset))
        if delta is None:  # compacted since: the peer resyncs in full
            assert cols[index].changelog_epoch != epoch
            continue
        now = refs[index].snapshot()
        assert sorted(delta.entries) == [
            (pid, inc, sii) for pid in range(n)
            for inc, sii in sorted(now[pid].items())
            if then[pid].get(inc) != sii]
    return cols, refs


class TestStrideCrossings:
    @pytest.mark.parametrize("kind", sorted(KINDS))
    @pytest.mark.parametrize("n", SIZES)
    @given(data=st.data())
    @_TAB
    def test_gossip_across_growth_matches_reference(self, n, kind, data):
        ops = data.draw(gossip_ops(n))
        probes = data.draw(st.lists(st.tuples(pids(n), entries), max_size=10))
        run_gossip_script(kind, n, ops, probes)

    @pytest.mark.parametrize("form", FORMS)
    @pytest.mark.parametrize("kind", sorted(KINDS))
    @pytest.mark.parametrize("n", SIZES)
    def test_each_crossing_by_construction(self, n, kind, form):
        """The three crossings, spelled out rather than left to the draw:
        table 0 stays narrow, table 1 grows *after* its first snapshot."""
        last = n - 1
        ops = [
            ("insert", 0, 0, Entry(0, 5)),
            ("insert", 1, last, Entry(0, 9)),
            ("snap", 0, form),                  # bag[0]: stride 1
            ("snap", 1, form),                  # bag[1]: stride 1
            ("insert", 1, 0, Entry(3, 2)),      # table 1 grows to stride 4
            ("insert", 1, last, Entry(2, 7)),
            ("cursor", 1),
            ("merge", 1, 0),                    # narrower into wider
            ("snap", 1, form),                  # bag[2]: stride 4
            ("cursor", 0),
            ("merge", 0, 2),                    # wider into narrower
            ("insert", 2, 1 % n, Entry(1, 1)),
            ("snap", 2, form),                  # bag[3]: stride 2
            ("insert", 2, 0, Entry(6, 0)),      # past every snapshot taken
            ("batch", 2, [0, 2, 3, 1]),         # strides 1, 4, 2, 1 in one batch
            ("batch", 0, [3, 1]),
            ("merge", 1, 3),
            ("merge", 1, 1),                    # stale: no news, no bump
        ]
        probes = [(pid, Entry(inc, sii)) for pid in (0, 1 % n, last)
                  for inc in (0, 2, 3, 4, 7) for sii in (0, 2, 3, 8)]
        cols, refs = run_gossip_script(kind, n, ops, probes)
        assert refs[0].snapshot() == refs[1].snapshot()
        assert refs[2].lookup(0, 6) == 0 and refs[0].lookup(0, 6) is None
        assert [c.snapshot_columns().stride for c in cols] == [4, 4, 7]

    @pytest.mark.skipif(np is None, reason="staging needs ndarray columns")
    @given(data=st.data())
    @_TAB
    def test_staged_snapshots_merge_like_the_originals(self, data):
        """A gossiped snapshot survives the shm detour — staged in the
        sender's arena, rebuilt by the receiver — at whatever stride it had,
        and merges into a table of another stride like the original."""
        from repro.parallel.shm import ArenaMap, SnapshotArena, stage_snapshot

        n = 64
        inserts = st.lists(st.tuples(pids(n), entries), min_size=1, max_size=12)
        sender, receiver, twin = (EntrySetTable(n) for _ in range(3))
        for pid, entry in data.draw(inserts):
            sender.insert(pid, entry)
        for pid, entry in data.draw(inserts):
            receiver.insert(pid, entry)
            twin.insert(pid, entry)
        snap = sender.snapshot_columns()
        arena = SnapshotArena(capacity_entries=n * 10)
        try:
            ref = stage_snapshot(arena, 0, snap)
            if ref is None:  # fewer than SHM_MIN_ENTRIES slots: travels pickled
                assert snap.stride < 4
                return
            sender.insert(0, Entry(9, 50))  # the staged block is a copy
            out = ArenaMap({0: arena.name}, 0, arena).materialize(ref)
        finally:
            arena.close()
        assert (out.n, out.stride) == (snap.n, snap.stride)
        assert out.rows() == snap.rows()
        receiver.merge_snapshot(out)
        twin.merge_snapshot(snap)
        assert receiver.snapshot_columns() == twin.snapshot_columns()
        assert receiver.version == twin.version
