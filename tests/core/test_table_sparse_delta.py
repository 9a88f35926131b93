"""Sparse table backend, delta changelog, and batched-merge regressions.

Three families:

- the int64 sum-overflow regression in ``_merge_columns`` change detection
  (offsetting changes across a batched merge wrapped the column sum and
  the version bump was silently skipped);
- the sparse dict-of-rows backend must be observationally equivalent to
  the dense columnar backend;
- changelog/delta encoding: ``delta_since`` carries exactly the changed
  entries, stale cursors demand a full snapshot, compaction bumps the
  epoch.
"""

import pytest

from repro.core import columnar
from repro.core.entry import Entry
from repro.core.tables import (
    EntrySetTable,
    IncarnationEndTable,
    LoggingProgressTable,
    SparseSnapshot,
    TableSnapshot,
)

np = columnar.NUMPY


BIG = (1 << 62) - 1


def _donor(slots):
    """A dense snapshot holding ``BIG`` at each ``(pid, inc)`` of ``slots``,
    built the way gossip builds one: insert, then snapshot."""
    donor = EntrySetTable(64, sparse=False)
    for pid, inc in slots:
        donor.insert(pid, Entry(inc, BIG))
    snap = donor.snapshot_columns()
    assert isinstance(snap, TableSnapshot)
    return snap


@pytest.mark.skipif(np is None, reason="regression is in the numpy merge path")
def test_merge_change_detection_survives_int64_sum_wrap():
    """Four slots each growing by 2^62 add 2^64 to the column sum — which
    wraps to *zero* in int64.  The old sum-based change detection concluded
    nothing changed and skipped the version bump, so scan-skip caches kept
    serving stale results."""
    table = EntrySetTable(64, sparse=False)
    assert table._use_np
    # Four incarnations wide before the merge, so the merge itself adds no
    # padding and the column sum is comparable across it.
    table.insert(10, Entry(3, 0))
    snap = _donor((inc, inc) for inc in range(4))
    assert snap.stride == 4 and len(table._cols) == len(snap.cols) == 64 * 4
    before = int(table._cols.sum())
    version = table.version
    table.merge_snapshot(snap)
    after = int(table._cols.sum())
    # Precondition: the sum really is unchanged mod 2**64 — the exact
    # blind spot of the old detector.
    assert before == after
    assert table.version == version + 1
    for inc in range(4):
        assert table.lookup(inc, inc) == BIG
    assert table.lookup(10, 3) == 0


@pytest.mark.skipif(np is None, reason="batch path is numpy-only")
def test_batched_merge_change_detection_survives_sum_wrap():
    table = EntrySetTable(64, sparse=False)
    table.merge_snapshots([_donor([(0, 0), (1, 0)]),
                           _donor([(2, 0), (3, 0)])])
    assert table.version >= 1
    assert table.lookup(3, 0) == BIG


def _fill(table, ops):
    for pid, inc, sii in ops:
        table.insert(pid, Entry(inc, sii))


OPS = [(0, 0, 3), (1, 1, 7), (1, 0, 2), (5, 2, 4), (7, 0, 1), (1, 1, 5),
       (6, 3, 11), (0, 0, 9)]


def test_sparse_backend_matches_dense_logging_table():
    dense = LoggingProgressTable(8, sparse=False)
    sparse = LoggingProgressTable(8, sparse=True)
    _fill(dense, OPS)
    _fill(sparse, OPS)
    assert sparse.snapshot() == dense.snapshot()
    for pid in range(8):
        assert list(sparse.entries(pid)) == list(dense.entries(pid))
        assert sparse.row_size(pid) == dense.row_size(pid)
        for inc in range(5):
            assert sparse.lookup(pid, inc) == dense.lookup(pid, inc)
            for sii in (0, 1, 4, 9, 12):
                e = Entry(inc, sii)
                assert sparse.covers(pid, e) == dense.covers(pid, e)
                packed = columnar.pack(inc, sii)
                assert (sparse.covers_packed(pid, packed)
                        == dense.covers_packed(pid, packed))


def test_sparse_backend_matches_dense_iet():
    dense = IncarnationEndTable(8, sparse=False)
    sparse = IncarnationEndTable(8, sparse=True)
    _fill(dense, OPS)
    _fill(sparse, OPS)
    for pid in range(8):
        assert (sparse.highest_ended_incarnation(pid)
                == dense.highest_ended_incarnation(pid))
        for inc in range(5):
            for sii in (0, 1, 4, 9, 12):
                e = Entry(inc, sii)
                assert sparse.invalidates(pid, e) == dense.invalidates(pid, e)
                packed = columnar.pack(inc, sii)
                assert (sparse.invalidates_packed(pid, packed)
                        == dense.invalidates_packed(pid, packed))
    assert list(sparse.all_pairs()) == list(dense.all_pairs())


def test_sparse_snapshot_cross_merges_both_directions():
    sparse = LoggingProgressTable(8, sparse=True)
    dense = LoggingProgressTable(8, sparse=False)
    _fill(sparse, OPS[:4])
    _fill(dense, OPS[4:])
    snap_sparse = sparse.snapshot_columns()
    snap_dense = dense.snapshot_columns()
    assert isinstance(snap_sparse, SparseSnapshot)
    assert isinstance(snap_dense, TableSnapshot)
    sparse.merge_snapshot(snap_dense)
    dense.merge_snapshot(snap_sparse)
    assert sparse.snapshot() == dense.snapshot()


def test_sparse_snapshot_restrict_and_rows():
    table = LoggingProgressTable(6, sparse=True)
    _fill(table, [(2, 0, 4), (3, 1, 5)])
    snap = table.snapshot_columns()
    own = snap.restrict(2)
    assert own.rows() == [{}, {}, {0: 4}, {}, {}, {}]
    assert own[2] == {0: 4} and own[3] == {}
    assert len(snap) == 6


def test_large_n_defaults_to_sparse():
    assert EntrySetTable(columnar.SPARSE_MIN_N)._rows is not None
    assert EntrySetTable(columnar.SPARSE_MIN_N - 1)._rows is None


@pytest.mark.parametrize("sparse", [False, True])
def test_delta_since_carries_exactly_the_changes(sparse):
    table = LoggingProgressTable(8, sparse=sparse)
    table.enable_changelog()
    table.insert(0, Entry(0, 1))
    pos = table.changelog_position
    table.insert(1, Entry(0, 5))
    table.insert(0, Entry(0, 3))  # same position changed twice -> latest value
    table.insert(0, Entry(0, 2))  # no-op: below the recorded maximum
    delta = table.delta_since(pos)
    assert delta is not None and not delta.full
    assert sorted(delta.entries) == [(0, 0, 3), (1, 0, 5)]
    # Applying the delta on top of the peer's as-of state == full merge.
    peer = LoggingProgressTable(8, sparse=sparse)
    peer.insert(0, Entry(0, 1))
    peer.merge_snapshot(delta)
    assert peer.snapshot() == table.snapshot()
    # Nothing new since: the delta is empty, and merging it is a no-op.
    empty = table.delta_since(table.changelog_position)
    assert empty is not None and empty.entries == ()


def test_delta_since_stale_epoch_returns_none():
    table = LoggingProgressTable(8)
    table.enable_changelog()
    pos = table.changelog_position
    for i in range(table.CHANGELOG_LIMIT + 1):
        table.insert(i % 8, Entry(0, i + 1))
    assert table.changelog_epoch > 0
    assert table.delta_since(pos) is None  # stale cursor -> full snapshot
    assert table.delta_since((0, 10**9)) is None
    untracked = LoggingProgressTable(8)
    assert untracked.delta_since((0, 0)) is None


def test_merge_records_changelog_entries():
    table = LoggingProgressTable(128)  # numpy dense path
    table.enable_changelog()
    pos = table.changelog_position
    other = LoggingProgressTable(128)
    other.insert(3, Entry(1, 9))
    other.insert(100, Entry(0, 2))
    table.merge_snapshot(other.snapshot_columns())
    delta = table.delta_since(pos)
    assert sorted(delta.entries) == [(3, 1, 9), (100, 0, 2)]


@pytest.mark.parametrize("n", [8, 128])
def test_merge_snapshots_equals_sequential(n):
    sources = []
    for s in range(4):
        src = LoggingProgressTable(n)
        for i in range(6):
            src.insert((s * 5 + i * 3) % n, Entry(i % 3, s + i))
        sources.append(src.snapshot_columns())
    batched = LoggingProgressTable(n)
    batched.merge_snapshots(sources)
    sequential = LoggingProgressTable(n)
    for snap in sources:
        sequential.merge_snapshot(snap)
    assert batched.snapshot() == sequential.snapshot()
    assert (batched.version > 0) == (sequential.version > 0)
