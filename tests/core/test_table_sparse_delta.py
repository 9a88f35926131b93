"""Sparse snapshots, delta changelog, and batched-merge regressions.

Three families:

- the int64 sum-overflow regression in ``_merge_columns`` change detection
  (offsetting changes across a batched merge wrapped the column sum and
  the version bump was silently skipped);
- the read-side views of a :class:`SparseSnapshot`, the delta carrier;
- changelog/delta encoding: ``delta_since`` carries exactly the changed
  entries, stale cursors demand a full snapshot, compaction bumps the
  epoch.
"""

import pytest

from repro.core import columnar
from repro.core.entry import Entry
from repro.core.tables import (
    EntrySetTable,
    LoggingProgressTable,
    SparseSnapshot,
)

np = columnar.numpy_module()


BIG = (1 << 62) - 1


def _donor(slots):
    """A dense snapshot holding ``BIG`` at each ``(pid, inc)`` of ``slots``,
    built the way gossip builds one: insert, then snapshot."""
    donor = EntrySetTable(64)
    for pid, inc in slots:
        donor.insert(pid, Entry(inc, BIG))
    return donor.snapshot_columns()


@pytest.mark.skipif(np is None, reason="regression is in the numpy merge path")
def test_merge_change_detection_survives_int64_sum_wrap():
    """Four slots each growing by 2^62 add 2^64 to the column sum — which
    wraps to *zero* in int64.  The old sum-based change detection concluded
    nothing changed and skipped the version bump, so scan-skip caches kept
    serving stale results."""
    table = EntrySetTable(64)
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
    table = EntrySetTable(64)
    table.merge_snapshots([_donor([(0, 0), (1, 0)]),
                           _donor([(2, 0), (3, 0)])])
    assert table.version >= 1
    assert table.lookup(3, 0) == BIG


def test_sparse_snapshot_restrict_and_rows():
    snap = SparseSnapshot(6, [(2, 0, 4), (3, 1, 5)])
    own = snap.restrict(2)
    assert own.rows() == [{}, {}, {0: 4}, {}, {}, {}]
    assert own[2] == {0: 4} and own[3] == {}
    assert len(snap) == 6


def test_delta_since_carries_exactly_the_changes():
    table = LoggingProgressTable(8)
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
    peer = LoggingProgressTable(8)
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
