"""Property-based tests for the parallel runner's payload encodings.

Two encodings carry table state across process boundaries and must be
lossless:

- the shared-memory staging of dense :class:`TableSnapshot` columns
  (:mod:`repro.parallel.shm`) — a snapshot staged into a sender arena and
  materialized by a receiver must reproduce the original rows exactly,
  and every degraded path (too small, arena full, wrong payload type)
  must fall back to ``None`` rather than corrupt;
- the delta changelog (:meth:`EntrySetTable.delta_since`) — merging the
  delta recorded since a cursor into a receiver that held the cursor-time
  snapshot must reach exactly the sender's current state, including
  across changelog compaction (stale cursor -> full resync).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import columnar
from repro.core.entry import Entry
from repro.core.tables import EntrySetTable, TableSnapshot

_np = columnar.numpy_module()

ops = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 3), st.integers(0, 40)),
    max_size=60,
)


@given(ops=ops, cut=st.integers(0, 60),
       compaction_limit=st.sampled_from([3, 4096]))
@settings(deadline=None)
def test_delta_since_round_trip(ops, cut, compaction_limit):
    """full@cursor + delta_since(cursor) == full@now, for any op split."""
    n = 6
    sender = EntrySetTable(n)
    sender.enable_changelog()
    # A tiny compaction limit forces the stale-cursor path often.
    original_limit = EntrySetTable.CHANGELOG_LIMIT
    EntrySetTable.CHANGELOG_LIMIT = compaction_limit
    try:
        for pid, inc, sii in ops[:cut]:
            sender.insert(pid, Entry(inc, sii))
        receiver = EntrySetTable(n)
        receiver.merge_snapshot(sender.snapshot_columns())
        cursor = sender.changelog_position
        for pid, inc, sii in ops[cut:]:
            sender.insert(pid, Entry(inc, sii))
        delta = sender.delta_since(cursor)
        if delta is None:
            # Stale cursor (compaction crossed it): resync with a full
            # snapshot, exactly what the notification path does.
            receiver.merge_snapshot(sender.snapshot_columns())
        else:
            assert not delta.full
            receiver.merge_snapshot(delta)
        assert receiver.snapshot() == sender.snapshot()
    finally:
        EntrySetTable.CHANGELOG_LIMIT = original_limit


@pytest.mark.skipif(_np is None, reason="shm staging needs numpy")
class TestShmStaging:

    @given(
        snaps=st.lists(
            st.tuples(
                st.integers(1, 64),     # n
                st.integers(1, 8),      # stride
                st.integers(0, 2**31),  # value seed
            ),
            min_size=1, max_size=8,
        ),
        capacity=st.integers(64, 2048),
    )
    @settings(deadline=None, max_examples=50)
    def test_stage_materialize_round_trip(self, snaps, capacity):
        from repro.parallel.shm import (
            SHM_MIN_ENTRIES,
            ArenaMap,
            SnapshotArena,
            stage_snapshot,
        )

        arena = SnapshotArena(capacity_entries=capacity)
        try:
            peers = ArenaMap({0: arena.name}, own_id=0, own_arena=arena)
            staged = []
            for n, stride, seed in snaps:
                rng = _np.random.default_rng(seed)
                cols = rng.integers(-1, 50, size=n * stride, dtype=_np.int64)
                snap = TableSnapshot(n, stride, cols)
                ref = stage_snapshot(arena, 0, snap)
                if cols.size < SHM_MIN_ENTRIES:
                    assert ref is None
                if ref is None:
                    continue  # below threshold or arena full: pickle path
                staged.append((snap, ref))
            # Materialize only after all puts: staged blocks must not
            # alias or overwrite each other within an epoch.
            for snap, ref in staged:
                out = peers.materialize(ref)
                assert out.rows() == snap.rows()
                assert out.cols is not snap.cols
        finally:
            arena.close()

    def test_overflow_falls_back_to_none(self):
        from repro.parallel.shm import SnapshotArena, stage_snapshot

        arena = SnapshotArena(capacity_entries=512)
        try:
            big = TableSnapshot(
                64, 16, _np.zeros(64 * 16, dtype=_np.int64))
            assert stage_snapshot(arena, 0, big) is None  # 1024 > 512
            ok = TableSnapshot(32, 16, _np.zeros(32 * 16, dtype=_np.int64))
            first = stage_snapshot(arena, 0, ok)
            assert first is not None
            assert stage_snapshot(arena, 0, ok) is None  # arena now full
            arena.reset()
            assert stage_snapshot(arena, 0, ok) is not None
        finally:
            arena.close()

    def test_non_dense_payloads_are_not_staged(self):
        from repro.parallel.shm import SnapshotArena, stage_snapshot

        arena = SnapshotArena(capacity_entries=1024)
        try:
            listy = TableSnapshot(64, 8, [0] * 512)
            assert stage_snapshot(arena, 0, listy) is None
            assert stage_snapshot(arena, 0, {"not": "a snapshot"}) is None
            assert stage_snapshot(None, 0, listy) is None
        finally:
            arena.close()
