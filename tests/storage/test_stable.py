"""Unit tests for the stable-storage model."""

import pytest

from repro.core.depvec import DependencyVector
from repro.core.entry import Entry
from repro.net.message import AppMessage, FailureAnnouncement
from repro.storage.stable import LoggedMessage, ModelBackend
from repro.types import MessageId


def record(position, inc=0, src=1):
    msg = AppMessage(
        msg_id=MessageId(src, inc, position, 0),
        src=src, dst=0, payload={"p": position},
        tdv=DependencyVector(4),
        send_interval=Entry(inc, position),
    )
    return LoggedMessage(position, inc, msg)


class TestCheckpoints:
    def test_write_and_read_latest(self):
        storage = ModelBackend(0)
        storage.write_checkpoint(Entry(0, 3), {"a": 1}, DependencyVector(4), set())
        assert storage.latest_checkpoint().entry == Entry(0, 3)
        assert storage.checkpoints_taken == 1
        assert storage.sync_writes == 1

    def test_checkpoint_state_is_deep_copied(self):
        storage = ModelBackend(0)
        state = {"nested": [1, 2]}
        storage.write_checkpoint(Entry(0, 3), state, DependencyVector(4), set())
        state["nested"].append(3)
        assert storage.latest_checkpoint().app_state == {"nested": [1, 2]}

    def test_checkpoint_vector_snapshot(self):
        storage = ModelBackend(0)
        tdv = DependencyVector(4, {1: Entry(0, 5)})
        storage.write_checkpoint(Entry(0, 3), {}, tdv, set())
        tdv.set(2, Entry(0, 9))
        assert storage.latest_checkpoint().tdv.get(2) is None

    def test_no_checkpoint_is_an_error(self):
        with pytest.raises(RuntimeError):
            ModelBackend(0).latest_checkpoint()

    def test_discard_checkpoints_after(self):
        storage = ModelBackend(0)
        for sii in (1, 3, 5):
            storage.write_checkpoint(Entry(0, sii), {}, DependencyVector(4), set())
        storage.discard_checkpoints_after(0)
        assert len(storage.checkpoints) == 1
        assert storage.latest_checkpoint().entry == Entry(0, 1)


class TestMessageLog:
    def test_append_sync_vs_async_accounting(self):
        storage = ModelBackend(0)
        storage.append_log([record(2), record(3)], sync=False)
        storage.append_log([record(4)], sync=True)
        assert storage.async_writes == 1
        assert storage.sync_writes == 1
        assert storage.messages_logged == 3

    def test_empty_append_is_free(self):
        storage = ModelBackend(0)
        storage.append_log([], sync=True)
        assert storage.sync_writes == 0

    def test_logged_after_orders_by_position(self):
        storage = ModelBackend(0)
        storage.append_log([record(4), record(2), record(7)], sync=False)
        positions = [r.position for r in storage.logged_after(2)]
        assert positions == [4, 7]

    def test_pop_logged_after_removes(self):
        storage = ModelBackend(0)
        storage.append_log([record(2), record(3), record(4)], sync=False)
        popped = storage.pop_logged_after(2)
        assert [r.position for r in popped] == [3, 4]
        assert storage.log_size == 1

    def test_highest_logged_position(self):
        storage = ModelBackend(0)
        assert storage.highest_logged_position() == 0
        storage.append_log([record(5)], sync=False)
        assert storage.highest_logged_position() == 5


class TestAnnouncements:
    def test_announcements_are_synchronous(self):
        storage = ModelBackend(0)
        ann = FailureAnnouncement(1, Entry(0, 4))
        storage.log_announcement(ann)
        assert storage.sync_writes == 1
        assert storage.announcements == (ann,)


class TestIncarnationMarkers:
    def test_marker_from_explicit_log(self):
        storage = ModelBackend(0)
        storage.log_incarnation_start(3)
        assert storage.highest_incarnation_marker() == 3
        assert storage.sync_writes == 1

    def test_lower_marker_is_free_noop(self):
        storage = ModelBackend(0)
        storage.log_incarnation_start(3)
        storage.log_incarnation_start(2)
        assert storage.sync_writes == 1

    def test_marker_from_checkpoints_and_log(self):
        storage = ModelBackend(0)
        storage.write_checkpoint(Entry(2, 9), {}, DependencyVector(4), set())
        storage.append_log([record(10, inc=3)], sync=False)
        assert storage.highest_incarnation_marker() == 3

    def test_marker_from_own_announcement(self):
        # Announcing the end of incarnation t implies t+1 started.
        storage = ModelBackend(0)
        storage.log_announcement(FailureAnnouncement(0, Entry(1, 4)))
        assert storage.highest_incarnation_marker() == 2

    def test_foreign_announcements_ignored(self):
        storage = ModelBackend(0)
        storage.log_announcement(FailureAnnouncement(1, Entry(5, 4)))
        assert storage.highest_incarnation_marker() == 0


class TestCommittedOutputs:
    def test_record_and_query(self):
        storage = ModelBackend(0)
        assert not storage.output_committed("o1")
        storage.record_committed_output("o1")
        assert storage.output_committed("o1")
        assert storage.committed_output_count == 1
        assert storage.sync_writes == 1


class TestDefensiveCopies:
    """Regression: recovery used to resume execution *inside* the stored
    checkpoint object, corrupting the recovery point for the next crash."""

    def test_latest_checkpoint_returns_an_isolated_copy(self):
        storage = ModelBackend(0)
        storage.write_checkpoint(Entry(0, 3), {"n": [1]}, DependencyVector(4),
                                 {record(1).message.msg_id})
        restored = storage.latest_checkpoint()
        restored.app_state["n"].append(2)
        restored.tdv.set(2, Entry(0, 9))
        pristine = storage.latest_checkpoint()
        assert pristine.app_state == {"n": [1]}
        assert pristine.tdv.get(2) is None
        # received_ids is handed out as a frozenset: immutable by type.
        assert isinstance(pristine.received_ids, frozenset)

    def test_restore_checkpoint_returns_an_isolated_copy(self):
        storage = ModelBackend(0)
        storage.write_checkpoint(Entry(0, 3), {"x": 1}, DependencyVector(4),
                                 set())
        storage.write_checkpoint(Entry(0, 7), {"x": 2}, DependencyVector(4),
                                 set())
        restored = storage.restore_checkpoint(0)
        assert restored.entry == Entry(0, 3)
        restored.app_state["x"] = 99
        assert storage.restore_checkpoint(0).app_state == {"x": 1}

    def test_restore_checkpoint_bounds_checked(self):
        storage = ModelBackend(0)
        storage.write_checkpoint(Entry(0, 3), {}, DependencyVector(4), set())
        with pytest.raises(IndexError):
            storage.restore_checkpoint(1)
        with pytest.raises(IndexError):
            storage.restore_checkpoint(-1)


class TestMarkerCache:
    """The incarnation marker is cached and invalidated on writes; the
    cached answer must always equal a from-scratch scan."""

    def _assert_cache_consistent(self, storage):
        cached = storage.highest_incarnation_marker()
        storage._marker_cache = None  # force a rescan
        assert storage.highest_incarnation_marker() == cached

    def test_cache_follows_every_mutation(self):
        storage = ModelBackend(0)
        self._assert_cache_consistent(storage)
        storage.write_checkpoint(Entry(2, 9), {}, DependencyVector(4), set())
        self._assert_cache_consistent(storage)
        storage.append_log([record(10, inc=3)], sync=False)
        self._assert_cache_consistent(storage)
        storage.log_announcement(FailureAnnouncement(0, Entry(4, 2)))
        self._assert_cache_consistent(storage)
        storage.log_incarnation_start(6)
        self._assert_cache_consistent(storage)

    def test_cache_invalidated_by_truncation(self):
        storage = ModelBackend(0)
        storage.write_checkpoint(Entry(0, 1), {}, DependencyVector(4), set())
        storage.append_log([record(5, inc=7)], sync=False)
        assert storage.highest_incarnation_marker() == 7
        storage.pop_logged_after(0)  # drops the inc-7 record
        assert storage.highest_incarnation_marker() == 0
        self._assert_cache_consistent(storage)

    def test_cache_invalidated_by_checkpoint_discard(self):
        storage = ModelBackend(0)
        storage.write_checkpoint(Entry(0, 1), {}, DependencyVector(4), set())
        storage.write_checkpoint(Entry(5, 9), {}, DependencyVector(4), set())
        assert storage.highest_incarnation_marker() == 5
        storage.discard_checkpoints_after(0)
        assert storage.highest_incarnation_marker() == 0
        self._assert_cache_consistent(storage)

    def test_repeated_queries_do_not_rescan(self):
        storage = ModelBackend(0)
        storage.log_incarnation_start(3)
        assert storage.highest_incarnation_marker() == 3
        calls = []
        original = storage._scan_incarnation_marker
        storage._scan_incarnation_marker = lambda: calls.append(1) or original()
        assert storage.highest_incarnation_marker() == 3
        assert storage.highest_incarnation_marker() == 3
        assert calls == []
