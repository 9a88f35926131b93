"""Protocol conformance: Checkpoint, asynchronous flush, Receive_log
(Figure 3, Corollaries 1-3, Theorem 2)."""

from repro.core.entry import Entry
from helpers import (
    deliver_env,
    log_notification,
    make_announcement,
    make_msg,
    make_proc,
)


def notification(n, pid, entries):
    rows = [{} for _ in range(n)]
    rows[pid] = dict(entries)
    return log_notification(pid, rows)


class TestCheckpoint:
    def test_checkpoint_flushes_volatile_buffer(self):
        # "stable state intervals are always continuous."  (GC off so the
        # logged prefix stays observable.)
        proc = make_proc(gc_on_checkpoint=False)
        deliver_env(proc)
        deliver_env(proc)
        assert len(proc.volatile) == 2
        proc.checkpoint()
        assert len(proc.volatile) == 0
        assert proc.storage.log_size == 2

    def test_checkpoint_is_synchronous(self):
        proc = make_proc()
        deliver_env(proc)
        before = proc.storage.sync_writes
        proc.checkpoint()
        assert proc.storage.sync_writes == before + 2  # log batch + checkpoint

    def test_corollary_2_own_entry_nullified(self):
        proc = make_proc()
        deliver_env(proc)
        assert proc.tdv.get(proc.pid) == Entry(0, 2)
        proc.checkpoint()
        assert proc.tdv.get(proc.pid) is None

    def test_checkpoint_records_own_progress(self):
        proc = make_proc()
        deliver_env(proc)
        proc.checkpoint()
        assert proc.log.covers(proc.pid, Entry(0, 2))

    def test_other_entries_survive_checkpoint(self):
        proc = make_proc(pid=0, n=4)
        proc.on_receive(make_msg(1, 0, entries={1: Entry(0, 5)}))
        proc.checkpoint()
        assert proc.tdv.get(1) == Entry(0, 5)

    def test_next_delivery_restores_own_entry(self):
        proc = make_proc()
        deliver_env(proc)
        proc.checkpoint()
        deliver_env(proc)
        assert proc.tdv.get(proc.pid) == Entry(0, 3)


class TestFlush:
    def test_flush_is_asynchronous(self):
        proc = make_proc()
        deliver_env(proc)
        deliver_env(proc)
        sync_before = proc.storage.sync_writes
        proc.flush()
        assert proc.storage.sync_writes == sync_before
        assert proc.storage.async_writes == 1
        assert proc.storage.log_size == 2

    def test_flush_batches_messages_in_one_operation(self):
        # "writes several messages to stable storage in a single operation"
        proc = make_proc()
        for _ in range(5):
            deliver_env(proc)
        proc.flush()
        assert proc.storage.async_writes == 1
        assert proc.storage.messages_logged == 5

    def test_empty_flush_writes_nothing(self):
        proc = make_proc()
        proc.flush()
        assert proc.storage.async_writes == 0

    def test_flush_records_progress_by_default(self):
        proc = make_proc()
        deliver_env(proc)
        proc.flush()
        assert proc.log.covers(proc.pid, Entry(0, 2))
        assert proc.tdv.get(proc.pid) is None

    def test_strict_flush_does_not_advance_log_table(self):
        proc = make_proc(nullify_own_on_flush=False)
        deliver_env(proc)
        proc.flush()
        assert not proc.log.covers(proc.pid, Entry(0, 2))
        assert proc.tdv.get(proc.pid) == Entry(0, 2)


class TestReceiveLog:
    def test_merges_stability_info(self):
        proc = make_proc(pid=0, n=4)
        proc.on_log_notification(notification(4, 2, {0: 7, 1: 9}))
        assert proc.log.covers(2, Entry(0, 7))
        assert proc.log.covers(2, Entry(1, 9))
        assert not proc.log.covers(2, Entry(1, 10))

    def test_theorem_2_nullifies_stable_dependencies(self):
        # The paper's running example: P4 drops (2,6)_3 after P3's
        # notification.
        proc = make_proc(pid=4, n=6)
        proc.on_receive(make_msg(3, 4, n=6, entries={3: Entry(2, 6)}))
        assert proc.tdv.get(3) == Entry(2, 6)
        proc.on_log_notification(notification(6, 3, {2: 6}))
        assert proc.tdv.get(3) is None

    def test_partial_stability_keeps_entry(self):
        proc = make_proc(pid=4, n=6)
        proc.on_receive(make_msg(3, 4, n=6, entries={3: Entry(2, 6)}))
        proc.on_log_notification(notification(6, 3, {2: 5}))
        assert proc.tdv.get(3) == Entry(2, 6)

    def test_orphan_detection_survives_nullification(self):
        # Theorem 2's subtlety: after dropping (2,6)_3, P4's orphan status
        # w.r.t. a P0 failure is still detectable via the (1,3)_0 entry.
        proc = make_proc(pid=4, n=6)
        proc.on_receive(make_msg(3, 4, n=6,
                                 entries={0: Entry(1, 3), 3: Entry(2, 6)}))
        proc.on_log_notification(notification(6, 3, {2: 6}))
        assert proc.tdv.get(3) is None
        assert proc.tdv.get(0) == Entry(1, 3)
        from repro.core.effects import RollbackPerformed
        effects = proc.on_failure_announcement(make_announcement(0, 1, 2))
        assert [e for e in effects if isinstance(e, RollbackPerformed)]

    def test_gossip_spreads_transitively(self):
        # P1 learns about P2's stability from P3's notification.
        proc = make_proc(pid=1, n=4)
        proc.on_log_notification(
            log_notification(3, [{}, {}, {0: 9}, {0: 4}]))
        assert proc.log.covers(2, Entry(0, 9))
        assert proc.log.covers(3, Entry(0, 4))

    def test_own_row_notification(self):
        proc = make_proc(pid=0, n=4, gossip_log_tables=False)
        deliver_env(proc)
        proc.flush()
        notif = proc.make_log_notification()
        assert notif.table.rows()[0]  # own row present
        assert all(not row for pid, row in enumerate(notif.table.rows()) if pid != 0)

    def test_full_notification_contains_all_rows(self):
        proc = make_proc(pid=0, n=4)
        proc.on_log_notification(notification(4, 2, {0: 7}))
        notif = proc.make_log_notification()
        assert notif.table.rows()[2] == {0: 7}
