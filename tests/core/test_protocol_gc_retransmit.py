"""Tests for garbage collection (Theorem-3-based reclamation) and
sender-side retransmission (footnote 3)."""

from repro.app.behavior import AppBehavior
from repro.core.effects import (
    DuplicateDropped,
    MessageDelivered,
    ReleaseMessage,
    RestartPerformed,
)
from repro.core.entry import Entry
from helpers import (
    deliver_env,
    effects_of,
    log_notification,
    make_announcement,
    make_msg,
    make_proc,
)


class Forwarder(AppBehavior):
    def initial_state(self, pid, n):
        return {"count": 0}

    def on_message(self, state, payload, ctx):
        state["count"] += 1
        if isinstance(payload, dict) and "to" in payload:
            ctx.send(payload["to"], {"n": state["count"]})
        return state


class TestGarbageCollection:
    def test_fully_stable_checkpoint_reclaims_history(self):
        proc = make_proc(behavior=Forwarder())
        for _ in range(3):
            deliver_env(proc)
        proc.checkpoint()
        # The new checkpoint's vector is empty (only own entry, stable):
        # the initial checkpoint and the logged prefix are reclaimed.
        assert len(proc.storage.checkpoints) == 1
        assert proc.storage.log_size == 0
        assert proc.storage.gc_reclaimed >= 4  # initial ckpt + 3 records

    def test_unstable_dependency_blocks_gc(self):
        proc = make_proc(pid=0, n=4, behavior=Forwarder())
        deliver_env(proc)
        proc.checkpoint()  # reclaims down to this checkpoint
        assert len(proc.storage.checkpoints) == 1
        proc.on_receive(make_msg(2, 0, entries={2: Entry(0, 7)}))
        proc.checkpoint()  # depends on non-stable (0,7)_2: cannot be the bar
        # The older (fully stable) checkpoint remains the reclamation bar.
        assert len(proc.storage.checkpoints) == 2

    def test_gc_unblocked_by_log_notification(self):
        proc = make_proc(pid=0, n=4, behavior=Forwarder())
        proc.on_receive(make_msg(2, 0, entries={2: Entry(0, 7)}))
        proc.checkpoint()
        assert len(proc.storage.checkpoints) == 2
        proc.on_log_notification(log_notification(2, [{}, {}, {0: 7}, {}]))
        proc.checkpoint()
        assert len(proc.storage.checkpoints) == 1

    def test_recovery_still_works_after_gc(self):
        proc = make_proc(behavior=Forwarder())
        for _ in range(3):
            deliver_env(proc)
        proc.checkpoint()
        deliver_env(proc)   # volatile
        state = dict(proc.app_state)
        proc.flush()
        proc.crash()
        effects = proc.restart()
        assert proc.app_state == state
        replays = [e for e in effects_of(effects, MessageDelivered) if e.replay]
        assert len(replays) == 1  # replay starts at the GC-surviving ckpt

    def test_rollback_still_works_after_gc(self):
        proc = make_proc(pid=0, n=4, behavior=Forwarder())
        deliver_env(proc)
        proc.checkpoint()   # GC: single fully-stable checkpoint remains
        proc.on_receive(make_msg(2, 0, entries={2: Entry(0, 7)}))
        from repro.core.effects import RollbackPerformed
        effects = proc.on_failure_announcement(make_announcement(2, 0, 3))
        rb = effects_of(effects, RollbackPerformed)
        assert rb and rb[0].restored_to == Entry(0, 2)

    def test_gc_disabled(self):
        proc = make_proc(behavior=Forwarder(), gc_on_checkpoint=False)
        deliver_env(proc)
        proc.checkpoint()
        assert len(proc.storage.checkpoints) == 2
        assert proc.storage.gc_reclaimed == 0


class TestRetransmission:
    def _sender_receiver(self, window=8):
        sender = make_proc(pid=0, n=4, k=4, behavior=Forwarder(),
                           retransmit_window=window)
        receiver = make_proc(pid=1, n=4, k=4, behavior=Forwarder())
        return sender, receiver

    def test_sent_log_retains_window(self):
        sender, _ = self._sender_receiver(window=2)
        for _ in range(5):
            deliver_env(sender, {"to": 1})
        assert len(sender.retransmit.sent_log[1]) == 2

    def test_retransmit_on_restart_announcement(self):
        sender, receiver = self._sender_receiver()
        effects = deliver_env(sender, {"to": 1})
        msg = effects_of(effects, ReleaseMessage)[0].message
        # The message is lost: the receiver crashes before it arrives.
        receiver.crash()
        restart = receiver.restart()
        ann = [e.announcement for e in restart
               if hasattr(e, "announcement")][0]
        effects = sender.on_failure_announcement(ann)
        resent = effects_of(effects, ReleaseMessage)
        assert [e.message.msg_id for e in resent] == [msg.msg_id]
        assert sender.stats.retransmissions == 1
        # Delivery at the restarted receiver now succeeds.
        delivered = receiver.on_receive(resent[0].message)
        assert effects_of(delivered, MessageDelivered)

    def test_duplicate_retransmission_dropped(self):
        sender, receiver = self._sender_receiver()
        effects = deliver_env(sender, {"to": 1})
        msg = effects_of(effects, ReleaseMessage)[0].message
        receiver.on_receive(msg)  # delivered the first time
        receiver.flush()          # ...and logged: survives the crash
        receiver.crash()
        restart_effects = receiver.restart()
        ann = [e.announcement for e in restart_effects
               if hasattr(e, "announcement")][0]
        resent = effects_of(sender.on_failure_announcement(ann), ReleaseMessage)
        effects = receiver.on_receive(resent[0].message)
        assert effects_of(effects, DuplicateDropped)

    def test_orphan_copies_pruned(self):
        # A buffered copy that became an orphan is not retransmitted.
        sender = make_proc(pid=0, n=4, k=4, behavior=Forwarder(),
                           retransmit_window=8)
        sender.on_receive(make_msg(2, 0, entries={2: Entry(0, 7)},
                                   payload={"to": 1}))
        assert len(sender.retransmit.sent_log[1]) == 1
        # P2's failure orphans the sent message AND rolls the sender back.
        sender.on_failure_announcement(make_announcement(2, 0, 3))
        # A later restart announcement from P1 retransmits nothing stale.
        effects = sender.on_failure_announcement(make_announcement(1, 0, 1))
        resent = effects_of(effects, ReleaseMessage)
        assert all(not sender._is_orphan_message(m.message) for m in resent)

    def test_disabled_by_default(self):
        sender = make_proc(pid=0, n=4, k=4, behavior=Forwarder())
        deliver_env(sender, {"to": 1})
        assert sender.retransmit.sent_log == {}
        effects = sender.on_failure_announcement(make_announcement(1, 0, 1))
        assert not effects_of(effects, ReleaseMessage)

    def test_harness_end_to_end_recovers_lost_messages(self):
        # Pipeline: messages lost in transit to the down stage come from
        # upstream and are causally independent of its lost state, so
        # retransmission recovers them and strictly more items complete.
        from repro.failures.injector import FailureSchedule
        from repro.runtime.config import SimConfig
        from repro.runtime.harness import SimulationHarness
        from repro.workloads.pipeline import PipelineWorkload

        def run(window):
            config = SimConfig(n=4, k=None, seed=13, restart_delay=50.0,
                               retransmit_window=window, trace_enabled=False)
            workload = PipelineWorkload(rate=1.0)
            harness = SimulationHarness(
                config, workload.behavior(),
                failures=FailureSchedule.single(150.0, 2))
            workload.install(harness, until=250.0)
            harness.run(350.0)
            return harness.metrics()

        without = run(0)
        with_retransmit = run(64)
        assert without.app_messages_lost > 0
        assert with_retransmit.retransmissions > 0
        assert with_retransmit.violations == []
        # Strictly more pipeline items reach the final stage.
        assert (with_retransmit.outputs_committed
                > without.outputs_committed)
