"""Baseline conformance: Strom & Yemini classical optimistic recovery."""

from repro.app.behavior import AppBehavior
from repro.core.baselines.strom_yemini import StromYeminiProcess
from repro.core.effects import (
    BroadcastAnnouncement,
    MessageDelivered,
    ReleaseMessage,
    RollbackPerformed,
)
from repro.core.entry import Entry
from helpers import (
    deliver_env,
    effects_of,
    log_notification,
    make_announcement,
    make_msg,
)


class Forwarder(AppBehavior):
    def initial_state(self, pid, n):
        return {"count": 0}

    def on_message(self, state, payload, ctx):
        state["count"] += 1
        if isinstance(payload, dict) and "to" in payload:
            ctx.send(payload["to"], {})
        return state


def sy(pid=0, n=4):
    proc = StromYeminiProcess(pid, n, behavior=Forwarder())
    proc.initialize()
    return proc


class TestStromYemini:
    def test_messages_released_immediately(self):
        proc = sy()
        effects = deliver_env(proc, {"to": 1})
        assert effects_of(effects, ReleaseMessage)
        assert not proc.send_buffer

    def test_no_commit_dependency_tracking(self):
        # A logging progress notification does NOT shrink the vector.
        proc = sy(pid=0, n=4)
        proc.on_receive(make_msg(2, 0, entries={2: Entry(0, 7)}))
        proc.on_log_notification(log_notification(2, [{}, {}, {0: 7}, {}]))
        assert proc.tdv.get(2) == Entry(0, 7)

    def test_released_vector_keeps_stable_entries(self):
        proc = sy(pid=0, n=4)
        proc.on_log_notification(log_notification(2, [{}, {}, {0: 7}, {}]))
        effects = proc.on_receive(
            make_msg(2, 0, entries={2: Entry(0, 7)}, payload={"to": 1}))
        msg = effects_of(effects, ReleaseMessage)[0].message
        assert msg.tdv.get(2) == Entry(0, 7)  # still carried

    def test_incarnation_gated_delivery(self):
        # A dependency on incarnation 1 of P2 is NOT deliverable until the
        # announcement ending incarnation 0 of P2 arrives.
        proc = sy(pid=0, n=4)
        effects = proc.on_receive(make_msg(2, 0, entries={2: Entry(1, 9)}))
        assert not effects_of(effects, MessageDelivered)
        assert len(proc.receive_buffer) == 1
        effects = proc.on_failure_announcement(make_announcement(2, 0, 5))
        assert effects_of(effects, MessageDelivered)

    def test_incarnation_zero_never_gated(self):
        proc = sy(pid=0, n=4)
        effects = proc.on_receive(make_msg(2, 0, entries={2: Entry(0, 9)}))
        assert effects_of(effects, MessageDelivered)

    def test_rollback_broadcasts_announcement(self):
        # Pre-Theorem-1 behaviour: every rollback is announced.
        proc = sy(pid=0, n=4)
        proc.on_receive(make_msg(2, 0, entries={2: Entry(0, 7)}))
        effects = proc.on_failure_announcement(make_announcement(2, 0, 3))
        assert effects_of(effects, RollbackPerformed)
        own = [e for e in effects_of(effects, BroadcastAnnouncement)
               if e.announcement.origin == 0]
        assert len(own) == 1
        assert own[0].announcement.end.inc == 0

    def test_vector_size_tracks_all_dependencies(self):
        # With 3 upstream processes, the piggybacked vector carries
        # one entry per process + self: the size-N behaviour.
        proc = sy(pid=0, n=4)
        proc.on_receive(make_msg(1, 0, entries={1: Entry(0, 2)}))
        proc.on_receive(make_msg(2, 0, entries={2: Entry(0, 3)}))
        effects = proc.on_receive(
            make_msg(3, 0, entries={3: Entry(0, 4)}, payload={"to": 1}))
        msg = effects_of(effects, ReleaseMessage)[0].message
        assert msg.piggyback_size() == 4

    def test_k_equals_n(self):
        assert sy(n=4).k == 4
