"""Timer-driven app-message retransmission (the protocol side).

The protocol stays sans-IO: releasing a message with a retransmission
timeout configured also emits a :class:`ScheduleRetransmit` effect; the
harness turns it into an engine timer and calls ``on_retransmit_timer``
when it fires.  ``on_ack`` stops the cycle.
"""

from repro.app.behavior import AppBehavior
from repro.core.effects import ReleaseMessage, ScheduleRetransmit
from repro.core.entry import Entry
from repro.net.message import AppAck
from helpers import deliver_env, effects_of, make_announcement, make_msg, make_proc


class ForwardingBehavior(AppBehavior):
    def initial_state(self, pid, n):
        return {}

    def on_message(self, state, payload, ctx):
        if isinstance(payload, dict) and "to" in payload:
            ctx.send(payload["to"], payload.get("inner", {}))
        return state


def proc_with_timer(**kwargs):
    return make_proc(k=4, behavior=ForwardingBehavior(),
                     retransmit_timeout=4.0,
                     retransmit_budget=3, **kwargs)


def release_one(proc):
    effects = deliver_env(proc, payload={"to": 1})
    (released,) = effects_of(effects, ReleaseMessage)
    (timer,) = effects_of(effects, ScheduleRetransmit)
    return released.message, timer


class TestRelease:
    def test_release_schedules_first_timer(self):
        proc = proc_with_timer()
        msg, timer = release_one(proc)
        assert timer.msg_id == msg.msg_id
        assert timer.delay == 4.0
        assert msg.msg_id in proc._unacked

    def test_no_timer_when_disabled(self):
        proc = make_proc(k=4, behavior=ForwardingBehavior())
        effects = deliver_env(proc, payload={"to": 1})
        assert effects_of(effects, ReleaseMessage)
        assert not effects_of(effects, ScheduleRetransmit)
        assert proc._unacked == {}


class TestTimerFiring:
    def test_timer_resends_with_backoff(self):
        proc = proc_with_timer()
        msg, timer = release_one(proc)
        effects = proc.on_retransmit_timer(msg.msg_id)
        (resent,) = effects_of(effects, ReleaseMessage)
        assert resent.message is msg
        (next_timer,) = effects_of(effects, ScheduleRetransmit)
        assert next_timer.delay == 8.0  # 4.0 * backoff
        assert proc.stats.timer_retransmissions == 1
        later = proc.on_retransmit_timer(msg.msg_id)
        assert effects_of(later, ScheduleRetransmit)[0].delay == 16.0

    def test_ack_stops_retransmission(self):
        proc = proc_with_timer()
        msg, _ = release_one(proc)
        assert proc.on_ack(AppAck(msg.msg_id, 1, proc.pid)) == []
        assert proc.stats.acks_received == 1
        assert msg.msg_id not in proc._unacked
        assert proc.on_retransmit_timer(msg.msg_id) == []
        assert proc.stats.timer_retransmissions == 0

    def test_duplicate_ack_ignored(self):
        proc = proc_with_timer()
        msg, _ = release_one(proc)
        proc.on_ack(AppAck(msg.msg_id, 1, proc.pid))
        proc.on_ack(AppAck(msg.msg_id, 1, proc.pid))
        assert proc.stats.acks_received == 1

    def test_budget_exhaustion_abandons_message(self):
        proc = proc_with_timer()
        msg, _ = release_one(proc)
        for _ in range(3):  # budget
            assert effects_of(proc.on_retransmit_timer(msg.msg_id),
                              ReleaseMessage)
        assert proc.on_retransmit_timer(msg.msg_id) == []
        assert proc.stats.retransmit_budget_exhausted == 1
        assert msg.msg_id not in proc._unacked

    def test_crash_clears_unacked(self):
        proc = proc_with_timer()
        msg, _ = release_one(proc)
        proc.crash()
        proc.restart()
        assert proc._unacked == {}
        assert proc.on_retransmit_timer(msg.msg_id) == []

    def test_orphaned_pending_message_not_retransmitted(self):
        proc = proc_with_timer()
        # The send depends on P2's interval (0, 5) piggybacked on the
        # triggering message.
        proc.on_receive(make_msg(2, 0, entries={2: Entry(0, 5)},
                                 payload={"to": 1}))
        pending_ids = list(proc._unacked)
        assert pending_ids
        # P2's incarnation 0 ends at 2: our state rolls back and the
        # pending send is an orphan — the scrub already pruned it.
        proc.on_failure_announcement(make_announcement(2, 0, 2))
        for msg_id in pending_ids:
            assert proc.on_retransmit_timer(msg_id) == []
        assert proc.stats.timer_retransmissions == 0
