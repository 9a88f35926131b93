"""Timer-driven retransmission of app messages and failure announcements
(the protocol side).

The protocol stays sans-IO: releasing a message — or broadcasting an
announcement — with a retransmission timeout configured also emits a
:class:`ScheduleRetransmit` effect per destination; the runtime turns it
into a timer and calls ``on_retransmit_timer`` when it fires.  ``on_ack``
stops the cycle.  The receiver's half is an effect too: with acks on,
``on_receive`` and ``on_failure_announcement`` ack every copy first.
"""

from repro.app.behavior import AppBehavior
from repro.core.baselines import StromYeminiProcess
from repro.core.effects import (
    BroadcastAnnouncement,
    DuplicateDropped,
    MessageDiscarded,
    ReleaseMessage,
    RollbackPerformed,
    ScheduleRetransmit,
    SendControl,
)
from repro.core.entry import Entry
from repro.net.message import Ack
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
        assert timer.key == msg.msg_id
        assert timer.delay == 4.0
        assert msg.msg_id in proc.retransmit.pending

    def test_no_timer_when_disabled(self):
        proc = make_proc(k=4, behavior=ForwardingBehavior())
        effects = deliver_env(proc, payload={"to": 1})
        assert effects_of(effects, ReleaseMessage)
        assert not effects_of(effects, ScheduleRetransmit)
        assert proc.retransmit.pending == {}


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
        assert proc.on_ack(Ack(msg.msg_id, 1, proc.pid)) == []
        assert proc.stats.acks_received == 1
        assert msg.msg_id not in proc.retransmit.pending
        assert proc.on_retransmit_timer(msg.msg_id) == []
        assert proc.stats.timer_retransmissions == 0

    def test_duplicate_ack_ignored(self):
        proc = proc_with_timer()
        msg, _ = release_one(proc)
        proc.on_ack(Ack(msg.msg_id, 1, proc.pid))
        proc.on_ack(Ack(msg.msg_id, 1, proc.pid))
        assert proc.stats.acks_received == 1

    def test_budget_exhaustion_abandons_message(self):
        proc = proc_with_timer()
        msg, _ = release_one(proc)
        for _ in range(3):  # budget
            assert effects_of(proc.on_retransmit_timer(msg.msg_id),
                              ReleaseMessage)
        assert proc.on_retransmit_timer(msg.msg_id) == []
        assert proc.stats.retransmit_budget_exhausted == 1
        assert msg.msg_id not in proc.retransmit.pending

    def test_crash_clears_unacked(self):
        proc = proc_with_timer()
        msg, _ = release_one(proc)
        proc.crash()
        assert proc.retransmit.pending == {}
        proc.restart()
        # Only the Restart's own announcement is pending again.
        assert msg.msg_id not in proc.retransmit.pending
        assert proc.on_retransmit_timer(msg.msg_id) == []

    def test_orphaned_pending_message_not_retransmitted(self):
        proc = proc_with_timer()
        # The send depends on P2's interval (0, 5) piggybacked on the
        # triggering message.
        proc.on_receive(make_msg(2, 0, entries={2: Entry(0, 5)},
                                 payload={"to": 1}))
        pending_ids = list(proc.retransmit.pending)
        assert pending_ids
        # P2's incarnation 0 ends at 2: our state rolls back and the
        # pending send is an orphan — the scrub already pruned it.
        proc.on_failure_announcement(make_announcement(2, 0, 2))
        for msg_id in pending_ids:
            assert proc.on_retransmit_timer(msg_id) == []
        assert proc.stats.timer_retransmissions == 0


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def restarted(proc):
    """Crash and restart ``proc``; the announcement it broadcast and the
    Restart's effects."""
    proc.crash()
    effects = proc.restart()
    (*_, broadcast) = effects_of(effects, BroadcastAnnouncement)
    return broadcast.announcement, effects


class TestAnnouncements:
    """An announcement is one pending entry per destination in the same
    retransmitter as released messages."""

    def proc(self, **kwargs):
        self.clock = Clock()
        return proc_with_timer(now_fn=self.clock, **kwargs)

    def test_restart_broadcasts_with_one_timer_per_destination(self):
        proc = self.proc()
        ann, effects = restarted(proc)
        timers = effects_of(effects, ScheduleRetransmit)
        assert [t.key for t in timers] == [(ann, 1), (ann, 2), (ann, 3)]
        assert {t.delay for t in timers} == {4.0}
        assert proc.unacked_count == 3

    def test_no_entry_when_retransmission_is_off(self):
        proc = make_proc(k=4)
        _ann, effects = restarted(proc)
        assert not effects_of(effects, ScheduleRetransmit)
        assert proc.unacked_count == 0

    def test_ack_stops_retries_and_a_duplicate_or_stale_ack_is_a_no_op(self):
        proc = self.proc()
        ann, _ = restarted(proc)
        assert proc.on_ack(Ack(ann, 2, proc.pid)) == []
        assert proc.on_retransmit_timer((ann, 2)) == []
        proc.on_ack(Ack(ann, 2, proc.pid))  # duplicate
        proc.on_ack(Ack(make_announcement(0, 7, 9), 1, proc.pid))  # stale
        assert proc.stats.ctl_acked == 1
        assert proc.stats.ctl_retransmits == 0
        assert proc.unacked_count == 2
        # The other destinations' copies are still retried.
        (resent,) = effects_of(proc.on_retransmit_timer((ann, 1)), SendControl)
        assert (resent.dst, resent.payload) == (1, ann)

    def test_the_delay_doubles(self):
        proc = self.proc()
        ann, _ = restarted(proc)
        delays = []
        for _ in range(3):
            effects = proc.on_retransmit_timer((ann, 3))
            assert effects_of(effects, SendControl) == [SendControl(3, ann)]
            (timer,) = effects_of(effects, ScheduleRetransmit)
            assert timer.key == (ann, 3)
            delays.append(timer.delay)
        assert delays == [8.0, 16.0, 32.0]
        assert proc.stats.ctl_retransmits == 3
        assert proc.stats.timer_retransmissions == 0

    def test_budget_exhaustion_counts_into_ctl_budget_exhausted(self):
        proc = self.proc()
        ann, _ = restarted(proc)
        for _ in range(3):  # budget
            assert effects_of(proc.on_retransmit_timer((ann, 1)), SendControl)
        assert proc.on_retransmit_timer((ann, 1)) == []
        assert proc.stats.ctl_budget_exhausted == 1
        assert proc.stats.retransmit_budget_exhausted == 0
        assert (ann, 1) not in proc.retransmit.pending

    def test_ack_rtt_is_taken_from_the_first_send(self):
        proc = self.proc()
        ann, _ = restarted(proc)
        self.clock.now = 4.0
        proc.on_retransmit_timer((ann, 1))
        self.clock.now = 5.5
        proc.on_ack(Ack(ann, 1, proc.pid))
        self.clock.now = 7.0
        proc.on_ack(Ack(ann, 2, proc.pid))
        assert proc.stats.ctl_acked == 2
        assert proc.stats.ack_rtt_total / proc.stats.ctl_acked == 6.25

    def test_crash_clears_the_entries_and_restart_rebroadcasts_them_all(self):
        proc = self.proc()
        first, _ = restarted(proc)
        proc.on_ack(Ack(first, 1, proc.pid))
        proc.crash()
        assert proc.unacked_count == 0
        assert proc.on_retransmit_timer((first, 2)) == []
        effects = proc.restart()
        second = effects_of(effects, BroadcastAnnouncement)[-1].announcement
        assert second.end.inc > first.end.inc
        # Every earlier announcement of its own goes out again (to every
        # destination: the crash forgot who had acked), the new one last.
        assert [e.announcement for e in effects_of(
            effects, BroadcastAnnouncement)] == [first, second]
        assert [t.key for t in effects_of(effects, ScheduleRetransmit)] == [
            (ann, dst) for ann in (first, second) for dst in (1, 2, 3)]

    def test_a_rollback_announcement_rides_the_same_timers(self):
        proc = make_proc(k=4, cls=StromYeminiProcess,
                         behavior=ForwardingBehavior(),
                         retransmit_timeout=4.0, retransmit_budget=3)
        proc.on_receive(make_msg(2, 0, entries={2: Entry(0, 5)},
                                 payload={"to": 1}))
        effects = proc.on_failure_announcement(make_announcement(2, 0, 2))
        assert effects_of(effects, RollbackPerformed)
        (broadcast,) = effects_of(effects, BroadcastAnnouncement)
        ann = broadcast.announcement
        assert ann.origin == proc.pid
        assert [t.key for t in effects_of(effects, ScheduleRetransmit)
                if isinstance(t.key, tuple) and t.key[0] == ann] == [
            (ann, 1), (ann, 2), (ann, 3)]


class TestAcks:
    def test_every_copy_is_acked_first(self):
        proc = proc_with_timer(pid=0)
        msg = make_msg(1, 0, payload={"to": 2})
        ack = SendControl(1, Ack(msg.msg_id, 0, 1))
        effects = proc.on_receive(msg)
        assert effects[0] == ack
        assert effects_of(effects, ReleaseMessage)   # the delivery ran
        assert proc.on_receive(msg) == [ack, DuplicateDropped(msg)]
        proc.on_failure_announcement(make_announcement(3, 0, 2))
        orphan = make_msg(3, 0, entries={3: Entry(0, 5)})
        assert proc.on_receive(orphan) == [
            SendControl(3, Ack(orphan.msg_id, 0, 3)),
            MessageDiscarded(orphan, reason="orphan-on-receive")]

    def test_no_ack_when_acks_are_off_or_for_the_outside_world(self):
        proc = make_proc(k=4, behavior=ForwardingBehavior())
        effects = proc.on_receive(make_msg(1, 0))
        assert not effects_of(effects, SendControl)
        effects = deliver_env(proc_with_timer(), payload={})
        assert not effects_of(effects, SendControl)

    def test_an_announcement_is_acked_before_anything_it_causes(self):
        proc = make_proc(k=4, behavior=ForwardingBehavior(),
                         retransmit_timeout=4.0, retransmit_window=8)
        deliver_env(proc, payload={"to": 2})      # sent-log: one to P2
        ann = make_announcement(2, 0, 2)
        effects = proc.on_failure_announcement(ann)
        assert effects[0] == SendControl(2, Ack(ann, 0, 2))
        assert effects_of(effects, ReleaseMessage)   # the sent-log replay
        assert not effects_of(
            make_proc(k=4).on_failure_announcement(ann), SendControl)


class TestReReceivedAnnouncement:
    def test_a_second_copy_logs_replays_and_rolls_back_nothing(self):
        proc = make_proc(k=4, behavior=ForwardingBehavior(),
                         retransmit_window=8)
        # A send to P2 the sent-log replays when P2 announces, then a
        # delivery depending on P2's interval (0, 5), which it rolls back.
        deliver_env(proc, payload={"to": 2})
        proc.on_receive(make_msg(2, 0, entries={2: Entry(0, 5)},
                                 payload={"to": 2}))
        ann = make_announcement(2, 0, 2)
        first = proc.on_failure_announcement(ann)
        assert effects_of(first, RollbackPerformed)
        assert proc.stats.retransmissions > 0
        logged = len(proc.storage.announcements)
        sync_writes = proc.storage.sync_writes
        rollbacks = proc.stats.rollbacks
        replays = proc.stats.retransmissions
        assert proc.on_failure_announcement(ann) == []
        assert len(proc.storage.announcements) == logged
        assert proc.storage.sync_writes == sync_writes
        assert proc.stats.rollbacks == rollbacks
        assert proc.stats.retransmissions == replays

    def test_a_held_copy_returns_only_its_ack(self):
        proc = proc_with_timer(pid=0)
        ann = make_announcement(2, 0, 2)
        proc.on_failure_announcement(ann)
        sync_writes = proc.storage.sync_writes
        assert proc.on_failure_announcement(ann) == [
            SendControl(2, Ack(ann, 0, 2))]
        assert proc.storage.sync_writes == sync_writes

    def test_a_copy_arriving_after_our_own_crash_is_still_recognised(self):
        proc = make_proc(k=4)
        ann = make_announcement(2, 0, 2)
        proc.on_failure_announcement(ann)
        proc.crash()
        proc.restart()
        logged = len(proc.storage.announcements)
        assert proc.on_failure_announcement(ann) == []
        assert len(proc.storage.announcements) == logged
