"""``ProcessHost`` against a fake environment: no engine, no asyncio.

The host is the one place a process's lifecycle is written; the sim, the
epoch workers and ``serve`` only supply an :class:`Environment`.  These
tests supply the smallest one — a list-backed scheduler and a recording
transport — and pin what every driver then inherits: which handler each
payload kind reaches, the periodic timers, quiescence, boot, and the clean
fail-stop when the journal dies at the write-ahead barrier — also on a
step that produced no effect, which skips the executor but never the
barrier.  The host sends nothing itself: acks and notification ticks reach
the transport as the protocol's effects.
"""

from dataclasses import replace

import pytest

from repro.core.effects import (
    BroadcastAnnouncement,
    CommitOutput,
    MulticastControl,
)
from repro.core.entry import Entry
from repro.core.protocol import KOptimisticProcess
from repro.net.message import (
    Ack,
    LoggingRequest,
    LogProgressNotification,
    OutputRecord,
)
from repro.runtime.config import SimConfig
from repro.runtime.harness import SimulationHarness
from repro.runtime.host import (
    PHASE_SLOTS,
    Environment,
    ProcessHost,
    periodic,
    start_timers,
)
from repro.sim.trace import Tracer
from repro.storage.backend import StableBackend
from repro.storage.faults import StorageDeadError
from repro.storage.filelog import FileLogBackend
from repro.types import OutputId
from helpers import Scripted, build_sim, make_announcement, make_msg, make_proc

N = 3


class Handle:
    def __init__(self, time, callback):
        self.time, self.callback, self.cancelled = time, callback, False

    def cancel(self):
        self.cancelled = True


class FakeScheduler:
    """``now`` / ``schedule`` / ``after_due`` over plain lists."""

    def __init__(self):
        self.time = 0.0
        self.timers = []
        self.due = []

    def now(self):
        return self.time

    def schedule(self, delay, callback, callbacks=1):
        handle = Handle(self.time + delay, callback)
        self.timers.append(handle)
        return handle

    def after_due(self, pid, callback, callbacks=1):
        self.due.append(callback)

    def run_due(self):
        due, self.due = self.due, []
        for callback in due:
            callback()

    def advance(self, until):
        """Fire every timer due by ``until``, earliest first; once nothing
        more is due at an instant, its ``after_due`` callbacks."""
        while True:
            live = [h for h in self.timers
                    if not h.cancelled and h.time <= until]
            if self.due and all(h.time > self.time for h in live):
                self.run_due()
                continue
            if not live:
                self.time = until
                return
            handle = min(live, key=lambda h: h.time)
            self.timers.remove(handle)
            self.time = handle.time
            handle.callback()


class RecordingTransport:
    def __init__(self):
        self.sent = []

    def send_app(self, msg):
        self.sent.append(("app", msg.dst, msg))

    def send_control(self, src, dst, payload):
        self.sent.append(("ctl", dst, payload))

    def multicast_control(self, src, dsts, payload):
        for dst in dsts:
            self.send_control(src, dst, payload)

    def broadcast_control(self, src, payload):
        self.sent.append(("bcast", None, payload))


class DyingStorage(StableBackend):
    """A journal whose device dies at the next barrier."""

    def barrier(self):
        raise StorageDeadError("device gone")


class StubProtocol:
    """Records which handler ran; every handler answers with one effect a
    transport would see, so "nothing was interpreted" is observable."""

    def __init__(self, storage=None):
        self.storage = storage or StableBackend(0)
        self.calls = []
        self.failed = False
        self.send_buffer, self.receive_buffer, self.output_buffer = [], [], []
        self.unacked_count = 0

    #: What every handler answers with.
    effects = [BroadcastAnnouncement(make_announcement(0, 0, 1))]

    def _handler(name):
        def handler(self, *args, **kwargs):
            self.calls.append((name,) + args)
            return list(self.effects)
        return handler

    for _name in ("initialize", "boot_after_crash", "on_receive", "on_ack",
                  "on_failure_announcement", "on_log_notifications",
                  "on_logging_request", "on_retransmit_timer", "flush",
                  "checkpoint", "restart"):
        locals()[_name] = _handler(_name)

    def crash(self):
        self.calls.append(("crash",))
        self.failed = True

    def notify(self):
        self.calls.append(("notify",))
        return [MulticastControl(None, LogProgressNotification(0, None))]


def acking(**kwargs):
    """A real protocol for P0 that acks what arrives: acks are on exactly
    when it retransmits until acked."""
    return make_proc(0, n=N, k=1, retransmit_timeout=4.0, **kwargs)


def build(protocol=None, n=N, **config):
    """A host over the fake environment."""
    clock, transport = FakeScheduler(), RecordingTransport()
    env = Environment(
        config=SimConfig(n=n, k=1, **config),
        now=clock.now, schedule=clock.schedule, after_due=clock.after_due,
        transport=transport, tracer=Tracer(enabled=True),
    )
    host = ProcessHost(env, 0, protocol or StubProtocol())
    return host, clock, transport


def handlers(host):
    return [call[0] for call in host.protocol.calls]


class TestDispatch:
    def test_app_message_is_received_and_acked_when_the_endpoint_acks(self):
        # The ack is the step's first send, and a duplicate is acked
        # again (the last ack may have been lost).
        host, _clock, transport = build(acking())
        msg = make_msg(1, 0, n=N)
        host.incoming(msg)
        assert transport.sent[0] == ("ctl", 1, Ack(msg.msg_id, 0, 1))
        host.incoming(msg)
        acks = [p for kind, dst, p in transport.sent
                if kind == "ctl" and dst == 1]
        assert acks == [Ack(msg.msg_id, 0, 1)] * 2
        assert host.protocol.stats.duplicates_dropped == 1

    def test_no_ack_without_an_ack_layer_or_for_the_outside_world(self):
        host, _clock, transport = build(make_proc(0, n=N, k=1))
        host.incoming(make_msg(1, 0, n=N))
        assert not [s for s in transport.sent if s[0] == "ctl"]
        host, _clock, transport = build(acking())
        host.inject({"x": 1}, seq=7)
        assert host.protocol.stats.deliveries == 1
        assert not [s for s in transport.sent if s[0] == "ctl"]
        host, _clock, _transport = build()
        host.inject({"x": 1}, seq=7)
        (call,) = host.protocol.calls
        assert call[0] == "on_receive"
        assert call[1].src == -1 and call[1].msg_id.seq == 7
        assert call[1].tdv.non_null_count() == 0

    def test_control_kinds_reach_their_handlers(self):
        host, clock, _transport = build()
        ack = Ack(make_msg(0, 1, n=N).msg_id, 1, 0)
        announcement = make_announcement(1, 0, 3)
        request = LoggingRequest(2)
        host.incoming(ack)
        host.incoming(announcement)
        host.incoming(request)
        assert host.protocol.calls == [
            ("on_ack", ack), ("on_failure_announcement", announcement),
            ("on_logging_request", request)]
        assert host.env.tracer.select("ann.receive")

    def test_same_tick_notifications_are_drained_as_one_batch(self):
        host, clock, _transport = build()
        first, second = (LogProgressNotification(1, None),
                         LogProgressNotification(2, None))
        host.incoming(first)
        host.incoming(second)
        assert host.protocol.calls == [] and len(clock.due) == 1
        clock.run_due()
        assert host.protocol.calls == [("on_log_notifications",
                                        [first, second])]

    def test_announcement_is_acked_every_time_when_the_endpoint_acks(self):
        # The protocol logs a copy it holds already only once, and acks
        # every copy, since the last ack may have been lost.
        announcement = make_announcement(1, 0, 3)
        host, _clock, transport = build(acking())
        host.incoming(announcement)
        host.incoming(announcement)
        assert list(host.protocol.storage.announcements) == [announcement]
        acks = [(dst, p) for kind, dst, p in transport.sent if kind == "ctl"]
        assert acks == [(1, Ack(announcement, 0, 1))] * 2
        host, _clock, transport = build(make_proc(0, n=N, k=1))
        host.incoming(announcement)
        assert not [s for s in transport.sent if s[0] == "ctl"]

    def test_unknown_payload_is_rejected(self):
        host, _clock, _transport = build()
        with pytest.raises(TypeError):
            host.incoming(object())

    def test_retransmit_timer_reaches_the_protocol_only_while_up(self):
        host, _clock, _transport = build()
        host.executor.on_retransmit("m1")
        host.crash()
        host.executor.on_retransmit("m2")
        assert host.protocol.calls == [("on_retransmit_timer", "m1"),
                                       ("crash",)]


class TestDowntime:
    def test_control_is_parked_and_the_rest_is_lost(self):
        host, clock, transport = build(restart_delay=10.0)
        host.crash()
        announcement = make_announcement(1, 0, 3)
        notification = LogProgressNotification(1, None)
        host.incoming(make_msg(1, 0, n=N))
        host.incoming(LoggingRequest(2))
        host.incoming(Ack(make_msg(0, 1, n=N).msg_id, 1, 0))
        host.incoming(announcement)
        host.incoming(notification)
        assert handlers(host) == ["crash"]
        assert host.lost_app_messages == 1
        assert len(host.env.tracer.select("net.lost")) == 3
        assert not [s for s in transport.sent if s[0] == "ctl"]  # no acks

        clock.advance(10.0)              # the restart the crash scheduled
        clock.run_due()
        assert not host.down and len(host.crash_times) == 1
        assert host.protocol.calls[1:] == [
            ("restart",), ("on_failure_announcement", announcement),
            ("on_log_notifications", [notification])]

        # A process that acks acks nothing while down, and the parked
        # announcement once it is handled.
        host, clock, transport = build(acking(), restart_delay=10.0)
        host.crash()
        host.incoming(announcement)
        assert not [s for s in transport.sent if s[0] == "ctl"]
        clock.advance(10.0)
        assert [(dst, p) for kind, dst, p in transport.sent
                if kind == "ctl"] == [(1, Ack(announcement, 0, 1))]

    def test_crashing_a_dead_process_is_a_no_op(self):
        host, clock, _transport = build()
        host.crash()
        host.crash()
        assert len(host.crash_times) == 1 and len(clock.timers) == 1


def pending(clock):
    return [h for h in clock.timers if not h.cancelled]


class TestPeriodic:
    """The timer driver: an activity on its grid anchor + j * interval;
    grids that share a point fire there at the same instant, in arming
    order."""

    def test_fires_staggered_and_rearms_up_to_the_horizon(self):
        clock, fired = FakeScheduler(), []
        periodic(clock.schedule, 2.5, 10.0, lambda: fired.append(clock.time),
                 horizon=35.0)
        clock.advance(100.0)
        assert fired == [2.5, 12.5, 22.5, 32.5]
        assert not clock.timers          # 42.5 > 35: not re-armed

    def test_first_firing_beyond_the_horizon_never_happens(self):
        clock = FakeScheduler()
        periodic(clock.schedule, 5.0, 10.0, lambda: 1 / 0, horizon=4.0)
        assert not clock.timers

    def test_without_a_horizon_it_runs_until_cancelled(self):
        clock, fired = FakeScheduler(), []
        cancel = periodic(clock.schedule, 5.0, 10.0,
                          lambda: fired.append(clock.time))
        clock.advance(26.0)
        cancel()
        clock.advance(100.0)
        assert fired == [5.0, 15.0, 25.0]
        assert not pending(clock)

    def test_a_grid_starts_at_its_first_instant_after_zero(self):
        for anchor, first in ((30.0, 10.0), (20.0, 20.0), (-15.0, 5.0),
                              (0.0, 20.0)):
            clock, fired = FakeScheduler(), []
            periodic(clock.schedule, anchor, 20.0,
                     lambda: fired.append(clock.time), horizon=60.0)
            clock.advance(100.0)
            assert fired == [first, first + 20.0, first + 40.0], anchor

    def test_shared_grid_points_fire_at_one_instant_in_arming_order(self):
        clock, fired = FakeScheduler(), []
        phase = 3 / 7        # an anchor with no exact binary expansion
        for anchor, interval, name in ((160 * phase, 160.0, "checkpoint"),
                                       (40 * phase, 40.0, "flush"),
                                       (40 * phase, 20.0, "notify")):
            periodic(clock.schedule, anchor, interval,
                     lambda name=name: fired.append((clock.time, name)),
                     horizon=400.0)
        clock.advance(1000.0)
        names = [name for _t, name in fired]
        assert names.count("flush") == 10 and names.count("notify") == 20
        assert names.count("checkpoint") == 3
        # Every flush is followed, at the very same instant, by a notify
        # (the grids meet exactly, without rounding apart), and a
        # checkpoint that shares the instant goes first.
        for i, (time, name) in enumerate(fired):
            if name == "flush":
                assert fired[i + 1] == (time, "notify")
            if name == "checkpoint" and i + 1 < len(fired) \
                    and fired[i + 1][0] == time:
                assert fired[i + 1][1] == "flush"

    def test_host_timers_drive_flush_checkpoint_and_notify(self):
        host, clock, transport = build(flush_interval=4.0,
                                       checkpoint_interval=8.0,
                                       notify_interval=2.0)
        start_timers([host], horizon=8.0)
        clock.advance(50.0)
        # P0 of 3 processes has phase (pid + 1) / (n + 1) = 1/4 (its own
        # slot: n <= PHASE_SLOTS): flush at 1, 5; checkpoint at
        # 2; notify on the flush's grid, at 1, 3, 5, 7 — nothing past the
        # horizon.
        calls = handlers(host)
        assert calls.count("flush") == 2
        assert calls.count("checkpoint") == 1
        assert calls.count("notify") == 4
        assert calls[:2] == ["flush", "notify"]
        assert [p for kind, _dst, p in transport.sent if kind == "bcast"
                and isinstance(p, LogProgressNotification)]
        assert not clock.timers

    def test_stopped_timers_stay_stopped(self):
        host, clock, _transport = build()
        stop_timers = start_timers([host])
        stop_timers()
        clock.advance(1000.0)
        assert host.protocol.calls == []
        assert not pending(clock)

    @pytest.mark.parametrize("notify_interval, shared", [(20.0, 1), (80.0, 2)])
    def test_a_flush_is_reported_at_its_instant(self, notify_interval, shared):
        """With the defaults (F = 40 = 2N) every flush is followed at its
        instant by a broadcast whose own row is the frontier that flush
        reached; with N = 2F every other one is — also when the notify
        timer, armed earlier, comes first at that instant."""
        n = 3
        for pid in range(n):
            protocol = make_proc(pid, n=n, k=1, behavior=Scripted())
            clock, transport = FakeScheduler(), RecordingTransport()
            config = SimConfig(n=n, k=1, notify_interval=notify_interval)
            env = Environment(config=config, now=clock.now,
                              schedule=clock.schedule,
                              after_due=clock.after_due, transport=transport,
                              tracer=Tracer(enabled=False))
            host = ProcessHost(env, pid, protocol)
            flushes, notes = [], []
            flush = protocol.flush

            def recording_flush():
                effects = flush()
                flushes.append((clock.time, effects[0].through))
                return effects

            protocol.flush = recording_flush
            transport.broadcast_control = (
                lambda src, payload, **kw: notes.append((clock.time, payload)))
            start_timers([host], horizon=400.0)
            for t in range(3, 400, 7):              # deliveries to flush
                clock.advance(float(t))
                host.inject({}, seq=t)
            clock.advance(400.0)
            assert len(flushes) == 10
            reported = 0
            for time, frontier in flushes:
                for note in [p for at, p in notes if at == time]:
                    assert note.table.rows()[pid] == {frontier.inc: frontier.sii}
                    reported += 1
            assert reported == 10 // shared


class CountingProcess(KOptimisticProcess):
    """Counts its Receive_log passes and the notifications they merge."""

    passes = notifications = 0

    def on_log_notifications(self, notifs):
        self.passes += 1
        self.notifications += len(notifs)
        return super().on_log_notifications(notifs)


class TestPhaseSlots:
    """Up to n = PHASE_SLOTS every process has its own timer phase, (pid
    + 1) / (n + 1); beyond, the pids congruent mod PHASE_SLOTS share one,
    so their notifications land together and are merged in one pass."""

    @staticmethod
    def first_flush(pid, n):
        clock, transport = FakeScheduler(), RecordingTransport()
        config = SimConfig(n=n, k=1)
        env = Environment(config=config, now=clock.now,
                          schedule=clock.schedule, after_due=clock.after_due,
                          transport=transport, tracer=Tracer(enabled=False))
        host = ProcessHost(env, pid, StubProtocol())
        flushes = []
        host.flush = lambda: flushes.append(clock.time)
        start_timers([host])
        clock.advance(config.flush_interval)
        return flushes[0], config.flush_interval

    @pytest.mark.parametrize("n", range(1, PHASE_SLOTS + 1))
    def test_up_to_the_slot_count_each_pid_has_its_own_phase(self, n):
        for pid in range(n):
            at, interval = self.first_flush(pid, n)
            assert at == interval * ((pid + 1) / (n + 1)), (pid, n)

    @pytest.mark.parametrize("n", [64, 1024])
    def test_beyond_it_the_pids_share_the_slots(self, n):
        phases = {}
        for pid in range(n):
            phases.setdefault(self.first_flush(pid, n)[0], []).append(pid)
        assert len(phases) == PHASE_SLOTS
        for pids in phases.values():
            assert {pid % PHASE_SLOTS for pid in pids} == {pids[0]}

    def test_a_receiver_merges_a_slot_in_one_pass(self):
        harness = build_sim(n=64, k=2, seed=0, until=60.0,
                            protocol=CountingProcess, trace_enabled=False)
        harness.run(60.0, settle=False)
        passes = sum(host.protocol.passes for host in harness.hosts)
        notifications = sum(host.protocol.notifications
                            for host in harness.hosts)
        # One phase per process merged 1.0 notifications per pass here;
        # 16 shared slots merge 64 / 16 = 4 senders' at once.
        assert passes > 0
        assert notifications / passes >= 3


class TestAdaptiveK:
    """Any host builds its own K controller from its config — the serve
    worker's as much as the simulation's."""

    def test_the_host_builds_arms_and_feeds_its_controller(self):
        proc = make_proc(0, n=N, k=1)
        host, clock, _transport = build(proc, adaptive_k=True,
                                        control_interval=10.0)
        controller = host.controller
        assert controller is not None
        assert proc.k_policy == controller.recommend
        start_timers([host], horizon=30.0)

        def commit(seq, t0):
            host.execute([CommitOutput(OutputRecord(
                OutputId(0, 0, 1, seq), 0, {"t0": t0}, Entry(0, 1)),
                wait=0.1)])

        clock.time = 2.0
        commit(0, 0.5)
        clock.advance(5.0)      # the control grid: 10 * (0 + 1) / (N + 1)
        assert [t for t, _k in controller.history] == [2.5]
        assert list(controller.window) == [1.5]
        clock.time = 6.0
        commit(1, 5.0)
        clock.advance(13.0)
        assert [t for t, _k in controller.history] == [2.5, 12.5]
        assert list(controller.window) == [1.5, 1.0]
        assert host.latency_samples == [1.5, 1.0]


class TestFanoutPull:
    """The notify tick goes out as the protocol's effects, one transport
    call per tick; the host only starts it."""

    def asked(self, transport):
        asked = [dst for kind, dst, _p in transport.sent if kind == "ctl"]
        del transport.sent[:]
        return asked

    def puller(self, n, fanout):
        """A host over a real P0 in fanout mode, awaiting whichever owners
        the test sets as ``host.protocol.awaited``."""
        proc = make_proc(0, n=n, k=1, notify_fanout=fanout)
        proc.awaited = ()
        proc.awaited_owners = lambda: sorted(proc.awaited)
        return build(proc, n=n)

    def test_a_process_awaiting_nobody_sends_nothing(self):
        host, _clock, transport = self.puller(N, 2)
        for _ in range(3):
            host.notify()
        assert transport.sent == []

    def test_a_tick_asks_the_awaited_owners_without_the_flush_bit(self):
        host, _clock, transport = self.puller(6, 4)
        host.protocol.awaited = (5, 2, 3)
        host.notify()
        assert transport.sent == [
            ("ctl", dst, LoggingRequest(0, flush=False)) for dst in (2, 3, 5)]
        # Nothing is remembered: the same owners are asked at every tick
        # until an answer takes them off the list.
        del transport.sent[:]
        host.notify()
        assert self.asked(transport) == [2, 3, 5]

    def test_more_owners_than_the_budget_take_turns(self):
        owners = [1, 2, 4, 5, 6, 7, 8]
        for fanout in (1, 2, 3, 7):
            host, _clock, transport = self.puller(9, fanout)
            host.protocol.awaited = owners
            asked = []
            for _ in range(-(-len(owners) // fanout)):   # ceil(m / f) ticks
                host.notify()
                tick = self.asked(transport)
                assert len(tick) == fanout
                asked += tick
            assert set(asked) == set(owners)
            # In pid order, carrying on behind the last owner asked.
            assert asked[:len(owners)] == owners

    def test_turns_survive_a_changing_awaited_set(self):
        host, _clock, transport = self.puller(9, 2)
        host.protocol.awaited = [1, 3, 5, 7]
        host.notify()
        assert self.asked(transport) == [1, 3]
        host.protocol.awaited = [1, 2, 5, 7, 8]      # 3 answered; 2, 8 new
        host.notify()
        assert self.asked(transport) == [5, 7]
        host.notify()
        assert self.asked(transport) == [8, 1]
        host.protocol.awaited = [2]                  # within budget: all
        host.notify()
        assert self.asked(transport) == [2]

    def test_broadcast_mode_still_pushes_to_everyone(self):
        host, _clock, transport = build(make_proc(0, n=N, k=1))
        host.protocol.awaited_owners = lambda: [1, 2]
        host.notify()
        assert [(kind, type(p)) for kind, _dst, p in transport.sent] == [
            ("bcast", LogProgressNotification)]

    def test_the_host_answers_with_what_a_periodic_tick_would_carry(self):
        for gossip in (True, False):
            owner = make_proc(0, n=N, k=1, behavior=Scripted(),
                              notify_fanout=1, gossip_log_tables=gossip)
            owner.log.insert(1, Entry(0, 9))
            host, _clock, transport = build(protocol=owner)
            host.inject({}, seq=1)                   # an unflushed interval
            host.incoming(LoggingRequest(2, flush=False))
            ((kind, dst, answer),) = transport.sent
            assert (kind, dst) == ("ctl", 2)
            assert answer.table.rows()[0] == {0: 1}
            assert answer.table.rows()[1] == ({0: 9} if gossip else {})
            assert owner.storage.async_writes == 0
            host.incoming(LoggingRequest(2))         # Section 2: flush first
            assert owner.storage.async_writes == 1
            assert transport.sent[-1][2].table.rows()[0] == {0: 2}

    def test_a_down_owner_drops_the_ask_and_answers_once_it_is_back(self):
        host, clock, transport = build(restart_delay=10.0)
        host.crash()
        host.incoming(LoggingRequest(2, flush=False))
        assert host.pending_control == []
        clock.advance(10.0)
        assert handlers(host) == ["crash", "restart"]   # nothing replayed
        request = LoggingRequest(2, flush=False)
        host.incoming(request)
        assert host.protocol.calls[-1] == ("on_logging_request", request)


class TestQuiescence:
    def test_any_held_traffic_or_downtime_is_not_quiescent(self):
        host, _clock, _transport = build()
        assert host.quiescent()
        for name in ("send_buffer", "receive_buffer", "output_buffer"):
            getattr(host.protocol, name).append(object())
            assert not host.quiescent()
            getattr(host.protocol, name).clear()
        host.protocol.unacked_count = 1
        assert not host.quiescent()
        host.protocol.unacked_count = 0
        host.crash()
        assert not host.quiescent()

    def test_real_protocol_holds_a_send_until_it_is_flushed(self):
        host, _clock, transport = build(
            protocol=make_proc(0, n=N, k=0, behavior=Scripted()))
        host.inject({"sends": [(1, None)]}, seq=1)
        assert not host.quiescent()      # K=0: held until the interval is stable
        host.flush()
        assert host.quiescent()
        assert [s for s in transport.sent if s[0] == "app" and s[1] == 1]


class TestBoot:
    def test_fresh_boot_initializes(self):
        host, _clock, transport = build()
        host.boot()
        assert handlers(host) == ["initialize"]
        assert [s for s in transport.sent if s[0] == "bcast"]

    def test_recovering_boot_goes_through_boot_after_crash(self):
        host, _clock, _transport = build()
        host.boot(recovering=True)
        assert handlers(host) == ["boot_after_crash"]

    def test_fresh_boot_refuses_a_used_journal(self, tmp_path):
        journal = str(tmp_path / "p000")
        earlier = FileLogBackend(0, journal)
        make_proc(0, n=N, k=1, behavior=Scripted(), storage=earlier)
        earlier.barrier()
        earlier.close()
        storage = FileLogBackend(0, journal)
        host, _clock, transport = build(StubProtocol(storage))
        with pytest.raises(ValueError, match=journal):
            host.boot()
        assert handlers(host) == [] and transport.sent == []
        host.boot(recovering=True)      # a respawn resumes that life
        assert handlers(host) == ["boot_after_crash"]
        storage.close()

    def test_harness_on_a_used_storage_dir_is_refused(self, tmp_path):
        """A run built on an earlier run's journals ran on top of them
        (crash_filelog_n16 seed 6 on seed 5's: 744 certifier violations,
        23 outputs instead of 126); it is refused before a byte moves."""
        config = SimConfig(n=3, k=1, seed=5, storage_backend="filelog",
                           storage_dir=str(tmp_path))
        first = SimulationHarness(config, Scripted())
        first.run(5.0)
        first.close()
        sizes = sorted((p.name, p.stat().st_size)
                       for p in tmp_path.rglob("*") if p.is_file())
        with pytest.raises(ValueError, match=str(tmp_path)):
            SimulationHarness(replace(config, seed=6), Scripted())
        assert sorted((p.name, p.stat().st_size) for p in tmp_path.rglob("*")
                      if p.is_file()) == sizes


class CountingStorage(StableBackend):
    """Counts the barriers; optionally dies at the next one."""

    def __init__(self, pid, dies=False):
        super().__init__(pid)
        self.barriers = 0
        self.dies = dies

    def barrier(self):
        self.barriers += 1
        if self.dies:
            raise StorageDeadError("device gone")
        super().barrier()


class TestEmptyStep:
    """A step that produced no effect skips the executor, never the
    write-ahead barrier: the handler may still have written."""

    def quiet(self, dies=False):
        protocol = StubProtocol(CountingStorage(0, dies=dies))
        protocol.effects = []
        host, clock, transport = build(protocol)

        def interpret(effects, probe=None):
            raise AssertionError(f"executor entered with {effects!r}")

        host.executor.execute = interpret
        return host, clock, transport

    def steps(self):
        """(name, fail-stop context, how to drive it) for every empty step
        the hot path takes."""
        def notification(host, clock):
            host.incoming(LogProgressNotification(1, None))
            host.incoming(LogProgressNotification(2, None))
            clock.run_due()

        return [
            ("on_log_notifications", "notification", notification),
            ("flush", "flush", lambda host, clock: host.flush()),
            ("on_receive", "incoming",
             lambda host, clock: host.incoming(make_msg(1, 0, n=N))),
        ]

    def test_barrier_runs_exactly_once_and_nothing_is_interpreted(self):
        for handler, _context, drive in self.steps():
            host, clock, transport = self.quiet()
            drive(host, clock)
            assert handlers(host) == [handler]
            assert host.protocol.storage.barriers == 1, handler
            assert transport.sent == [] and not host.down

    def test_a_step_with_effects_still_goes_through_the_executor(self):
        host, _clock, _transport = self.quiet()
        host.protocol.effects = StubProtocol.effects
        with pytest.raises(AssertionError, match="executor entered"):
            host.flush()

    def test_dead_journal_at_that_barrier_is_a_clean_fail_stop(self):
        for _handler, context, drive in self.steps():
            host, clock, transport = self.quiet(dies=True)
            drive(host, clock)
            assert host.protocol.storage.barriers == 1
            assert host.down and host.storage_deaths == 1
            assert host.protocol.failed
            assert len(host.crash_times) == 1
            (record,) = host.env.tracer.select("storage.dead")
            assert record.data["context"] == context
            assert len(clock.timers) == 1    # the restart


class TestFailStop:
    """The device dies at the barrier: the step's effects never run and the
    process degrades to a crash the normal Restart path handles."""

    def dying(self):
        host, clock, transport = build(StubProtocol(DyingStorage(0)))
        return host, clock, transport

    def assert_fail_stopped(self, host, transport, context):
        assert host.down and host.storage_deaths == 1
        assert host.protocol.failed
        assert not [s for s in transport.sent if s[0] == "bcast"]
        (record,) = host.env.tracer.select("storage.dead")
        assert record.data["context"] == context

    def test_incoming(self):
        host, _clock, transport = self.dying()
        host.incoming(make_msg(1, 0, n=N))
        self.assert_fail_stopped(host, transport, "incoming")

    def test_notification_drain(self):
        host, clock, transport = self.dying()
        host.incoming(LogProgressNotification(1, None))
        clock.run_due()
        self.assert_fail_stopped(host, transport, "notification")

    def test_flush(self):
        host, _clock, transport = self.dying()
        host.flush()
        self.assert_fail_stopped(host, transport, "flush")

    def test_checkpoint(self):
        host, _clock, transport = self.dying()
        host.checkpoint()
        self.assert_fail_stopped(host, transport, "checkpoint")

    def test_restart(self):
        host, clock, transport = build(restart_delay=10.0)
        host.crash()
        host.executor.storage = DyingStorage(0)
        clock.advance(10.0)
        # Restart's own writes died: down again, and a retry is scheduled.
        self.assert_fail_stopped(host, transport, "restart")
        assert len(host.crash_times) == 2 and len(clock.timers) == 1

    def test_a_journal_that_cannot_be_revived_keeps_the_process_down(self):
        host, clock, _transport = build(restart_delay=10.0)
        host.crash()

        def dead_restart():
            raise StorageDeadError("still gone")

        host.protocol.restart = dead_restart
        clock.advance(10.0)
        assert host.down and host.storage_deaths == 1
        assert len(clock.timers) == 1    # the next attempt
