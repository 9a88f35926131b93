"""Reliable broadcast of failure announcements over the simulated network.

Theorem 1's orphan detection needs every announcement to reach every
process.  The announcing process keeps one pending copy per destination
in the same ack/retransmit timers as its released messages
(``KOptimisticProcess.on_retransmit_timer``); these tests drive that end
to end through a harness.  A partition isolating P2 drops every copy sent
to it without touching an rng stream, so the schedules here are exact:
P1 crashes at 5 and announces at its restart at 15, copies take 1 time
unit each way, and the first retry waits 4.
"""

import pytest

from repro.app.behavior import EchoBehavior
from repro.failures.injector import (
    CrashEvent,
    FailureSchedule,
    HealEvent,
    PartitionEvent,
)
from repro.net.message import Ack, FailureAnnouncement
from repro.runtime.config import SimConfig
from repro.runtime.harness import SimulationHarness


def build(*events, n=3, budget=8, **config):
    """A quiet n-process run over ``events``; also returns the log of
    every control send as ``(time, src, dst, payload)``."""
    harness = SimulationHarness(
        SimConfig(n=n, seed=7, retransmit_timeout=4.0,
                  retransmit_budget=budget, **config),
        EchoBehavior(), failures=FailureSchedule(list(events)))
    network, sent = harness.network, []
    multicast = network.multicast_control

    def record(src, dsts, payload):
        sent.extend((harness.engine.now, src, dst, payload) for dst in dsts)
        multicast(src, dsts, payload)

    network.multicast_control = record
    return harness, sent


def announcements(sent, src, dst=None):
    """When ``src`` sent an announcement (to ``dst``), and which."""
    return [(t, p) for t, s, d, p in sent
            if s == src and isinstance(p, FailureAnnouncement)
            and dst in (None, d)]


def stats(harness, pid=1):
    return harness.hosts[pid].protocol.stats


ISOLATE_P2 = (PartitionEvent(10.0, ((2,),)), HealEvent(40.0))


class TestConfig:
    def test_validate_rejects_bad_timing(self):
        with pytest.raises(ValueError):
            SimConfig(retransmit_timeout=-1.0).validate()
        for budget in (0, -1):
            with pytest.raises(ValueError, match="retransmit_budget"):
                SimConfig(retransmit_budget=budget).validate()


class TestRetransmission:
    def test_ack_stops_retries(self):
        harness, sent = build(CrashEvent(5.0, 1))
        harness.run(100.0)
        assert [(t, d) for t, s, d, p in sent if s == 1
                and isinstance(p, FailureAnnouncement)] == [(15.0, 0),
                                                           (15.0, 2)]
        assert stats(harness).ctl_acked == 2
        assert stats(harness).ctl_retransmits == 0
        assert harness.hosts[1].protocol.unacked_count == 0

    def test_duplicate_ack_ignored(self):
        harness, sent = build(CrashEvent(5.0, 1), duplicate_rate=1.0)
        harness.run(100.0)
        acks = [p for _t, s, d, p in sent if d == 1 and isinstance(p, Ack)
                and isinstance(p.of, FailureAnnouncement)]
        # Every copy arrives twice and is acked twice; each counts once.
        assert len(acks) == 4
        assert stats(harness).ctl_acked == 2
        for pid in (0, 2):
            assert len(harness.hosts[pid].protocol.storage.announcements) == 1

    def test_lost_transmissions_are_retried_with_backoff(self):
        harness, sent = build(CrashEvent(5.0, 1), *ISOLATE_P2)
        harness.run(100.0)
        # Copies at 15, 19 and 27 fall into the partition; the one at 43,
        # after the heal, gets through.
        assert [t for t, _ in announcements(sent, 1, dst=2)] == [
            15.0, 19.0, 27.0, 43.0]
        assert [r.time for r in harness.tracer.select("ann.receive")
                if r.process == 2] == [44.0]
        assert stats(harness).ctl_retransmits == 3
        assert stats(harness).ctl_acked == 2

    def test_budget_exhaustion_gives_up_and_counts(self):
        harness, sent = build(CrashEvent(5.0, 1),
                              PartitionEvent(10.0, ((2,),)), budget=2)
        harness.run(100.0, settle=False)
        assert [t for t, _ in announcements(sent, 1, dst=2)] == [
            15.0, 19.0, 27.0]
        assert stats(harness).ctl_budget_exhausted == 1
        assert harness.metrics().ctl_budget_exhausted == 1
        assert harness.hosts[1].protocol.unacked_count == 0

    def test_mean_ack_rtt(self):
        harness, _sent = build(CrashEvent(5.0, 1), *ISOLATE_P2)
        harness.run(100.0)
        # P0 acks the first copy at 17; P2 the fourth at 45: RTTs from
        # the first send, 2 and 30.
        assert harness.metrics().mean_ack_rtt == 16.0


class TestTimerCancellation:
    def test_budget_exhaustion_leaves_no_live_timer(self):
        harness, sent = build(CrashEvent(5.0, 1),
                              PartitionEvent(10.0, ((2,),)), budget=2)
        harness.run(100.0, settle=False)
        copies = len(announcements(sent, 1))
        harness.run(2000.0, settle=False)
        assert len(announcements(sent, 1)) == copies
        assert stats(harness).ctl_budget_exhausted == 1

    def test_many_acked_sends_leave_pending_at_zero(self):
        harness, sent = build(
            *(CrashEvent(t, pid) for t, pid in
              [(5.0, 1), (30.0, 0), (55.0, 2), (80.0, 1)]), n=4)
        harness.run(200.0)
        assert all(host.protocol.unacked_count == 0
                   for host in harness.hosts)
        assert harness.metrics().ctl_acked == len(announcements(sent, 0)) \
            + len(announcements(sent, 1)) + len(announcements(sent, 2))
        assert harness.metrics().ctl_retransmits == 0


class TestParkResume:
    """A crashed source sends nothing; its restart re-broadcasts."""

    def test_parked_source_does_not_transmit(self):
        harness, sent = build(CrashEvent(5.0, 1), *ISOLATE_P2,
                              CrashEvent(20.0, 1))
        harness.run(29.0, settle=False)  # P1 is down from 20 to 30
        assert [t for t, _ in announcements(sent, 1)] == [15.0, 15.0, 19.0]
        assert stats(harness).ctl_retransmits == 1

    def test_resume_retransmits_and_restarts_the_cycle(self):
        harness, sent = build(CrashEvent(5.0, 1), *ISOLATE_P2,
                              CrashEvent(20.0, 1))
        harness.run(100.0)
        first, second = harness.hosts[1].protocol.storage.announcements
        # Restart at 30 sends both announcements everywhere, each copy on
        # a fresh 4, 8, ... cycle; P2's come through after the heal.
        to_p2 = announcements(sent, 1, dst=2)
        assert [t for t, a in to_p2 if a == first] == [15.0, 19.0, 30.0,
                                                      34.0, 42.0]
        assert [t for t, a in to_p2 if a == second] == [30.0, 34.0, 42.0]
        assert harness.hosts[2].protocol.storage.announcements == (
            first, second)
        assert harness.hosts[1].protocol.unacked_count == 0

    def test_park_is_per_source(self):
        harness, sent = build(CrashEvent(5.0, 1), CrashEvent(6.0, 0),
                              *ISOLATE_P2, CrashEvent(19.5, 0))
        harness.run(29.0, settle=False)  # P0 is down from 19.5 to 29.5
        # P0 went silent; P1's copies to P2 kept their cycle.
        assert [t for t, _ in announcements(sent, 0, dst=2)] == [16.0]
        assert [t for t, _ in announcements(sent, 1, dst=2)] == [
            15.0, 19.0, 27.0]

    def test_ack_racing_the_crash_counts_as_lost(self):
        harness, sent = build(CrashEvent(5.0, 1), CrashEvent(16.5, 1))
        harness.run(100.0)
        ann = harness.hosts[1].protocol.storage.announcements[0]
        # The acks of the copies sent at 15 reach P1 at 17, while it is
        # down: they are lost with its pending entries ...
        lost = [r for r in harness.tracer.select("net.lost")
                if r.process == 1 and r.time == 17.0]
        assert len(lost) == 2
        # ... and its restart at 26.5 sends the announcement again, to be
        # acked this time.
        assert [(t, d) for t, s, d, p in sent if s == 1 and p == ann] == [
            (15.0, 0), (15.0, 2), (26.5, 0), (26.5, 2)]
        assert harness.hosts[1].protocol.unacked_count == 0
        assert harness.metrics().violations == []
