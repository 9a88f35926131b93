"""Tests for notification dissemination modes: broadcast pushes to
everyone, fanout pulls from the owners a process is waiting on."""

import random

import pytest

from repro.failures.injector import CrashEvent, FailureSchedule
from repro.net.message import LoggingRequest, LogProgressNotification
from helpers import Scripted, build_sim


def build(fanout=None, gossip=True, n=6, seed=4):
    harness = build_sim(n=n, k=2, seed=seed, until=250.0,
                        notify_fanout=fanout, gossip_log_tables=gossip,
                        trace_enabled=False)
    harness.run(350.0)
    return harness


class TestNotifyFanout:
    def test_fanout_reduces_control_traffic(self):
        broadcast = build(fanout=None)
        fanout1 = build(fanout=1)
        assert (fanout1.network.control_messages_sent
                < broadcast.network.control_messages_sent)

    def test_fanout_run_stays_consistent(self):
        harness = build(fanout=1)
        assert harness.metrics().violations == []

    def test_fanout_larger_than_peers_is_clamped(self):
        harness = build(fanout=99)
        assert harness.metrics().violations == []

    def test_gossip_beats_own_row_under_fanout(self):
        gossip = build(fanout=1, gossip=True)
        own_row = build(fanout=1, gossip=False)
        # Transitive spreading releases held messages sooner.
        assert (gossip.metrics().mean_send_hold
                <= own_row.metrics().mean_send_hold)

    def test_broadcast_modes_equivalent(self):
        # Under broadcast, own-row and full-table notifications give every
        # process the same (one-hop) information.
        full = build(fanout=None, gossip=True)
        own = build(fanout=None, gossip=False)
        assert (full.metrics().mean_send_hold == own.metrics().mean_send_hold)


def stuck(harness):
    """(pending outputs, held sends) left in the buffers after settle."""
    return (sum(len(host.protocol.output_buffer) for host in harness.hosts),
            sum(len(host.protocol.send_buffer) for host in harness.hosts))


def neighbour(seed):
    """One seeded config around the pinned regression below: n in
    {8, 12, 16} x fanout in {1, 2, 4} x 0/2/4 crashes in [30, 260] x a
    clean or a lossy network."""
    rng = random.Random(seed)
    n = rng.choice([8, 12, 16])
    fanout = rng.choice([1, 2, 4])
    crashes = [CrashEvent(round(rng.uniform(30.0, 260.0), 3), rng.randrange(n))
               for _ in range(rng.choice([0, 2, 4]))]
    faults = (dict(drop_rate=0.05, duplicate_rate=0.02, reorder_rate=0.05)
              if rng.random() < 0.5 else {})
    return dict(n=n, k=4, seed=seed, notify_fanout=fanout,
                retransmit_window=16, rate=0.6, until=280.0,
                failures=FailureSchedule(crashes), trace_enabled=False,
                **faults)


class TestFanoutPullReachesWhoeverWaits:
    def test_crashed_owners_rows_reach_the_processes_that_need_them(self):
        # With the random-peer push this run ended with 16 outputs still
        # pending after settle: four rounds of one random peer each did
        # not carry the restarted processes' rows to the processes whose
        # outputs waited on them.  Asking the owner does.
        harness = build_sim(
            n=16, k=4, seed=5, notify_fanout=1, retransmit_window=16,
            rate=0.6, until=280.0, trace_enabled=False,
            failures=FailureSchedule([CrashEvent(200.611, 0),
                                      CrashEvent(223.28, 7)]))
        harness.run(400.0)
        assert harness.metrics().violations == []
        assert stuck(harness) == (0, 0)

    @pytest.mark.parametrize("seed", range(12))
    def test_seeded_neighbours_end_clean_and_empty(self, seed):
        harness = build_sim(**neighbour(seed))
        harness.run(400.0)
        metrics = harness.metrics()
        assert metrics.violations == []
        assert metrics.outputs_committed > 0
        assert stuck(harness) == (0, 0)


class ScriptedWorkload:
    """No scheduled traffic: the test injects by hand."""

    def behavior(self):
        return Scripted()


class TestAskAndAnswerOnTheWire:
    def build(self, **config):
        harness = build_sim(n=3, k=3, seed=1, until=None,
                            workload=ScriptedWorkload(), notify_fanout=1,
                            restart_delay=12.0, **config)
        arrivals = {pid: [] for pid in range(3)}
        for pid, hook in enumerate(list(harness.network._hooks)):
            harness.network.register(
                pid, lambda payload, pid=pid, hook=hook: (
                    arrivals[pid].append(payload), hook(payload)))
        return harness, arrivals

    def test_only_the_process_that_waits_asks_and_only_it_is_answered(self):
        harness, arrivals = self.build()
        harness.inject_now(1, {"sends": [(0, None)]})
        harness.engine.run()
        harness.hosts[1].flush()         # stable, but only P1 knows
        assert harness.hosts[0].protocol.awaited_owners() == [1]
        before = harness.network.control_messages_sent
        harness.notify_all()
        harness.engine.run()
        assert harness.network.control_messages_sent == before + 2
        assert arrivals[1][-1] == LoggingRequest(0, flush=False)
        assert isinstance(arrivals[0][-1], LogProgressNotification)
        assert not [p for p in arrivals[2]
                    if isinstance(p, (LoggingRequest, LogProgressNotification))]
        assert harness.hosts[0].protocol.awaited_owners() == []
        harness.notify_all()             # nobody waits: a silent tick
        assert harness.network.control_messages_sent == before + 2

    def test_ask_to_a_down_owner_is_dropped_and_asked_again(self):
        harness, arrivals = self.build()
        asker, owner, engine = harness.hosts[0], harness.hosts[1], harness.engine
        harness.inject_now(1, {"sends": [(0, None)]})
        engine.run()
        owner.flush()
        owner.crash()                    # Restart is due 12 units from now
        crashed_at = engine.now
        for _ in range(2):               # two ticks find the owner down
            asker.notify()
            engine.run(until=engine.now + 2.0)
        lost = [e for e in harness.tracer.select("net.lost", process=1)
                if "log-request" in e.data["msg"]]
        assert len(lost) == 2 and owner.pending_control == []
        assert asker.protocol.awaited_owners() == [1]
        # Restart has run; its announcement is still in flight.
        engine.run(until=crashed_at + 12.0)
        assert not owner.down and asker.protocol.awaited_owners() == [1]
        asker.notify()
        engine.run()
        answers = [p for p in arrivals[0]
                   if isinstance(p, LogProgressNotification)]
        assert [p.origin for p in answers] == [1]
        assert asker.protocol.awaited_owners() == []
        assert harness.metrics().violations == []
