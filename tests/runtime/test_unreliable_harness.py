"""Harness-level behaviour of the unreliable-network stack, plus the
settle-horizon fix: failure events scheduled beyond the run's duration
must not fire during settle()."""

import pytest

from repro.failures.injector import (
    CrashEvent,
    FailureSchedule,
    HealEvent,
    LossEvent,
    PartitionEvent,
)
from repro.runtime.config import RETRANSMIT_TIMEOUT, SimConfig
from repro.runtime.harness import SimulationHarness
from repro.workloads.random_peers import RandomPeersWorkload


def build(config, schedule=None, rate=0.5, until=150.0):
    workload = RandomPeersWorkload(rate=rate, min_hops=2, max_hops=5)
    harness = SimulationHarness(config, workload.behavior(),
                                failures=schedule)
    workload.install(harness, until=until)
    return harness


class TestSettleHorizon:
    def test_crash_beyond_horizon_never_fires(self):
        config = SimConfig(n=4, seed=1, trace_enabled=False)
        schedule = FailureSchedule([CrashEvent(100.0, 1),
                                    CrashEvent(500.0, 2)])
        harness = build(config, schedule, until=150.0)
        harness.run(200.0)
        # The in-horizon crash fired; the beyond-horizon one was cancelled
        # instead of firing mid-settle.
        assert [host.pid for host in harness.hosts
                for _ in host.crash_times] == [1]
        assert harness.metrics().crashes == 1
        assert not any(host.down for host in harness.hosts)

    def test_network_events_beyond_horizon_cancelled_too(self):
        config = SimConfig(n=4, seed=1, trace_enabled=False)
        schedule = FailureSchedule([PartitionEvent(500.0, ((1,),))])
        harness = build(config, schedule, until=150.0)
        harness.run(200.0)
        assert harness.network.faults is not None
        assert not harness.network.faults.partition_active
        assert harness.metrics().partitions == 0

    def test_violation_free_with_boundary_crash(self):
        # A crash just inside the horizon still works end to end.
        config = SimConfig(n=4, seed=3, trace_enabled=False)
        schedule = FailureSchedule([CrashEvent(199.0, 0)])
        harness = build(config, schedule, until=150.0)
        harness.run(200.0)
        assert harness.metrics().violations == []


class TestFaultResolution:
    def test_reliable_config_is_legacy_path(self):
        harness = build(SimConfig(n=4, seed=0, trace_enabled=False))
        assert harness.network.faults is None
        assert harness.config.retransmit_timeout == 0.0
        assert not any(host.protocol.retransmit.timeout > 0
                       for host in harness.hosts)

    def test_fault_rates_enable_stack(self):
        config = SimConfig(n=4, seed=0, drop_rate=0.05, trace_enabled=False)
        harness = build(config)
        assert harness.network.faults is not None
        # Acks and the retransmission timer are defaulted on.
        assert harness.config.retransmit_timeout == RETRANSMIT_TIMEOUT
        assert all(host.protocol.retransmit.timeout > 0
                   for host in harness.hosts)

    def test_schedule_network_events_enable_stack(self):
        config = SimConfig(n=4, seed=0, trace_enabled=False)
        schedule = FailureSchedule([PartitionEvent(50.0, ((1,),)),
                                    HealEvent(80.0)])
        harness = build(config, schedule)
        assert harness.network.faults is not None
        assert all(host.protocol.retransmit.timeout > 0
                   for host in harness.hosts)

    def test_a_timeout_on_a_reliable_network_turns_acks_on(self):
        # One switch: a retransmission timeout without acks would resend
        # every release until its budget ran out.
        config = SimConfig(n=5, k=2, seed=7, retransmit_timeout=5.0,
                           trace_enabled=False)
        workload = RandomPeersWorkload(rate=0.6, output_fraction=0.25)
        harness = SimulationHarness(config, workload.behavior())
        workload.install(harness, until=160.0)
        harness.run(200.0)
        m = harness.metrics()
        assert harness.network.faults is None
        assert m.messages_released > 0
        assert m.timer_retransmissions == 0
        assert m.retransmit_budget_exhausted == 0
        assert m.acks_received == m.messages_released
        assert m.violations == []

    def test_no_run_goes_without_retries(self):
        # A budget of 0 would leave a lossy network's announcements to
        # chance — the unsafe runs the retries exist to prevent.
        config = SimConfig(n=4, seed=0, drop_rate=0.05, retransmit_budget=0)
        with pytest.raises(ValueError, match="retransmit_budget"):
            build(config)


class TestUnreliableRuns:
    def test_lossy_run_is_violation_free_and_complete(self):
        config = SimConfig(n=4, k=2, seed=11, drop_rate=0.05,
                           duplicate_rate=0.02, reorder_rate=0.05,
                           trace_enabled=False)
        harness = build(config, until=150.0)
        harness.run(200.0)
        m = harness.metrics()
        assert m.violations == []
        assert m.app_drops > 0
        assert m.timer_retransmissions > 0
        assert m.acks_received > 0
        assert m.retransmit_budget_exhausted == 0
        assert m.outputs_pending == 0

    def test_channel_duplicates_suppressed_with_oracle_consistency(self):
        config = SimConfig(n=4, k=2, seed=5, duplicate_rate=0.2,
                           trace_enabled=False)
        schedule = FailureSchedule([CrashEvent(100.0, 1)])
        harness = build(config, schedule, until=150.0)
        harness.run(200.0)
        m = harness.metrics()
        assert m.duplicates_injected > 0
        assert m.duplicates_dropped > 0
        assert m.violations == []

    def test_partition_isolates_then_heals(self):
        config = SimConfig(n=4, k=2, seed=2, trace_enabled=False)
        schedule = FailureSchedule([PartitionEvent(60.0, ((3,),)),
                                    HealEvent(120.0)])
        harness = build(config, schedule, until=150.0)
        harness.run(200.0)
        m = harness.metrics()
        assert m.partitions == 1
        assert m.partition_time == 60.0
        assert m.partition_drops > 0
        assert m.violations == []
        assert m.outputs_pending == 0

    def test_unhealed_partition_closed_by_settle(self):
        config = SimConfig(n=4, k=2, seed=2, trace_enabled=False)
        schedule = FailureSchedule([PartitionEvent(100.0, ((3,),))])
        harness = build(config, schedule, until=150.0)
        harness.run(200.0)
        assert not harness.network.faults.partition_active
        m = harness.metrics()
        assert m.partition_time >= 100.0
        assert m.violations == []

    def test_loss_event_changes_rates_mid_run(self):
        config = SimConfig(n=4, k=2, seed=9, trace_enabled=False)
        schedule = FailureSchedule([LossEvent(100.0, drop=0.3)])
        harness = build(config, schedule, until=150.0)
        harness.run(200.0)
        m = harness.metrics()
        assert m.app_drops + m.control_drops > 0
        assert harness.network.faults.default.drop == 0.3
        assert m.violations == []

    def test_same_seed_same_trace(self):
        def run_once():
            config = SimConfig(n=4, k=2, seed=13, drop_rate=0.05,
                               duplicate_rate=0.02, reorder_rate=0.05)
            schedule = FailureSchedule([CrashEvent(80.0, 1),
                                        PartitionEvent(120.0, ((3,),)),
                                        HealEvent(150.0)])
            harness = build(config, schedule, until=150.0)
            harness.run(200.0)
            return harness

        first, second = run_once(), run_once()
        assert first.tracer.events == second.tracer.events
        assert first.metrics().violations == []


class TestFailStopControlRetransmission:
    """A crashed process must not transmit: the copies of its announcement
    still awaiting an ack die with it, and its restart sends every
    announcement of its own again."""

    def _build(self):
        from repro.app.behavior import EchoBehavior

        config = SimConfig(n=3, seed=7, retransmit_timeout=4.0)
        # P1's announcement at its restart at 15 reaches P2 while P2 is
        # down (14 to 24), so no ack comes back before P1 dies again at 18.
        schedule = FailureSchedule([CrashEvent(5.0, 1), CrashEvent(14.0, 2),
                                    CrashEvent(18.0, 1)])
        return SimulationHarness(config, EchoBehavior(), failures=schedule)

    def test_no_transmission_while_source_is_down(self):
        harness = self._build()
        source = harness.hosts[1].protocol
        # Past when P1 would first retry (19), short of its restart at 28: a
        # dead source must stay silent the whole time.
        harness.run(27.0, settle=False)
        assert source.stats.ctl_retransmits == 0
        assert source.unacked_count == 0

    def test_restart_rebroadcasts_and_is_acked(self):
        harness = self._build()
        harness.run(60.0)
        first, second = [ann for ann
                         in harness.hosts[1].protocol.storage.announcements
                         if ann.origin == 1]
        # P2 handles the first copy that reaches it once, whichever that
        # was, and skips the rest.
        logged = [ann for ann
                  in harness.hosts[2].protocol.storage.announcements
                  if ann.origin == 1]
        assert logged == [first, second]
        assert harness.hosts[1].protocol.unacked_count == 0
        assert harness.metrics().violations == []
