"""Harness-level behaviour of the unreliable-network stack, plus the
settle-horizon fix: failure events scheduled beyond the run's duration
must not fire during settle()."""

from repro.failures.injector import (
    CrashEvent,
    FailureSchedule,
    HealEvent,
    LossEvent,
    PartitionEvent,
)
from repro.net.reliable import ReliableConfig
from repro.runtime.config import SimConfig
from repro.runtime.harness import SimulationHarness
from repro.workloads.random_peers import RandomPeersWorkload
from helpers import log_notification


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
        assert [pid for _, pid in harness.crash_events] == [1]
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
        assert harness.network.reliable is None
        assert not harness.ack_enabled
        assert harness.config.retransmit_timeout == 0.0

    def test_fault_rates_enable_stack(self):
        config = SimConfig(n=4, seed=0, drop_rate=0.05, trace_enabled=False)
        harness = build(config)
        assert harness.network.faults is not None
        assert harness.network.reliable is not None
        assert harness.ack_enabled
        # The app retransmission timer is defaulted on.
        assert harness.config.retransmit_timeout == ReliableConfig().rto

    def test_schedule_network_events_enable_stack(self):
        config = SimConfig(n=4, seed=0, trace_enabled=False)
        schedule = FailureSchedule([PartitionEvent(50.0, ((1,),)),
                                    HealEvent(80.0)])
        harness = build(config, schedule)
        assert harness.network.faults is not None
        assert harness.ack_enabled

    def test_ack_layer_forced_off(self):
        config = SimConfig(n=4, seed=0, drop_rate=0.05, ack_layer=False,
                           trace_enabled=False)
        harness = build(config)
        assert harness.network.faults is not None
        assert harness.network.reliable is None
        assert harness.config.retransmit_timeout == 0.0


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
    """A crashed process must not transmit: its pending reliable-control
    envelopes are parked on crash and resumed (not dropped) on restart."""

    def _build(self):
        from repro.app.behavior import EchoBehavior

        config = SimConfig(n=3, seed=7, ack_layer=True)
        harness = SimulationHarness(config, EchoBehavior())
        notif = log_notification(1, [{} for _ in range(3)])
        # A reliable control send from P1 whose destination dies before the
        # envelope arrives: no ack will ever come back.
        harness.network.send_control(1, 2, notif, reliable=True)
        harness.engine.schedule(0.2, harness.hosts[2].crash)
        harness.engine.schedule(0.5, harness.hosts[1].crash)
        return harness

    def test_no_transmission_while_source_is_down(self):
        harness = self._build()
        rtx = harness.network.reliable
        # Run past two rto periods (4.0, 8.0) but short of the restarts at
        # ~10.x: a dead source must stay silent the whole time.
        harness.run(9.0, settle=False)
        assert rtx.retransmits == 0
        assert rtx.outstanding == 1  # parked, not dropped

    def test_envelope_resumes_and_is_acked_after_restart(self):
        harness = self._build()
        rtx = harness.network.reliable
        harness.run(40.0, settle=False)
        harness.engine.run()
        assert rtx.outstanding == 0
        assert rtx.acked >= 1
        assert harness.metrics().violations == []
