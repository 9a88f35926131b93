"""Runtime harness tests: wiring, timers, failure handling, invariants."""

import pytest

from repro.failures.injector import (
    CrashEvent,
    FailureSchedule,
    StorageFaultEvent,
)

from helpers import build_sim as build


class TestFailureFreeRuns:
    def test_traffic_flows(self):
        harness = build()
        harness.run(300.0)
        metrics = harness.metrics()
        assert metrics.messages_delivered > 50
        assert metrics.messages_released > 0
        assert metrics.crashes == 0
        assert not metrics.violations

    def test_send_buffer_drains_at_settle(self):
        harness = build(k=0)
        harness.run(300.0)
        for host in harness.hosts:
            assert not host.protocol.send_buffer
        assert not harness.metrics().violations

    def test_outputs_commit(self):
        harness = build()
        harness.run(300.0)
        assert harness.metrics().outputs_committed > 0

    def test_oracle_consistent_without_failures(self):
        harness = build()
        harness.run(300.0)
        assert harness.certifier.oracle.check_consistency() == []
        assert harness.certifier.oracle.rolled_back_intervals == 0


class TestCrashHandling:
    def test_crash_and_restart(self):
        harness = build(failures=FailureSchedule.single(100.0, 1))
        harness.run(300.0)
        metrics = harness.metrics()
        assert metrics.crashes == 1
        assert not metrics.violations
        assert not harness.hosts[1].down

    def test_app_messages_to_down_process_are_lost(self):
        harness = build(failures=FailureSchedule.single(100.0, 1),
                        restart_delay=50.0, rate=2.0)
        harness.run(300.0)
        assert harness.metrics().app_messages_lost > 0

    def test_control_messages_queued_across_downtime(self):
        # Two crashes close together: the announcement of the first must
        # reach the second process even though it was down when broadcast.
        harness = build(
            n=4,
            failures=FailureSchedule([CrashEvent(100.0, 1), CrashEvent(100.5, 2)]),
            restart_delay=30.0,
        )
        harness.run(400.0)
        metrics = harness.metrics()
        assert metrics.crashes == 2
        assert not metrics.violations
        # P2 eventually learned of P1's failure (it is in its iet).
        assert harness.hosts[2].protocol.iet.row_size(1) >= 1

    def test_crash_of_down_process_is_noop(self):
        harness = build(
            failures=FailureSchedule([CrashEvent(100.0, 1), CrashEvent(101.0, 1)]),
            restart_delay=30.0,
        )
        harness.run(300.0)
        assert harness.metrics().crashes == 1

    def test_crash_near_horizon_restarts_during_settle(self):
        harness = build(failures=FailureSchedule.single(295.0, 1),
                        restart_delay=100.0)
        harness.run(300.0)
        assert not harness.hosts[1].down
        assert not harness.metrics().violations

    def test_repeated_crashes_of_same_process(self):
        schedule = FailureSchedule([CrashEvent(t, 0) for t in (50.0, 120.0, 190.0)])
        harness = build(failures=schedule)
        harness.run(400.0)
        metrics = harness.metrics()
        assert metrics.crashes == 3
        assert not metrics.violations
        assert harness.hosts[0].protocol.current.inc >= 3

    @pytest.mark.parametrize("event", [
        CrashEvent(100.0, 4), CrashEvent(100.0, -1),
        StorageFaultEvent(100.0, 99, "eio"),
    ], ids=["crash-above", "crash-negative", "storage-fault"])
    def test_event_for_a_pid_outside_the_system_is_rejected(self, event):
        # Skipped as "hosted elsewhere", it would leave a failure-free run
        # certified as if it had survived the fault.
        with pytest.raises(ValueError, match="outside range"):
            build(n=4, failures=FailureSchedule([event]))


class TestInvariantChecks:
    def test_theorem4_checked_on_every_release(self):
        # With invariants on, a clean run reports no violations across Ks.
        for k in (0, 1, 2, 4):
            harness = build(k=k, failures=FailureSchedule.single(100.0, 0))
            harness.run(300.0)
            assert not harness.metrics().violations, f"K={k}"

    def test_metrics_k_resolution(self):
        harness = build(k=None)
        harness.run(50.0)
        assert harness.metrics().k == 4


class TestDeterminism:
    def test_same_seed_bitwise_identical_metrics(self):
        a = build(seed=11, failures=FailureSchedule.single(100.0, 2))
        a.run(300.0)
        b = build(seed=11, failures=FailureSchedule.single(100.0, 2))
        b.run(300.0)
        assert a.metrics().as_row() == b.metrics().as_row()
        assert a.engine.events_executed == b.engine.events_executed

    def test_different_seed_differs(self):
        a = build(seed=11)
        a.run(300.0)
        b = build(seed=12)
        b.run(300.0)
        assert a.metrics().as_row() != b.metrics().as_row()


class TestTimers:
    def test_checkpoints_happen(self):
        harness = build(checkpoint_interval=50.0)
        harness.run(300.0)
        for host in harness.hosts:
            assert host.protocol.storage.checkpoints_taken >= 2

    def test_flushes_happen(self):
        harness = build(flush_interval=20.0)
        harness.run(300.0)
        assert any(h.protocol.storage.async_writes > 0 for h in harness.hosts)

    def test_notifications_broadcast(self):
        harness = build()
        harness.run(100.0)
        assert harness.network.control_messages_sent > 0


class TestSettle:
    def test_settle_runs_rounds_until_the_system_is_quiescent(self):
        # The golden digest's k0_n16 configuration.  Four flush/notify
        # rounds left P2 and P14 each holding one send whose only
        # dependency was their own surviving interval; two more quiesce it.
        harness = build(n=16, k=0, seed=7, rate=1.5, until=160.0,
                        failures=FailureSchedule([CrashEvent(60.0, 1),
                                                  CrashEvent(130.0, 3)]))
        harness.run(200.0)
        assert harness.quiescent()
        assert harness.violations == []
