"""Metrics-aggregation regressions: recovery-span attribution and
division guards for runs that release or commit nothing."""

from repro.failures.injector import FailureSchedule

from helpers import build_sim as build


class TestRecoverySpanAttribution:
    def test_rollbacks_attach_to_their_own_crash_window(self):
        harness = build(until=None)
        # Two crashes; each is followed by its own rollback wave.  The
        # old aggregation attributed the late rollbacks to *both*
        # crashes, reporting (110 + 10) / 2 = 60 instead of 7.5.
        harness.crash_events = [(100.0, 1), (200.0, 2)]
        harness.hosts[3].rollback_times = [105.0]
        harness.hosts[0].rollback_times = [210.0]
        metrics = harness.metrics()
        assert metrics.mean_recovery_span == ((105.0 - 100.0) + (210.0 - 200.0)) / 2

    def test_crash_with_no_rollbacks_contributes_no_span(self):
        harness = build(until=None)
        harness.crash_events = [(100.0, 1), (200.0, 2)]
        harness.hosts[0].rollback_times = [201.0]
        metrics = harness.metrics()
        assert metrics.mean_recovery_span == 1.0

    def test_single_crash_unchanged(self):
        harness = build(until=None)
        harness.crash_events = [(50.0, 1)]
        harness.hosts[0].rollback_times = [52.0]
        harness.hosts[2].rollback_times = [58.0]
        metrics = harness.metrics()
        assert metrics.mean_recovery_span == 8.0

    def test_two_crash_run_end_to_end(self):
        from repro.failures.injector import CrashEvent

        harness = build(
            n=4, seed=3,
            failures=FailureSchedule([CrashEvent(80.0, 1), CrashEvent(160.0, 2)]),
        )
        harness.run(240.0)
        metrics = harness.metrics()
        assert metrics.crashes == 2
        # Every per-crash span is bounded by that crash's window, so the
        # mean can never exceed the distance from a crash to the end of
        # the settled run.
        assert 0.0 <= metrics.mean_recovery_span <= harness.engine.now - 80.0


class TestMeanGuards:
    def test_mean_send_hold_zero_when_nothing_released(self):
        harness = build(until=None)
        stats = harness.hosts[0].protocol.stats
        stats.send_hold_time_total = 37.5  # raw total with zero releases
        metrics = harness.metrics()
        assert metrics.messages_released == 0
        assert metrics.mean_send_hold == 0.0

    def test_mean_output_latency_zero_when_nothing_committed(self):
        harness = build(until=None)
        stats = harness.hosts[0].protocol.stats
        stats.output_wait_total = 12.0
        metrics = harness.metrics()
        assert metrics.outputs_committed == 0
        assert metrics.mean_output_latency == 0.0

    def test_means_still_divide_when_counts_positive(self):
        harness = build(until=None)
        stats = harness.hosts[0].protocol.stats
        stats.send_hold_time_total = 30.0
        stats.messages_released = 10
        stats.output_wait_total = 8.0
        stats.outputs_committed = 4
        metrics = harness.metrics()
        assert metrics.mean_send_hold == 3.0
        assert metrics.mean_output_latency == 2.0
