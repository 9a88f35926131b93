"""The paper's qualitative claims, measured (E3/E4/E5/E6 shapes).

We assert the *shape* of each tradeoff, not absolute numbers: who wins,
which direction a curve moves as K grows, and where the extremes land.
"""

import pytest

from repro.core.baselines import (
    FullyAsyncProcess,
    PessimisticProcess,
    StromYeminiProcess,
)
from repro.core.protocol import KOptimisticProcess
from repro.failures.injector import FailureSchedule
from repro.runtime.config import SimConfig
from repro.runtime.harness import SimulationHarness
from repro.workloads.random_peers import RandomPeersWorkload

N = 6
DURATION = 800.0


def run(k=None, protocol=KOptimisticProcess, failures=None, seed=42,
        fifo=False, n=N):
    config = SimConfig(n=n, k=k, seed=seed, fifo=fifo, trace_enabled=False)
    workload = RandomPeersWorkload(rate=0.6, min_hops=3, max_hops=8)
    harness = SimulationHarness(config, workload.behavior(),
                                failures=failures, protocol=protocol)
    workload.install(harness, until=DURATION * 0.8)
    harness.run(DURATION)
    return harness.metrics()


@pytest.fixture(scope="module")
def sweep():
    """One failure-free run per K (same seed => identical workload)."""
    return {k: run(k=k) for k in (0, 1, 2, 4, N)}


@pytest.fixture(scope="module")
def crash_sweep():
    """One run per K with a mid-run crash of process 1."""
    failures = FailureSchedule.single(DURATION / 2, 1)
    return {k: run(k=k, failures=failures) for k in (0, 1, 2, 4, N)}


class TestFailureFreeOverheadVsK:
    """E3: overhead falls as the degree of optimism rises."""

    def test_hold_time_decreases_with_k(self, sweep):
        holds = [sweep[k].mean_send_hold for k in (0, 1, 2, 4, N)]
        assert all(a >= b for a, b in zip(holds, holds[1:])), holds

    def test_kn_has_zero_hold(self, sweep):
        assert sweep[N].mean_send_hold == 0.0

    def test_k0_has_the_largest_hold(self, sweep):
        assert sweep[0].mean_send_hold > sweep[N].mean_send_hold
        assert sweep[0].mean_send_hold > 0.0

    def test_piggyback_size_grows_with_k(self, sweep):
        sizes = [sweep[k].mean_piggyback_entries for k in (0, 2, N)]
        assert sizes[0] <= sizes[1] <= sizes[2]
        assert sweep[0].mean_piggyback_entries == 0.0

    def test_piggyback_bounded_by_k(self, sweep):
        # Theorem 4's mechanism, verified at both the mean and the max: no
        # message ever leaves with more than K non-NULL entries.
        for k in (0, 1, 2, 4):
            assert sweep[k].max_piggyback_entries <= k
            assert sweep[k].mean_piggyback_entries <= k + 1e-9


class TestRecoveryCostVsK:
    """E4: rollback scope grows with the degree of optimism."""

    def test_k0_recovery_is_localized(self, crash_sweep):
        assert crash_sweep[0].processes_rolled_back == 0
        assert crash_sweep[0].intervals_undone == 0

    def test_kn_recovery_is_widest(self, crash_sweep):
        assert (crash_sweep[N].processes_rolled_back
                >= crash_sweep[0].processes_rolled_back)
        assert crash_sweep[N].intervals_undone >= crash_sweep[0].intervals_undone

    def test_rollback_scope_monotone_overall(self, crash_sweep):
        # Monotonicity holds between the extremes and roughly in between;
        # we assert the endpoints plus no-violation everywhere.
        for k, metrics in crash_sweep.items():
            assert metrics.violations == [], f"K={k}"

    def test_revoked_messages_bounded_by_k(self, crash_sweep):
        # Theorem 4 writ large: the oracle found no release with more than
        # K potential revokers in any run (violations list is empty) —
        # asserted per-K above; here: the K=N run actually exercised
        # rollbacks so the bound was not vacuous.
        assert crash_sweep[N].rollbacks > 0


class TestProtocolFamilyComparison:
    """E6: pessimistic vs K-optimistic vs S&Y vs fully-async."""

    @pytest.fixture(scope="class")
    def family(self):
        failures = FailureSchedule.single(DURATION / 2, 1)
        return {
            "pessimistic": run(k=0, protocol=PessimisticProcess,
                               failures=failures),
            "k0": run(k=0, failures=failures),
            "kn": run(k=N, failures=failures),
            "strom_yemini": run(protocol=StromYeminiProcess,
                                failures=failures, fifo=True),
            "fully_async": run(protocol=FullyAsyncProcess, failures=failures),
        }

    def test_pessimistic_pays_sync_writes(self, family):
        # One sync write per delivery dwarfs everyone else's storage traffic.
        assert family["pessimistic"].sync_writes > 3 * family["kn"].sync_writes

    def test_pessimistic_recovery_localized(self, family):
        assert family["pessimistic"].processes_rolled_back == 0

    def test_optimistic_saves_writes_but_rolls_back(self, family):
        assert family["kn"].rollbacks > 0

    def test_commit_dependency_tracking_shrinks_vectors(self, family):
        # E5 headline: the improved protocol's vectors are strictly smaller
        # than Strom & Yemini's (which never nullifies).
        assert (family["kn"].mean_piggyback_entries
                < family["strom_yemini"].mean_piggyback_entries)

    def test_fully_async_vectors_largest(self, family):
        # Multi-incarnation tracking can exceed one entry per process.
        assert (family["fully_async"].mean_piggyback_entries
                > family["strom_yemini"].mean_piggyback_entries * 0.9)

    def test_all_protocols_consistent(self, family):
        for name, metrics in family.items():
            assert metrics.violations == [], name


class TestVectorSizeVsNotificationFrequency:
    """E5: more frequent logging-progress notifications => smaller vectors."""

    def test_notification_period_controls_vector_size(self):
        sizes = {}
        for period in (5.0, 40.0, 200.0):
            config = SimConfig(n=N, k=None, seed=42, notify_interval=period,
                               trace_enabled=False)
            workload = RandomPeersWorkload(rate=0.6, min_hops=3, max_hops=8)
            harness = SimulationHarness(config, workload.behavior())
            workload.install(harness, until=DURATION * 0.8)
            harness.run(DURATION)
            sizes[period] = harness.metrics().mean_piggyback_entries
        assert sizes[5.0] < sizes[40.0] < sizes[200.0], sizes
