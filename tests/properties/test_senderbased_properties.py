"""Property-based tests for sender-based logging on the simulation
harness: Theorem 4 at K = 0 under random crash schedules."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.baselines import SenderBasedProcess
from repro.failures.injector import CrashEvent, FailureSchedule
from repro.runtime.config import SimConfig
from repro.runtime.harness import SimulationHarness
from repro.workloads.random_peers import RandomPeersWorkload

DURATION = 200.0

params = st.fixed_dictionaries({
    "n": st.integers(2, 5),
    "seed": st.integers(0, 40),
    # One failure at a time (the family's premise): crashes at least 10
    # apart, each of any process, with a 3-unit restart delay.
    "crashes": st.lists(st.tuples(st.integers(4, 15), st.integers(0, 4)),
                        max_size=3, unique_by=lambda c: c[0]),
})


def run(p):
    n = p["n"]
    config = SimConfig(n=n, k=0, seed=p["seed"], restart_delay=3.0,
                       trace_enabled=False)
    schedule = FailureSchedule([
        CrashEvent(t * 10.0, pid % n) for t, pid in p["crashes"]
    ])
    workload = RandomPeersWorkload(rate=0.4, min_hops=2, max_hops=4,
                                   output_fraction=0.2)
    harness = SimulationHarness(config, workload.behavior(),
                                failures=schedule,
                                protocol=SenderBasedProcess)
    workload.install(harness, until=DURATION * 0.8)
    harness.run(DURATION)
    return harness


class TestSenderBasedProperties:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.filter_too_much])
    @given(params)
    def test_quiescence_invariants(self, p):
        harness = run(p)
        m = harness.metrics()
        # Theorem 4 at K = 0: nothing leaves with a potential revoker, so
        # no crash reaches beyond the process that failed.
        assert m.violations == [], (p, m.violations[:3])
        assert m.max_release_revokers == 0, p
        assert m.processes_rolled_back == 0 and m.intervals_lost == 0, p
        # Every gate reopens: nothing is held, pending or mid-Restart.
        assert harness.quiescent(), p
        assert m.outputs_pending == 0, p
        # No synchronous write per peer message: writes stem only from
        # inputs, checkpoints and announcements.
        assert m.sync_writes < m.messages_delivered + 10 * p["n"]

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(0, 20))
    def test_determinism(self, seed):
        p = {"n": 4, "seed": seed, "crashes": [(8, 1)]}
        assert run(p).metrics().as_row() == run(p).metrics().as_row()
