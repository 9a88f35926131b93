"""Property-based end-to-end runs: hypothesis chooses the topology, the
degree of optimism, and the crash schedule; the oracle must stay silent.

This is the strongest correctness net in the suite: arbitrary (small)
configurations with arbitrary multi-crash schedules, checked for Theorem 4
on every release and global consistency at quiescence.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.failures.injector import CrashEvent, FailureSchedule
from repro.workloads.random_peers import RandomPeersWorkload

from helpers import build_sim

DURATION = 220.0

configs = st.fixed_dictionaries({
    "n": st.integers(2, 5),
    "seed": st.integers(0, 50),
    "k": st.one_of(st.none(), st.integers(0, 5)),
    "crashes": st.lists(
        st.tuples(st.floats(30.0, 170.0), st.integers(0, 4)),
        max_size=3,
    ),
    "flush_interval": st.sampled_from([15.0, 40.0]),
    "notify_interval": st.sampled_from([10.0, 30.0]),
})


def run_config(params):
    n = params["n"]
    crashes = [CrashEvent(t, pid % n) for t, pid in params["crashes"]]
    harness = build_sim(
        n=n,
        k=min(params["k"], n) if params["k"] is not None else None,
        seed=params["seed"],
        failures=FailureSchedule(crashes),
        workload=RandomPeersWorkload(rate=0.4, min_hops=2, max_hops=4),
        until=DURATION * 0.8,
        flush_interval=params["flush_interval"],
        notify_interval=params["notify_interval"],
        trace_enabled=False,
    )
    harness.run(DURATION)
    return harness


class TestRandomDeployments:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.filter_too_much])
    @given(configs)
    def test_invariants_hold(self, params):
        harness = run_config(params)
        metrics = harness.metrics()
        assert metrics.violations == [], params
        # Everyone is back up and working after the storm.
        assert not any(host.down for host in harness.hosts)
        # Dedup worked: each delivered message id was delivered at most
        # once per live incarnation chain (the oracle's chains contain no
        # rolled-back nodes).
        assert harness.certifier.oracle.check_consistency() == []

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(0, 30))
    def test_determinism_across_identical_runs(self, seed):
        params = {
            "n": 4, "seed": seed, "k": 2,
            "crashes": [(90.0, 1)],
            "flush_interval": 40.0, "notify_interval": 10.0,
        }
        a = run_config(params).metrics().as_row()
        b = run_config(params).metrics().as_row()
        assert a == b
