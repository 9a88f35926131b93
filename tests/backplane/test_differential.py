"""Differential test: simulation vs. the live multi-process backplane.

The same deterministic scenario — N=4, K=2, hop-chain application, the
same stimulus list, one crash of the same process — runs through (a) the
discrete-event simulation harness and (b) ``repro serve`` with real OS
processes, SIGKILL, and TCP.  Both must certify clean against the
dependency oracle and commit exactly the same output set: every stimulus
tag, exactly the agreement the shared :class:`EffectExecutor` and the
at-least-once delivery layer are supposed to provide.

The serve half spawns real subprocesses and takes a few seconds of wall
clock; it is the closest thing the suite has to a deployment test.
"""

import pytest

from repro.app.hopchain import HopChainBehavior
from repro.backplane.coordinator import ServePlan, run_serve
from repro.backplane.loadgen import generate_stimuli
from repro.failures.injector import FailureSchedule
from repro.oracle.ingest import certify_tracer
from repro.runtime.config import SimConfig
from repro.runtime.harness import SimulationHarness

N = 4
K = 2
SEED = 7
DURATION = 60.0
RATE = 0.5
CRASH_PID = 1
CRASH_TIME = DURATION * 0.4
RESTART_DELAY = 12.0


def _stimuli():
    # Crash victims are excluded as *entry points* (an injection into a
    # down process would be dropped nondeterministically); they still
    # participate as hop destinations and as the crash subject.
    return generate_stimuli(N, SEED, DURATION, RATE, exclude={CRASH_PID})


def _tags(cert):
    return {payload["tag"] for payload in cert.committed}


@pytest.fixture(scope="module")
def expected_tags():
    return {s["payload"]["tag"] for s in _stimuli()}


@pytest.fixture(scope="module")
def sim_cert():
    config = SimConfig(
        n=N, k=K, seed=SEED,
        retransmit_timeout=8.0,
        retransmit_window=64,
        dep_trace=True,
        check_invariants=True,
    )
    harness = SimulationHarness(
        config, HopChainBehavior(),
        failures=FailureSchedule.single(CRASH_TIME, CRASH_PID),
    )
    for stimulus in _stimuli():
        harness.inject_at(stimulus["time"], stimulus["dst"],
                          dict(stimulus["payload"]))
    harness.run(DURATION)
    assert harness.metrics().violations == []
    return certify_tracer(harness.tracer, N, K)


@pytest.fixture(scope="module")
def serve_report(tmp_path_factory):
    plan = ServePlan(
        n=N, k=K, seed=SEED,
        behavior="hopchain",
        timescale=0.02,
        duration=DURATION,
        rate=RATE,
        crashes=[(CRASH_TIME, CRASH_PID)],
        restart_delay=RESTART_DELAY,
        run_dir=str(tmp_path_factory.mktemp("serve-diff")),
        stimuli=_stimuli(),
    )
    return run_serve(plan)


class TestDifferential:
    def test_sim_certifies_clean(self, sim_cert):
        assert sim_cert.ok, sim_cert.violations

    def test_sim_commits_every_stimulus(self, sim_cert, expected_tags):
        assert _tags(sim_cert) == expected_tags

    def test_serve_certifies_clean(self, serve_report):
        assert serve_report.ok, serve_report.violations

    def test_serve_commits_every_stimulus(self, serve_report, expected_tags):
        assert _tags(serve_report.certification) == expected_tags

    def test_serve_really_crashed_and_recovered(self, serve_report):
        cert = serve_report.certification
        assert cert.counts["recoveries"] >= 1

    def test_same_committed_output_set(self, sim_cert, serve_report,
                                       expected_tags):
        # The headline agreement: both drivers commit exactly the same
        # outputs for the same scenario — all of them.
        assert _tags(sim_cert) == _tags(serve_report.certification) \
            == expected_tags
