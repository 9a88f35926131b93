"""The two feeds of the one certifier judge a mutant alike.

For each of the checker's mutants, the scenario the random explorer kills
it with is run again by :func:`~repro.check.scenario.run_scenario`, with
``dep_trace`` on, so under the rules every campaign runs.  The certifier
the harness fed inline and :func:`~repro.oracle.ingest.certify_tracer` over the same
run's ``dep.*`` records must report the same violations, string for
string.  Three mutants die by the certifier's own rules, so its post-hoc
verdict alone kills each of them: ``unbounded_release`` breaks Theorem 4,
and ``deaf_owner`` and ``forgetful_checkpoint`` lose work — a surviving
interval's send never released or output never committed, which
``Certifier.finish`` names.  The others are killed by the probes or the
runner's commit-deadline rule, and the certifier's verdict on them is
whatever consistency and the ledger say, on both feeds alike.
"""

from dataclasses import replace

import pytest

from repro.check import MUTANTS, RandomExplorer, RandomScenarioSampler
from repro.check import scenario as runner
from repro.check.cli import small_scenario
from repro.oracle.ingest import certify_tracer
from repro.runtime.harness import SimulationHarness
from helpers import SilentCommitProcess


@pytest.fixture
def traced_rerun(monkeypatch):
    """``run_scenario`` itself, every rule included, on a harness with
    ``dep_trace`` on: returns the result, the run's inline certifier
    verdict and its post-hoc one."""
    harnesses = []

    class Traced(SimulationHarness):
        def __init__(self, config, *args, **kwargs):
            super().__init__(replace(config, dep_trace=True), *args,
                             **kwargs)
            harnesses.append(self)

    monkeypatch.setattr(runner, "SimulationHarness", Traced)

    def rerun(scenario, protocol):
        harnesses.clear()
        result = runner.run_scenario(scenario, protocol)
        harness, = harnesses
        config = harness.config
        return result, list(harness.violations), certify_tracer(
            harness.tracer, config.n, config.resolved_k()).violations

    return rerun


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_live_and_post_hoc_verdicts_agree_on_a_killing_run(name,
                                                          traced_rerun):
    stats = RandomExplorer(RandomScenarioSampler(seed=0), runs=60,
                           protocol=MUTANTS[name]).explore()
    assert stats.found, f"{name} not caught"
    result, live, post_hoc = traced_rerun(stats.counterexample,
                                          MUTANTS[name])
    assert result.violations == stats.result.violations, \
        "the re-run no longer kills the mutant as the explorer's run did"
    assert post_hoc == live
    if name == "unbounded_release":
        assert any(v.startswith("Theorem 4 violated") for v in post_hoc)


@pytest.mark.parametrize("index,name", [(15, "deaf_owner"),
                                        (218, "forgetful_checkpoint")])
def test_the_post_hoc_feed_reports_a_lost_send(index, name, traced_rerun):
    # The held send of a deaf owner's asker, and the send a forgetful
    # checkpoint dropped, each belong to a surviving interval.
    _result, _live, post_hoc = traced_rerun(
        RandomScenarioSampler().sample(index), MUTANTS[name])
    lost = [v for v in post_hoc if "never released send" in v]
    assert len(lost) == 1, post_hoc


@pytest.mark.parametrize("crash", [None, 1])
def test_both_feeds_report_an_output_nobody_saw(crash, traced_rerun):
    # P0 journals its output's commit but never shows it, and never
    # crashes: nothing excuses the loss, inline or post hoc.
    scenario = small_scenario(n=3, k=1, tokens=4, horizon=40.0, crash=crash)
    _result, live, post_hoc = traced_rerun(scenario, SilentCommitProcess)
    assert post_hoc == live == [
        "surviving interval (0, 0, 5) never committed output(s) [0]"]
