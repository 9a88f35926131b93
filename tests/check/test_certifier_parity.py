"""The two feeds of the one certifier judge a mutant alike.

For each of the checker's mutants, the scenario the random explorer kills
it with is run again with ``dep_trace`` on.  The certifier the harness fed
inline and :func:`~repro.oracle.ingest.certify_tracer` over the same
run's ``dep.*`` records must report the same violations, string for
string.  Three mutants die by the certifier's own rules, so its post-hoc
verdict alone kills each of them: ``unbounded_release`` breaks Theorem 4,
and ``deaf_owner`` and ``forgetful_checkpoint`` lose work — a surviving
interval's send never released or output never committed, which
``Certifier.finish`` names.  The others are killed by the probes, and the
certifier's verdict on them is whatever consistency and the ledger say,
on both feeds alike.
"""

from dataclasses import replace

import pytest

from repro.check import (
    MUTANTS,
    ChoiceRecorder,
    RandomExplorer,
    RandomScenarioSampler,
)
from repro.check.cli import small_scenario
from repro.check.probes import ProbeSet
from repro.check.scenario import CrashPoint
from repro.oracle.ingest import certify_tracer
from repro.runtime.harness import SimulationHarness
from repro.workloads.random_peers import TokenBehavior
from helpers import SilentCommitProcess


def traced_rerun(scenario, protocol):
    """``run_scenario``'s run of ``scenario``, with ``dep_trace`` on."""
    config = replace(scenario.config(), dep_trace=True)
    harness = SimulationHarness(config, TokenBehavior(),
                                failures=scenario.failure_schedule(),
                                protocol=protocol)
    probes = ProbeSet()
    probes.install(harness)
    for kind in scenario.crash_points:
        harness.add_effect_probe(CrashPoint(kind, harness))
    harness.engine.set_tie_breaker(
        ChoiceRecorder(scenario.choices, seed=scenario.choice_seed))
    for injection in scenario.injections:
        harness.inject_at(injection.time, injection.dst, injection.payload())
    harness.run(scenario.horizon)
    probes.check_quiescent(harness)
    return harness, probes


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_live_and_post_hoc_verdicts_agree_on_a_killing_run(name):
    stats = RandomExplorer(RandomScenarioSampler(seed=0), runs=60,
                           protocol=MUTANTS[name]).explore()
    assert stats.found, f"{name} not caught"
    harness, probes = traced_rerun(stats.counterexample, MUTANTS[name])
    live = list(harness.violations)
    assert live + probes.violations, "the re-run no longer kills the mutant"
    config = harness.config
    post_hoc = certify_tracer(harness.tracer, config.n,
                              config.resolved_k()).violations
    assert post_hoc == live
    if name == "unbounded_release":
        assert any(v.startswith("Theorem 4 violated") for v in post_hoc)


@pytest.mark.parametrize("index,name", [(15, "deaf_owner"),
                                        (218, "forgetful_checkpoint")])
def test_the_post_hoc_feed_reports_a_lost_send(index, name):
    # The held send of a deaf owner's asker, and the send a forgetful
    # checkpoint dropped, each belong to a surviving interval.
    harness, _probes = traced_rerun(RandomScenarioSampler().sample(index),
                                    MUTANTS[name])
    config = harness.config
    post_hoc = certify_tracer(harness.tracer, config.n,
                              config.resolved_k()).violations
    lost = [v for v in post_hoc if "never released send" in v]
    assert len(lost) == 1, post_hoc


@pytest.mark.parametrize("crash", [None, 1])
def test_both_feeds_report_an_output_nobody_saw(crash):
    # P0 journals its output's commit but never shows it, and never
    # crashes: nothing excuses the loss, inline or post hoc.
    scenario = small_scenario(n=3, k=1, tokens=4, horizon=40.0, crash=crash)
    harness, _probes = traced_rerun(scenario, SilentCommitProcess)
    config = harness.config
    post_hoc = certify_tracer(harness.tracer, config.n,
                              config.resolved_k()).violations
    assert post_hoc == harness.violations == [
        "surviving interval (0, 0, 5) never committed output(s) [0]"]
