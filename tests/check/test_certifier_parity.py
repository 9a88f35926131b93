"""The two feeds of the one certifier judge a mutant alike.

For each of the checker's mutants, the scenario the random explorer kills
it with is run again with ``dep_trace`` on.  The certifier the harness fed
inline and :func:`~repro.oracle.ingest.certify_tracer` over the same
run's ``dep.*`` records must report the same violations, string for
string.  ``unbounded_release`` breaks Theorem 4, which the certifier
itself judges, so its post-hoc verdict alone must kill it; the others
are killed by the probes, and the certifier's verdict on them is whatever
consistency and the ledger say, on both feeds alike.
"""

from dataclasses import replace

import pytest

from repro.check import (
    MUTANTS,
    ChoiceRecorder,
    RandomExplorer,
    RandomScenarioSampler,
)
from repro.check.probes import ProbeSet
from repro.oracle.ingest import certify_tracer
from repro.runtime.harness import SimulationHarness
from repro.workloads.random_peers import TokenBehavior


def traced_rerun(scenario, protocol):
    """``run_scenario``'s run of ``scenario``, with ``dep_trace`` on."""
    config = replace(scenario.config(), dep_trace=True)
    harness = SimulationHarness(config, TokenBehavior(),
                                failures=scenario.failure_schedule(),
                                protocol=protocol)
    probes = ProbeSet()
    probes.install(harness)
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
