"""The replay-determinism probe (DESIGN.md §6 I5) and the liveness rules
(I7), each with the mutant it exists to kill.

- ``global_random_app`` runs the protocol intact over an application that
  picks its next hop from the module-level ``random``: a replayed interval
  sends its token elsewhere than its first execution did, which only the
  replay-determinism probe sees.
- ``deaf_owner`` never answers a logging request: in fanout-pull mode its
  peers' held sends and pending outputs wait for ever on intervals that
  survive, so those intervals never release or commit them, which the
  certifier's lost-work rules name at ``finish``.
- ``forgetful_checkpoint`` (Restart does not take back what its
  checkpoint owes) loses a surviving interval's send or output when a
  crash follows a checkpoint, which the same rules name;
  ``frozen_incarnation_row`` (Restart does not fold the incarnation ends
  its Rollbacks journaled) leaves its owner unaware of its own stable
  intervals when a crash follows a Rollback, which the own-stability
  probe, run once the scenario has settled, sees.  Each needs its crash
  point: a crash the protocol's own step places.
- ``lazy_notifier`` reports its logging progress at every 4th notify tick
  only: nothing is lost, outputs just commit late, which only the
  runner's commit-deadline rule (ROADMAP item 1(d)) sees.
"""

import re
from dataclasses import replace

from repro.check import (
    MUTANTS,
    ProbeSet,
    RandomExplorer,
    RandomScenarioSampler,
    run_scenario,
)
from repro.check import storage_campaign
from repro.check.probes import deadline_ticks
from repro.check.cli import small_scenario
from repro.core.effects import MessageDelivered
from repro.runtime.harness import SimulationHarness
from repro.workloads.random_peers import TokenBehavior
from helpers import SilentCommitProcess

#: The certifier's lost-work verdict, for a send or an output.
LOST_WORK = re.compile(r"surviving interval \(.*\) never "
                       r"(released send|committed output)\(s\) \[.*\]")


def killing_run(name):
    stats = RandomExplorer(RandomScenarioSampler(seed=0), runs=60,
                           protocol=MUTANTS[name]).explore()
    assert stats.found, f"{name} not caught in {stats.runs} scenarios"
    return stats.counterexample, stats.result


def test_the_registry_holds_every_mutant():
    assert set(MUTANTS) >= {
        "orphan_blind", "unbounded_release", "forgetful_piggyback",
        "stale_vector", "deaf_owner", "global_random_app",
        "forgetful_checkpoint", "frozen_incarnation_row", "lazy_notifier"}


def test_forgetful_checkpoint_is_killed_after_a_checkpoint():
    scenario, result = killing_run("forgetful_checkpoint")
    assert "checkpoint" in scenario.crash_points
    assert any(LOST_WORK.fullmatch(v) for v in result.violations)
    assert run_scenario(scenario).violations == []
    # The crash the checkpoint placed is the one that loses the work.
    no_point = replace(scenario, crash_points=())
    assert run_scenario(no_point, MUTANTS["forgetful_checkpoint"]) \
        .violations == []


def test_frozen_incarnation_row_is_killed_after_a_rollback():
    scenario, result = killing_run("frozen_incarnation_row")
    assert "rollback" in scenario.crash_points
    assert any("does not cover its own stable interval" in v
               for v in result.violations)
    assert run_scenario(scenario).violations == []


def test_a_journaled_commit_nobody_saw_is_lost_work_without_a_crash():
    # Only a crash of the output's own process excuses a journaled
    # commit that never reached the outside world; P0 never crashes.  The
    # certifier's finish names the loss, once.
    for crash in (None, 1):
        scenario = small_scenario(n=3, k=1, tokens=4, horizon=40.0,
                                  crash=crash)
        assert run_scenario(scenario).violations == []
        assert run_scenario(scenario, SilentCommitProcess).violations == [
            "surviving interval (0, 0, 5) never committed output(s) [0]"]


def test_lazy_notifier_is_killed_by_the_commit_deadline():
    scenario, result = killing_run("lazy_notifier")
    assert result.violations
    assert all(re.fullmatch(r"output \S+ committed at t=\S+, more than "
                            r"\S+ after its last dependency became stable "
                            r"\(t=\S+\)", v) for v in result.violations)
    assert run_scenario(scenario).violations == []


def test_the_commit_deadline_states_its_factor_per_mode():
    assert deadline_ticks(4, None) == 2
    # Pull f: ceil((n - 1) / f) ticks to ask every owner, one for the
    # answer.
    assert deadline_ticks(6, 2) == 4
    assert deadline_ticks(3, 2) == 2
    assert deadline_ticks(32, 4) == 9


def test_global_random_app_is_killed_by_the_replay_probe():
    scenario, result = killing_run("global_random_app")
    assert result.violations
    assert all(v.startswith("replay determinism violated")
               for v in result.violations)
    # The run repeats exactly, and the real protocol's application
    # passes the same scenario.
    assert run_scenario(scenario, MUTANTS["global_random_app"]).violations \
        == result.violations
    assert run_scenario(scenario).violations == []


def test_deaf_owner_is_killed_by_the_lost_work_rule_in_fanout_mode():
    scenario, result = killing_run("deaf_owner")
    assert scenario.notify_fanout is not None
    # Only the certifier's lost-work rule speaks: what waits for ever was
    # never released or committed.
    assert result.violations
    assert all(LOST_WORK.fullmatch(v) for v in result.violations)
    assert run_scenario(scenario).violations == []
    # Broadcast mode never asks, so a deaf owner there is harmless.
    broadcast = replace(scenario, notify_fanout=None)
    assert run_scenario(broadcast, MUTANTS["deaf_owner"]).violations == []


def test_the_replay_probe_compares_real_replays():
    # A crash mid-run makes the restarted process replay its logged
    # deliveries; each one is compared with its first execution.
    scenario = small_scenario(n=3, k=1, tokens=6, horizon=40.0, crash=1)
    harness = SimulationHarness(scenario.config(), TokenBehavior(),
                                failures=scenario.failure_schedule())
    probes = ProbeSet()
    probes.install(harness)
    compared = []

    def count_replays(host, effect):
        if (isinstance(effect, MessageDelivered) and effect.replay
                and effect.sends):
            compared.append(effect.interval)

    harness.add_effect_probe(count_replays)
    for injection in scenario.injections:
        harness.inject_at(injection.time, injection.dst, injection.payload())
    harness.run(scenario.horizon)
    probes.check_quiescent(harness)
    assert compared
    assert probes.violations == []


def test_the_storage_campaign_runs_the_liveness_probe(monkeypatch):
    calls = []
    original = ProbeSet.check_quiescent

    def spy(self, harness):
        calls.append(harness.config.storage_backend)
        original(self, harness)

    monkeypatch.setattr(ProbeSet, "check_quiescent", spy)
    (_, scenario), = storage_campaign.fault_campaign(runs=1, n=3,
                                                     horizon=160.0)
    result = run_scenario(scenario)
    assert result.ok, result.violations
    assert calls == ["filelog"]
