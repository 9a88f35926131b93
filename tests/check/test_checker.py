"""Tests for the systematic exploration checker itself.

Covers the engine tie-breaker contract, scenario determinism and
serialization, the probe layer's silence on the real protocol, the
Theorem 4 regression sweep over K, and — the part that proves the whole
subsystem has teeth — the mutation smoke tests: against each broken
protocol variant the explorer must find a violation and the shrinker
must reduce it to a short replayable counterexample.
"""

import pytest

from repro.check import (
    BoundedDFSExplorer,
    ChoiceRecorder,
    Injection,
    MUTANTS,
    RandomExplorer,
    RandomScenarioSampler,
    Scenario,
    dump_counterexample,
    load_counterexample,
    run_scenario,
    shrink,
)
from repro.check.cli import small_scenario
from repro.check.probes import ProbeSet
from repro.sim.engine import Engine, SimulationError


class TestTieBreakerHook:
    def test_default_behaviour_unchanged_without_chooser(self):
        fired = []
        a, b = Engine(), Engine()
        b.set_tie_breaker(lambda candidates: 0)
        for engine, tag in ((a, "a"), (b, "b")):
            for i in range(3):
                engine.schedule(1.0, lambda t=tag, i=i: fired.append((t, i)))
            engine.run()
        assert [i for t, i in fired if t == "a"] == \
               [i for t, i in fired if t == "b"]

    def test_chooser_reorders_same_time_events(self):
        engine = Engine()
        fired = []
        engine.set_tie_breaker(lambda candidates: len(candidates) - 1)
        for i in range(3):
            engine.schedule(1.0, lambda i=i: fired.append(i))
        engine.run()
        assert fired == [2, 1, 0]

    def test_chooser_sees_labels(self):
        engine = Engine()
        seen = []

        def chooser(candidates):
            seen.append(tuple(c.label for c in candidates))
            return 0

        engine.set_tie_breaker(chooser)
        engine.schedule(1.0, lambda: None, label="first")
        engine.schedule(1.0, lambda: None, label="second")
        engine.run()
        assert ("first", "second") in seen

    def test_out_of_range_choice_raises(self):
        engine = Engine()
        engine.set_tie_breaker(lambda candidates: 99)
        engine.schedule(1.0, lambda: None)
        engine.schedule(1.0, lambda: None)
        with pytest.raises(SimulationError):
            engine.run()

    def test_post_step_fires_after_every_event(self):
        engine = Engine()
        steps = []
        engine.post_step = lambda: steps.append(engine.events_executed)
        for _ in range(4):
            engine.schedule(1.0, lambda: None)
        engine.run()
        assert steps == [1, 2, 3, 4]


class TestChoiceRecorder:
    def test_prefix_then_default(self):
        recorder = ChoiceRecorder(prefix=[1, 0])
        fake = [object(), object(), object()]
        assert [recorder(fake), recorder(fake), recorder(fake)] == [1, 0, 0]
        assert recorder.taken == [1, 0, 0]
        assert recorder.counts == [3, 3, 3]

    def test_prefix_clamped_on_drift(self):
        recorder = ChoiceRecorder(prefix=[5])
        assert recorder([object(), object()]) == 1

    def test_seeded_fallback_is_reproducible(self):
        fake = [object()] * 4
        a = ChoiceRecorder(seed=7)
        b = ChoiceRecorder(seed=7)
        assert [a(fake) for _ in range(10)] == [b(fake) for _ in range(10)]


class TestScenarioRuns:
    def test_scenario_is_deterministic(self):
        scenario = small_scenario(n=3, tokens=3, crash=1)
        a = run_scenario(scenario)
        b = run_scenario(scenario)
        assert a.choices == b.choices
        assert a.counts == b.counts
        assert a.events_executed == b.events_executed
        assert a.violations == b.violations == []

    def test_choices_change_the_schedule(self):
        scenario = small_scenario(n=2, tokens=3)
        base = run_scenario(scenario)
        branch = next((i for i, c in enumerate(base.counts) if c > 1), None)
        assert branch is not None, "lockstep scenario produced no ties"
        flipped = run_scenario(
            scenario.with_choices(base.choices[:branch] + [1]))
        assert flipped.violations == []
        assert flipped.choices != base.choices

    def test_serialization_round_trip(self, tmp_path):
        scenario = Scenario(
            n=4, k=2, seed=3, horizon=25.0,
            injections=[Injection(1.0, 0, token=1, hops=2,
                                  emit_output=True)],
            crashes=[(10.0, 2)],
            choices=[0, 1], choice_seed=99,
        )
        path = str(tmp_path / "scenario.json")
        scenario.dump(path)
        assert Scenario.load(path) == scenario

    def test_real_protocol_clean_with_crash_and_partition(self):
        from repro.check.scenario import Partition

        scenario = Scenario(
            n=4, k=1, seed=5, horizon=40.0,
            injections=[Injection(1.0 + i, i % 4, token=i, hops=2,
                                  emit_output=(i % 2 == 0))
                        for i in range(5)],
            crashes=[(18.0, 2)],
            partitions=[Partition(8.0, 14.0, ((3,),))],
            choice_seed=11,
        )
        result = run_scenario(scenario)
        assert result.violations == []


class TestTheorem4Sweep:
    """Regression for Theorem 4: under random schedules, every released
    message has at most K potential revokers — for every degree of
    optimism, including the K=0 (pessimistic) and K=N (fully optimistic)
    extremes."""

    @pytest.mark.parametrize("k", [0, 1, 2, None])
    def test_release_bound_holds_under_random_schedules(self, k):
        sampler = RandomScenarioSampler(seed=13, k_choices=(k,),
                                        n_choices=(3, 4))
        stats = RandomExplorer(sampler, runs=25).explore()
        assert not stats.found, stats.result.violations
        bound = 4 if k is None else k
        assert stats.max_release_revokers <= bound
        if k in (1, 2):
            # The optimism is actually exercised, not vacuously bounded.
            assert stats.max_release_revokers == k


class TestBoundedDFS:
    def test_tiny_config_explores_clean(self):
        scenario = small_scenario(n=2, tokens=2, horizon=20.0)
        stats = BoundedDFSExplorer(scenario, max_depth=5,
                                   max_runs=200).explore()
        assert not stats.found
        assert stats.runs > 10, "DFS found no schedule branching to explore"
        assert stats.max_branching >= 2

    def test_dfs_rejects_random_fallback(self):
        scenario = small_scenario().with_choices([], choice_seed=1)
        with pytest.raises(ValueError):
            BoundedDFSExplorer(scenario)

    @pytest.mark.parametrize("n", [2, 3])
    def test_crash_pair_explores_clean_and_both_restart(self, n,
                                                        monkeypatch):
        """Two crashes inside one flush interval: every schedule the DFS
        runs reaches the quiescent probe with both processes restarted."""
        leaves = []
        check_quiescent = ProbeSet.check_quiescent

        def recording(probes, harness):
            leaves.append({host.pid: (len(host.crash_times),
                                      host.protocol.stats.restarts,
                                      host.down)
                           for host in harness.hosts})
            check_quiescent(probes, harness)

        monkeypatch.setattr(ProbeSet, "check_quiescent", recording)
        scenario = small_scenario(n=n, tokens=3, crash=(1, 0))
        flush = scenario.flush_interval
        assert scenario.crashes == [(15.0, 1), (15.0 + flush / 2, 0)]
        stats = BoundedDFSExplorer(scenario, max_depth=8,
                                   max_runs=100).explore()
        assert not stats.found, stats.result.violations
        assert stats.max_branching >= 2
        assert len(leaves) == stats.runs
        for leaf in leaves:
            assert leaf[0] == leaf[1] == (1, 1, False)

    def test_crash_takes_at_most_two_distinct_pids(self):
        for crash in ((1, 1), (0, 1, 2)):
            with pytest.raises(ValueError):
                small_scenario(n=3, crash=crash)


class TestMutationSmoke:
    """The checker must catch every broken variant and shrink the
    violation to a short replayable trace (the tentpole's acceptance
    bar: <= 20 events)."""

    @pytest.mark.parametrize("name", sorted(MUTANTS))
    def test_mutant_caught_shrunk_and_replayable(self, name, tmp_path):
        mutant = MUTANTS[name]
        sampler = RandomScenarioSampler(seed=0)
        stats = RandomExplorer(sampler, runs=60, protocol=mutant).explore()
        assert stats.found, f"{name} not caught in {stats.runs} scenarios"

        shrunk = shrink(stats.counterexample, protocol=mutant)
        assert shrunk.result.violations
        assert shrunk.trace_length <= 20

        path = str(tmp_path / f"{name}.json")
        dump_counterexample(path, shrunk.scenario, shrunk.result,
                            mutant=name)
        loaded, loaded_mutant = load_counterexample(path)
        assert loaded_mutant == name
        replayed = run_scenario(loaded, MUTANTS[loaded_mutant])
        assert replayed.violations == shrunk.result.violations
        # The real protocol survives the same scenario.
        assert run_scenario(loaded).violations == []

    def test_orphan_blind_dfs_also_catches_with_crash(self):
        # The bounded DFS (not just random sampling) can expose the
        # orphan-blind mutant once a crash is in the scenario.
        scenario = small_scenario(n=3, k=1, tokens=4, horizon=30.0,
                                  crash=1)
        mutant = MUTANTS["orphan_blind"]
        stats = BoundedDFSExplorer(
            scenario, max_depth=6, max_runs=150, protocol=mutant).explore()
        sampled = RandomExplorer(
            RandomScenarioSampler(seed=2), runs=40, protocol=mutant).explore()
        assert stats.found or sampled.found

    def test_shrink_requires_a_violation(self):
        with pytest.raises(ValueError):
            shrink(small_scenario(n=2, tokens=2))


class TestShrinkQuality:
    def test_shrunk_scenario_is_small(self):
        mutant = MUTANTS["unbounded_release"]
        stats = RandomExplorer(RandomScenarioSampler(seed=0), runs=60,
                               protocol=mutant).explore()
        assert stats.found
        original = stats.counterexample
        shrunk = shrink(original, protocol=mutant)
        assert len(shrunk.scenario.injections) <= len(original.injections)
        assert len(shrunk.scenario.crashes) <= len(original.crashes)
        assert shrunk.scenario.horizon <= original.horizon
        assert len(shrunk.scenario.injections) <= 3


@pytest.mark.explore
class TestExtendedExploration:
    """The CI-scheduled long campaign: a 3-process bounded exploration
    plus a 1000-schedule random sample must complete clean."""

    def test_bounded_exploration_three_processes(self):
        scenario = small_scenario(n=3, k=1, tokens=3, horizon=30.0)
        stats = BoundedDFSExplorer(scenario, max_depth=9,
                                   max_runs=1500).explore()
        assert not stats.found, stats.result.violations

    def test_thousand_random_schedules_clean(self):
        sampler = RandomScenarioSampler(seed=0)
        stats = RandomExplorer(sampler, runs=1000).explore()
        assert not stats.found, stats.result.violations
