"""AdaptiveKController unit tests: the AIMD rule, the decision trace and
the constants it runs with."""

from repro.control import AdaptiveKController, KDecision, Observation
from repro.control import controller as control


def make(k_max=8, slo_target=0.0, pid=0):
    return AdaptiveKController(pid, k_max, slo_target)


class TestConfigValidation:
    def test_defaults_valid(self):
        # The ranges the tuning values must keep for the rule to be AIMD.
        assert control.K_MIN >= 0
        assert 0.0 < control.SLO_PERCENTILE <= 100.0
        assert control.WINDOW >= 1
        assert control.INCREASE_STEP >= 1
        assert 0.0 <= control.DECREASE_FACTOR < 1.0


class TestAimdRule:
    def test_starts_fully_optimistic(self):
        controller = make()
        assert controller.k == 8
        assert controller.recommend() == 8

    def test_multiplicative_decrease_on_revocation(self):
        controller = make()
        assert controller.observe(Observation(10.0, revocations=1)) == 4
        assert controller.observe(Observation(20.0, revocations=2)) == 2
        assert controller.observe(Observation(30.0, revocations=3)) == 1
        assert controller.observe(Observation(40.0, revocations=4)) == 0

    def test_decrease_respects_k_min(self, monkeypatch):
        monkeypatch.setattr(control, "K_MIN", 2)
        controller = make()
        controller.observe(Observation(10.0, revocations=1))
        controller.observe(Observation(20.0, revocations=2))
        controller.observe(Observation(30.0, revocations=3))
        assert controller.k == 2

    def test_revocations_are_diffed_not_reread(self):
        # A *cumulative* counter that stays flat is not new evidence.
        controller = make(k_max=8, slo_target=100.0)
        controller.observe(Observation(10.0, revocations=5))
        assert controller.k == 4
        controller.window.extend([1.0] * 8)  # healthy latency
        controller.observe(Observation(20.0, revocations=5))
        assert controller.k == 4  # hold, not another decrease

    def test_always_hungry_without_slo_target(self):
        controller = make(k_max=8, slo_target=0.0)
        controller.observe(Observation(10.0, revocations=2))
        assert controller.k == 4
        for tick in range(2, 8):
            controller.observe(Observation(tick * 10.0, revocations=2))
        assert controller.k == 8  # climbed back to the ceiling, additively

    def test_increase_under_latency_pressure(self):
        controller = make(k_max=8, slo_target=50.0)
        controller.observe(Observation(10.0, revocations=1))
        assert controller.k == 4
        # p99 over the window misses the 50.0 target -> climb.
        controller.observe(Observation(20.0, revocations=1,
                                       commit_waits=(80.0, 90.0, 120.0)))
        assert controller.k == 5

    def test_empty_window_reads_as_pressure(self):
        # Open loop: no commits at all is the worst possible latency.
        controller = make(k_max=8, slo_target=50.0)
        controller.observe(Observation(10.0, revocations=1))
        controller.observe(Observation(20.0, revocations=1))
        assert controller.k == 5

    def test_holds_when_healthy_and_slo_met(self):
        controller = make(k_max=8, slo_target=50.0)
        controller.observe(Observation(10.0, revocations=1,
                                       commit_waits=(5.0, 6.0, 7.0)))
        assert controller.k == 4
        controller.observe(Observation(20.0, revocations=1,
                                       commit_waits=(5.0,)))
        assert controller.k == 4

    def test_increase_respects_k_max(self):
        controller = make(k_max=3, slo_target=0.0)
        for tick in range(5):
            controller.observe(Observation(tick * 10.0, revocations=0))
        assert controller.k == 3


class TestDecisionTrace:
    def test_init_decision_is_recorded(self):
        controller = make()
        assert controller.decisions == [KDecision(0.0, 8, "init")]

    def test_decisions_record_changes_only(self):
        controller = make(k_max=8, slo_target=50.0)
        controller.observe(Observation(10.0, revocations=1,
                                       commit_waits=(1.0,)))
        controller.observe(Observation(20.0, revocations=1,
                                       commit_waits=(1.0,)))  # hold
        controller.observe(Observation(30.0, revocations=2,
                                       commit_waits=(1.0,)))
        reasons = [d.reason for d in controller.decisions]
        assert reasons == ["init", "revocation x1", "revocation x1"]
        # history records every tick, decisions only the two changes.
        assert len(controller.history) == 3
