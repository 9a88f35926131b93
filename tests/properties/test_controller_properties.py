"""Property-based tests: the adaptive-K controller is a pure function of
its settings and the observation stream.

This purity is what makes adaptive runs replayable: the harness feeds
observations on deterministic engine timers, so bit-identical decision
traces here imply bit-identical simulations there (the determinism
tests in tests/control/test_adaptive_harness.py close the loop).
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.control import AdaptiveKController, Observation
from repro.control.controller import K_MIN

#: ``(k_max, slo_target)``, the two settings the host gives a controller.
configs = st.tuples(st.integers(0, 12), st.sampled_from([0.0, 10.0, 50.0]))

# Cumulative revocation counters: nondecreasing by construction.
deltas = st.lists(st.integers(0, 3), min_size=1, max_size=40)
waits = st.lists(
    st.lists(st.floats(0.0, 200.0, allow_nan=False), max_size=5),
    min_size=1, max_size=40,
)


def stream(revocation_deltas, wait_batches):
    """Build a well-formed observation stream from raw draws."""
    observations, total = [], 0
    for i, delta in enumerate(revocation_deltas):
        total += delta
        batch = wait_batches[i % len(wait_batches)]
        observations.append(
            Observation(time=float(i) * 5.0, revocations=total,
                        commit_waits=tuple(batch))
        )
    return observations


def trajectory(config, pid, observations):
    controller = AdaptiveKController(pid, *config)
    ks = [controller.observe(o) for o in observations]
    return ks, list(controller.decisions), list(controller.history)


class TestControllerPurity:
    @given(configs, st.integers(0, 7), deltas, waits)
    def test_same_inputs_bit_identical_trace(self, config, pid,
                                             revs, wait_batches):
        observations = stream(revs, wait_batches)
        first = trajectory(config, pid, observations)
        second = trajectory(config, pid, observations)
        assert first == second

    @given(configs, st.integers(0, 7), deltas, waits)
    def test_k_always_within_bounds(self, config, pid, revs, wait_batches):
        ks, _, _ = trajectory(config, pid, stream(revs, wait_batches))
        assert all(K_MIN <= k <= config[0] for k in ks)

    @given(configs, st.integers(0, 7), deltas, waits)
    def test_history_matches_returned_ks(self, config, pid,
                                         revs, wait_batches):
        observations = stream(revs, wait_batches)
        ks, decisions, history = trajectory(config, pid, observations)
        assert [k for _, k in history] == ks
        assert [t for t, _ in history] == [o.time for o in observations]
        # The decision trace is the change-compressed history (plus init).
        assert decisions[0].reason == "init"
        replayed, current = [], decisions[0].k
        for t, k in history:
            if k != current:
                replayed.append((t, k))
                current = k
        assert [(d.time, d.k) for d in decisions[1:]] == replayed

    @given(configs, deltas, waits)
    def test_fresh_revocation_evidence_never_raises_k(self, config,
                                                      revs, wait_batches):
        observations = stream(revs, wait_batches)
        controller = AdaptiveKController(0, *config)
        previous_total = 0
        for obs in observations:
            k_before = controller.k
            controller.observe(obs)
            if obs.revocations > previous_total:
                assert controller.k <= k_before
            previous_total = obs.revocations
