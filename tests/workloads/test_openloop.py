"""Open-loop arrival generator and workload: shape, determinism, and the
end-to-end ``t0`` latency stamps."""

import random

import pytest

from repro.workloads import openloop
from repro.workloads.openloop import (OpenLoopBehavior, OpenLoopWorkload,
                                      open_loop_times)

from helpers import build_sim


def times(seed=1, rate=1.0, until=500.0):
    return list(open_loop_times(random.Random(seed), rate, until))


class _NullWorkload:
    def __init__(self, behavior):
        self._behavior = behavior

    def behavior(self):
        return self._behavior

    def install(self, harness, until):
        pass


class TestOpenLoopTimes:
    def test_deterministic_in_the_rng(self):
        assert times(seed=42) == times(seed=42)
        assert times(seed=42) != times(seed=43)

    def test_times_sorted_and_in_range(self):
        ts = times()
        assert ts, "generator produced no arrivals"
        assert ts == sorted(ts)
        assert all(0.0 <= t < 500.0 for t in ts)

    def test_zero_rate_yields_nothing(self):
        assert times(rate=0.0) == []

    def test_mean_rate_tracks_the_target(self):
        # Heavy-tailed but finite-mean: over a long horizon the count is
        # within a loose band of rate * horizon.
        ts = times(seed=5, rate=1.0, until=5000.0)
        assert 0.5 * 5000 <= len(ts) <= 2.0 * 5000

    def test_bursts_make_clumps(self, monkeypatch):
        monkeypatch.setattr(openloop, "BURST_PROBABILITY", 0.0)
        calm = times(seed=7)
        monkeypatch.setattr(openloop, "BURST_PROBABILITY", 0.1)
        monkeypatch.setattr(openloop, "BURST_MULTIPLIER", 10.0)
        bursty = times(seed=7)
        min_gap = lambda ts: min(b - a for a, b in zip(ts, ts[1:]))  # noqa: E731
        assert min_gap(bursty) < min_gap(calm)

    def test_validates_parameters(self):
        # A finite-mean tail, and a diurnal rate that stays positive.
        assert openloop.ALPHA > 1.0
        assert 0.0 <= openloop.DIURNAL_AMPLITUDE < 1.0


class TestOpenLoopWorkload:
    def test_validates_parameters(self):
        with pytest.raises(ValueError):
            OpenLoopWorkload(min_hops=3, max_hops=2)
        with pytest.raises(ValueError):
            OpenLoopWorkload(output_fraction=1.5)

    def test_outputs_carry_injection_stamps(self):
        harness = build_sim(n=6, k=3, seed=2,
                            workload=OpenLoopWorkload(rate=0.8),
                            until=150.0)
        harness.run(250.0)
        assert harness.metrics().violations == []
        outputs = [rec.payload for _, rec in harness.committed_outputs]
        assert outputs, "no outputs committed"
        for payload in outputs:
            assert "t0" in payload and payload["t0"] >= 0.0
        harness.close()

    def test_e2e_latency_samples_use_t0(self):
        harness = build_sim(n=6, k=3, seed=2,
                            workload=OpenLoopWorkload(rate=0.8),
                            until=150.0)
        harness.run(250.0)
        stamps = {round(rec.payload["t0"], 9)
                  for when, rec in harness.committed_outputs}
        spans = [when - rec.payload["t0"]
                 for when, rec in harness.committed_outputs]
        # Samples are injection-to-commit: strictly positive, and the
        # metrics see exactly one sample per committed output.
        assert all(span > 0 for span in spans)
        assert sum(len(host.latency_samples) for host in harness.hosts) == len(spans)
        assert stamps, "stamps should be nonempty"
        harness.close()

    def test_unstamped_outputs_fall_back_to_buffer_wait(self):
        # Behaviours that do not stamp t0 still produce latency samples
        # (buffer residence time) instead of crashing or skewing stats.
        from repro.workloads.random_peers import RandomPeersWorkload

        harness = build_sim(n=4, k=2, seed=3,
                            workload=RandomPeersWorkload(rate=0.5),
                            until=100.0)
        harness.run(150.0)
        committed = len(harness.committed_outputs)
        samples = [s for host in harness.hosts for s in host.latency_samples]
        assert committed > 0
        assert len(samples) == committed
        assert all(s >= 0.0 for s in samples)
        harness.close()

    def test_behavior_chain_preserves_t0(self):
        from repro.app.behavior import AppContext

        behavior = OpenLoopBehavior()
        state = behavior.initial_state(0, 4)
        ctx = AppContext(0, 4, 0, 1, seed=0)
        behavior.on_message(state, {"token": 9, "hops": 2,
                                    "emit_output": True, "t0": 12.5}, ctx)
        ((_, payload, _),) = ctx.sends_with_limits
        assert payload["t0"] == 12.5
        assert payload["hops"] == 1


class TestLoadgenProfiles:
    def test_openloop_profile_deterministic(self):
        from repro.backplane.loadgen import generate_stimuli

        a = generate_stimuli(6, 1, 100.0, 1.0, profile="openloop")
        b = generate_stimuli(6, 1, 100.0, 1.0, profile="openloop")
        assert a == b
        assert a and a == sorted(a, key=lambda s: s["time"])

    def test_unknown_profile_rejected(self):
        from repro.backplane.loadgen import generate_stimuli

        with pytest.raises(ValueError):
            generate_stimuli(6, 1, 100.0, 1.0, profile="poisson")

    def test_uniform_profile_unchanged_by_the_refactor(self):
        # The historical closed form, byte for byte: evenly spaced times,
        # then (dst, hops) drawn from random.Random(f"loadgen/{seed}").
        from repro.backplane.loadgen import generate_stimuli

        stimuli = generate_stimuli(4, 9, 50.0, 0.2, profile="uniform")
        rng = random.Random("loadgen/9")
        count = 10
        expected_times = [(i + 1) * 50.0 / (count + 1) for i in range(count)]
        assert [s["time"] for s in stimuli] == expected_times
        for s in stimuli:
            assert s["dst"] == rng.choice([0, 1, 2, 3])
            assert s["payload"]["hops"] == rng.randint(1, 3)
