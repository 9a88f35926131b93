"""Unit tests for latency models and channels."""

import pytest

from repro.net.channel import (
    Channel,
    FixedLatency,
    UniformLatency,
)
from repro.sim.rng import Draws


class TestLatencyModels:
    def test_fixed(self):
        model = FixedLatency(2.0)
        assert model.delay(None) == 2.0
        assert model.delay(None, piggyback_entries=4) == 2.0

    def test_fixed_rejects_negative(self):
        with pytest.raises(ValueError):
            FixedLatency(-1.0)

    def test_uniform_within_bounds(self):
        model = UniformLatency(1.0, 3.0)
        rng = Draws(0)
        for _ in range(100):
            assert 1.0 <= model.delay(rng) <= 3.0

    def test_uniform_piggyback_cost(self):
        model = UniformLatency(1.0, 1.0, per_entry=1.0)
        assert model.delay(Draws(0), piggyback_entries=3) == 4.0

    def test_uniform_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            UniformLatency(3.0, 1.0)
        with pytest.raises(ValueError):
            UniformLatency(-1.0, 1.0)


class TestChannel:
    def test_arrival_after_now(self):
        channel = Channel(0)
        assert channel.arrival_time(10.0, FixedLatency(2.0)) == 12.0

    def test_non_fifo_may_reorder(self):
        channel = Channel(3)
        latency = UniformLatency(0.5, 5.0)
        arrivals = [channel.arrival_time(float(t), latency, fifo=False)
                    for t in range(50)]
        assert any(b < a for a, b in zip(arrivals, arrivals[1:]))

    def test_fifo_never_reorders(self):
        channel = Channel(3)
        latency = UniformLatency(0.5, 5.0)
        arrivals = [channel.arrival_time(float(t), latency, fifo=True)
                    for t in range(50)]
        assert all(b >= a for a, b in zip(arrivals, arrivals[1:]))

    def test_transmission_counter(self):
        # A channel keeps no transmission count of its own: its draw index
        # counts the draws, one per transmission over a drawing model and
        # none over a fixed one.
        channel = Channel(0)
        channel.arrival_time(0.0, UniformLatency(0.5, 5.0))
        channel.arrival_time(1.0, UniformLatency(0.5, 5.0))
        channel.arrival_time(2.0, FixedLatency(1.0))
        assert channel.index == 2
        assert not hasattr(channel, "transmitted")
