"""Unit tests for latency models and channels."""

import random

import pytest

from repro.net.channel import (
    Channel,
    FixedLatency,
    UniformLatency,
)


class TestLatencyModels:
    def test_fixed(self):
        model = FixedLatency(2.0, per_entry=0.5)
        rng = random.Random(0)
        assert model.delay(rng) == 2.0
        assert model.delay(rng, piggyback_entries=4) == 4.0

    def test_fixed_rejects_negative(self):
        with pytest.raises(ValueError):
            FixedLatency(-1.0)
        with pytest.raises(ValueError):
            FixedLatency(1.0, per_entry=-0.1)

    def test_uniform_within_bounds(self):
        model = UniformLatency(1.0, 3.0)
        rng = random.Random(0)
        for _ in range(100):
            assert 1.0 <= model.delay(rng) <= 3.0

    def test_uniform_piggyback_cost(self):
        model = UniformLatency(1.0, 1.0, per_entry=1.0)
        assert model.delay(random.Random(0), piggyback_entries=3) == 4.0

    def test_uniform_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            UniformLatency(3.0, 1.0)
        with pytest.raises(ValueError):
            UniformLatency(-1.0, 1.0)


class TestChannel:
    def test_arrival_after_now(self):
        channel = Channel(0, 1, FixedLatency(2.0), random.Random(0))
        assert channel.arrival_time(10.0) == 12.0

    def test_non_fifo_may_reorder(self):
        channel = Channel(0, 1, UniformLatency(0.5, 5.0), random.Random(3),
                          fifo=False)
        arrivals = [channel.arrival_time(float(t)) for t in range(50)]
        assert any(b < a for a, b in zip(arrivals, arrivals[1:]))

    def test_fifo_never_reorders(self):
        channel = Channel(0, 1, UniformLatency(0.5, 5.0), random.Random(3),
                          fifo=True)
        arrivals = [channel.arrival_time(float(t)) for t in range(50)]
        assert all(b >= a for a, b in zip(arrivals, arrivals[1:]))

    def test_transmission_counter(self):
        channel = Channel(0, 1, FixedLatency(1.0), random.Random(0))
        channel.arrival_time(0.0)
        channel.arrival_time(1.0)
        assert channel.transmitted == 2
