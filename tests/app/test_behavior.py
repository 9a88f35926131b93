"""Unit tests for the PWD application model."""

import random

import pytest

from repro.app.behavior import AppBehavior, AppContext, EchoBehavior


class TestAppContext:
    def test_send_collects(self):
        ctx = AppContext(0, 4, 0, 2, seed=0)
        ctx.send(1, {"a": 1})
        ctx.send(2, {"b": 2})
        assert ctx.sends == [(1, {"a": 1}), (2, {"b": 2})]

    def test_output_collects(self):
        ctx = AppContext(0, 4, 0, 2, seed=0)
        ctx.output("x")
        assert ctx.outputs == ["x"]

    def test_self_send_rejected(self):
        ctx = AppContext(0, 4, 0, 2, seed=0)
        with pytest.raises(ValueError):
            ctx.send(0, {})

    def test_out_of_range_destination_rejected(self):
        ctx = AppContext(0, 4, 0, 2, seed=0)
        with pytest.raises(ValueError):
            ctx.send(4, {})

    def test_rng_deterministic_per_interval(self):
        # The core PWD requirement: a replayed interval draws identical
        # random numbers.
        a = AppContext(0, 4, 1, 7, seed=42)
        b = AppContext(0, 4, 1, 7, seed=42)
        assert [a.rng.random() for _ in range(5)] == [b.rng.random() for _ in range(5)]

    def test_rng_differs_across_intervals(self):
        a = AppContext(0, 4, 1, 7, seed=42)
        b = AppContext(0, 4, 1, 8, seed=42)
        assert a.rng.random() != b.rng.random()

    def test_rng_differs_across_incarnations(self):
        # Re-execution in a new incarnation is a *different* nondeterministic
        # choice, not a replay.
        a = AppContext(0, 4, 1, 7, seed=42)
        b = AppContext(0, 4, 2, 7, seed=42)
        assert a.rng.random() != b.rng.random()

    def test_rng_is_seeded_on_first_read_by_the_interval_identity(self):
        # Seeding is deferred until a handler draws; what it draws is the
        # stream of the interval's seed string, as if seeded up front.
        ctx = AppContext(3, 8, 1, 7, seed=42)
        assert ctx._rng is None
        expected = random.Random("42/3/1/7")
        assert [ctx.rng.random() for _ in range(5)] == \
            [expected.random() for _ in range(5)]
        assert ctx.rng is ctx.rng

    def test_sends_returns_copy(self):
        ctx = AppContext(0, 4, 0, 2, seed=0)
        ctx.send(1, {})
        ctx.sends.clear()
        assert len(ctx.sends) == 1


class TestEchoBehavior:
    def test_counts_and_logs(self):
        behavior = EchoBehavior()
        state = behavior.initial_state(0, 4)
        ctx = AppContext(0, 4, 0, 2, seed=0)
        state = behavior.on_message(state, {"x": 1}, ctx)
        assert state["delivered"] == 1
        assert state["log"] == [{"x": 1}]

    def test_forwarding(self):
        behavior = EchoBehavior()
        ctx = AppContext(0, 4, 0, 2, seed=0)
        behavior.on_message(behavior.initial_state(0, 4),
                            {"forward_to": 2, "payload": "p"}, ctx)
        assert ctx.sends == [(2, "p")]

    def test_output(self):
        behavior = EchoBehavior()
        ctx = AppContext(0, 4, 0, 2, seed=0)
        behavior.on_message(behavior.initial_state(0, 4), {"output": "o"}, ctx)
        assert ctx.outputs == ["o"]

    def test_base_class_is_abstract(self):
        with pytest.raises(NotImplementedError):
            AppBehavior().on_message({}, {}, AppContext(0, 2, 0, 1, seed=0))
