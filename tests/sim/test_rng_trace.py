"""Unit tests for seeded RNG streams and the tracer."""

import random

from repro.sim.rng import Draws, RngRegistry
from repro.sim.trace import Tracer


class TestRngRegistry:
    def test_same_name_same_key_no_cached_stream(self):
        # Nothing is cached: a name stands for its key, and each call
        # builds the stream over again from it.
        rngs = RngRegistry(1)
        assert rngs.key("a") == rngs.key("a")
        assert rngs.stream("a") is not rngs.stream("a")
        assert not hasattr(rngs, "_streams")

    def test_streams_are_deterministic_across_registries(self):
        a = RngRegistry(7).stream("net").random()
        b = RngRegistry(7).stream("net").random()
        assert a == b

    def test_different_names_are_independent(self):
        rngs = RngRegistry(7)
        seq_a = [rngs.stream("a").random() for _ in range(3)]
        rngs2 = RngRegistry(7)
        rngs2.stream("b").random()  # consuming b must not perturb a
        seq_a2 = [rngs2.stream("a").random() for _ in range(3)]
        assert seq_a == seq_a2

    def test_different_seeds_differ(self):
        assert RngRegistry(1).stream("x").random() != RngRegistry(2).stream("x").random()

    def test_fresh_streams_not_cached(self):
        rngs = RngRegistry(3)
        f1 = rngs.stream("x")
        f2 = rngs.stream("x")
        assert f1 is not f2
        assert f1.random() == f2.random()
        # A generator's Mersenne Twister is seeded from the name's key.
        assert (rngs.stream("x").random()
                == random.Random(rngs.key("x")).random())
        assert Draws(rngs.key("x")).random() == Draws(rngs.key("x")).random()


class TestTracer:
    def test_records_events(self):
        tracer = Tracer()
        tracer.record(1.0, "msg.send", 0, msg="m1")
        tracer.record(2.0, "msg.deliver", 1, msg="m1")
        assert len(tracer.events) == 2
        assert tracer.events[0].data["msg"] == "m1"

    def test_disabled_tracer_is_silent(self):
        tracer = Tracer(enabled=False)
        tracer.record(1.0, "msg.send", 0)
        assert tracer.events == []

    def test_select_by_category_prefix(self):
        tracer = Tracer()
        tracer.record(1.0, "msg.send", 0)
        tracer.record(2.0, "msg.deliver", 0)
        tracer.record(3.0, "recovery.rollback", 1)
        assert len(tracer.select(category="msg")) == 2
        assert len(tracer.select(category="recovery.rollback")) == 1

    def test_select_by_process(self):
        tracer = Tracer()
        tracer.record(1.0, "a", 0)
        tracer.record(2.0, "a", 1)
        assert len(tracer.select(process=1)) == 1

    def test_count(self):
        tracer = Tracer()
        tracer.record(1.0, "a", 0)
        tracer.record(2.0, "a", 1)
        assert tracer.count("a") == 2
        assert tracer.count("a", process=0) == 1

    def test_clear(self):
        tracer = Tracer()
        tracer.record(1.0, "x", None)
        tracer.clear()
        assert tracer.events == []

    def test_format_renders_lines(self):
        tracer = Tracer()
        tracer.record(1.0, "msg.send", 0, msg="m1")
        text = tracer.format()
        assert "msg.send" in text
        assert "P0" in text
