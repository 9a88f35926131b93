"""ShardedEngine vs the single-heap Engine: identical firing order.

The deterministic cross-shard merge claims the fired-event sequence is a
pure function of ``(time, seq)`` regardless of shard count or
routing hints.  These tests drive both engines through identical
randomized schedule scripts (including cancellations, re-entrant
scheduling from callbacks, and tie-breaker control) and assert the
executed sequences match element for element.
"""

import random

import pytest

from repro.sim.engine import Engine, SimulationError
from repro.sim.shard import ShardedEngine


def random_script(seed, steps=200):
    """A schedule script: (delay, shard-hint, use_raw, cancel)."""
    rng = random.Random(seed)
    return [
        (
            # A coarse grid, so that many records tie on time.
            rng.randrange(0, 40) / 2.0,
            rng.choice([None, 0, 1, 2, 3, 7, 63]),
            rng.random() < 0.5,
            rng.random() < 0.15,
        )
        for _ in range(steps)
    ]


def execute(engine, script):
    """Run a script on ``engine``; returns the fired event ids in order."""
    fired = []
    handles = []
    for i, (delay, shard, use_raw, cancel) in enumerate(script):
        if use_raw:
            engine.schedule_at_raw(delay, fired.append, (i,), shard=shard)
        else:
            handle = engine.schedule(delay, lambda i=i: fired.append(i),
                                     shard=shard)
            if cancel:
                handles.append(handle)
    for handle in handles:
        handle.cancel()
    engine.run()
    return fired


class TestFiringOrderEquivalence:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    @pytest.mark.parametrize("seed", [1, 7, 42])
    def test_matches_single_heap_engine(self, shards, seed):
        script = random_script(seed)
        baseline = execute(Engine(), script)
        sharded = execute(ShardedEngine(shards), script)
        assert sharded == baseline

    @pytest.mark.parametrize("shards", [2, 4])
    def test_reentrant_scheduling_matches(self, shards):
        def drive(engine):
            fired = []

            def spawn(depth, tag):
                fired.append(tag)
                if depth < 3:
                    engine.schedule(0.5, lambda: spawn(depth + 1, tag * 10 + 1),
                                    shard=tag % 5)
                    engine.schedule_at_raw(engine.now + 0.5, spawn,
                                           (depth + 1, tag * 10 + 2),
                                           shard=(tag + 1) % 5)

            engine.schedule(1.0, lambda: spawn(0, 1))
            engine.schedule(1.0, lambda: spawn(0, 2), shard=3)
            engine.run()
            return fired

        assert drive(ShardedEngine(shards)) == drive(Engine())

    def test_same_time_ties_fire_in_seq_order(self):
        engine = ShardedEngine(4)
        fired = []
        engine.schedule_at_raw(5.0, fired.append, ("first",), shard=3)
        engine.schedule_at_raw(5.0, fired.append, ("second",), shard=0)
        engine.schedule_at(5.0, lambda: fired.append("third"), shard=1)
        engine.run()
        assert fired == ["first", "second", "third"]


class TestTieBreaker:
    @pytest.mark.parametrize("shards", [1, 3])
    def test_candidates_presented_in_default_order(self, shards):
        engine = ShardedEngine(shards)
        seen = []
        for i in range(5):
            engine.schedule_at_raw(2.0, lambda: None, (),
                                   label=f"ev{i}", shard=i)

        def chooser(candidates):
            seen.append([c.label for c in candidates])
            return len(candidates) - 1  # fire the newest first

        engine.set_tie_breaker(chooser)
        engine.run()
        assert seen[0] == ["ev0", "ev1", "ev2", "ev3", "ev4"]
        # Unchosen candidates are requeued and re-presented.
        assert seen[1] == ["ev0", "ev1", "ev2", "ev3"]

    def test_wants_labels_tracks_tie_breaker(self):
        engine = ShardedEngine(2)
        assert not engine.wants_labels
        engine.set_tie_breaker(lambda candidates: 0)
        assert engine.wants_labels
        engine.set_tie_breaker(None)
        assert not engine.wants_labels


class TestBookkeeping:
    def test_routing_hints_spread_load(self):
        engine = ShardedEngine(4)
        for dst in range(16):
            engine.schedule_at_raw(float(dst), lambda: None, (), shard=dst)
        assert engine.events_per_shard == [4, 4, 4, 4]
        engine.run()
        assert engine.events_executed == 16

    def test_unhinted_records_round_robin(self):
        engine = ShardedEngine(3)
        for _ in range(9):
            engine.schedule(1.0, lambda: None)
        assert engine.events_per_shard == [3, 3, 3]

    def test_cancellation_and_compaction_across_shards(self):
        engine = ShardedEngine(4)
        keep = []
        handles = [engine.schedule(1.0, lambda i=i: keep.append(i), shard=i % 4)
                   for i in range(200)]
        for handle in handles[::2]:
            handle.cancel()
        assert engine.pending == 100
        # Compaction must have dropped the dead records from the heaps.
        assert sum(len(h) for h in engine._heaps) == 100
        engine.run()
        assert keep == list(range(1, 200, 2))

    def test_rejects_past_and_bad_shard_counts(self):
        with pytest.raises(ValueError):
            ShardedEngine(0)
        engine = ShardedEngine(2)
        engine.schedule_at_raw(1.0, lambda: None, ())
        engine.run()
        with pytest.raises(SimulationError):
            engine.schedule_at_raw(0.5, lambda: None, ())

    def test_run_until_advances_clock_like_base_engine(self):
        engine = ShardedEngine(2)
        engine.schedule_at_raw(10.0, lambda: None, (), shard=1)
        engine.run(until=5.0)
        assert engine.now == 5.0
        assert engine.pending == 1
        engine.run(until=15.0)
        assert engine.pending == 0
        assert engine.now == 15.0
