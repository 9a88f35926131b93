"""The engine's end-of-instant queue (``Engine.defer``).

Deferred callbacks run at the current time once no scheduled record is due
at it any more, in defer order; a record scheduled *at* the current time
from inside one of them still fires before the next.  These tests pin that
rule, its bookkeeping (``pending``, ``run(until=…)``, ``max_events``,
``advance_to``), how a tie-breaker sees the queue, and that the epoch
worker's windowed loop serves it exactly as the plain engine does.
"""

import random

import pytest

from repro.app.behavior import EchoBehavior
from repro.parallel.worker import _WorkerHarness
from repro.runtime.config import SimConfig
from repro.sim.engine import Engine, SimulationError


class TestOrder:
    def test_deferred_waits_for_everything_due_now(self):
        engine = Engine()
        fired = []

        def arrival(tag):
            fired.append(tag)
            if tag == "a":
                engine.defer(lambda: fired.append("drain"))

        for tag in "abc":
            engine.schedule_at_raw(2.0, arrival, (tag,))
        engine.schedule(3.0, lambda: fired.append("later"))
        engine.run()
        assert fired == ["a", "b", "c", "drain", "later"]

    def test_deferred_callbacks_run_in_defer_order(self):
        engine = Engine()
        fired = []

        def arrival():
            for tag in "xyz":
                engine.defer(lambda tag=tag: fired.append(tag))

        engine.schedule(1.0, arrival)
        engine.run()
        assert fired == ["x", "y", "z"]

    def test_record_scheduled_now_from_a_deferred_callback_goes_first(self):
        engine = Engine()
        fired = []

        def first_drain():
            fired.append("drain-1")
            engine.schedule(0.0, lambda: fired.append("made-due-now"))
            engine.schedule_at_raw(engine.now, fired.append, ("raw-now",))
            engine.defer(lambda: fired.append("drain-3"))

        def arrival():
            engine.defer(first_drain)
            engine.defer(lambda: fired.append("drain-2"))

        engine.schedule(1.0, arrival)
        engine.run()
        assert fired == ["drain-1", "made-due-now", "raw-now", "drain-2",
                         "drain-3"]
        assert engine.now == 1.0

    def test_cancelled_front_neither_starves_nor_reorders_the_queue(self):
        engine = Engine()
        fired = []

        def arrival():
            engine.defer(lambda: fired.append("drain-1"))
            engine.defer(lambda: fired.append("drain-2"))
            # Cancelled records at the current time and later: both kinds
            # sit at the heap front while the queue is served.
            engine.schedule(0.0, lambda: fired.append("dead")).cancel()
            engine.schedule(5.0, lambda: fired.append("dead-later")).cancel()

        engine.schedule(1.0, arrival)
        engine.schedule(9.0, lambda: fired.append("live-later"))
        engine.run()
        assert fired == ["drain-1", "drain-2", "live-later"]

    def test_deferred_outside_run_fires_first_at_the_current_time(self):
        engine = Engine(start_time=4.0)
        fired = []
        engine.schedule(1.0, lambda: fired.append(("timer", engine.now)))
        engine.defer(lambda: fired.append(("drain", engine.now)))
        engine.run()
        assert fired == [("drain", 4.0), ("timer", 5.0)]


class TestBookkeeping:
    def test_pending_counts_deferred_work(self):
        engine = Engine()
        engine.defer(lambda: None)
        engine.defer(lambda: None)
        engine.schedule(1.0, lambda: None)
        assert engine.pending == 3
        engine.run()
        assert engine.pending == 0
        assert engine.events_executed == 3

    def test_run_until_does_not_stop_with_deferred_work_at_the_horizon(self):
        engine = Engine()
        fired = []
        engine.schedule(5.0, lambda: engine.defer(lambda: fired.append("drain")))
        engine.run(until=5.0)
        assert fired == ["drain"]
        assert engine.pending == 0

    def test_run_until_leaves_deferred_work_of_a_later_time_queued(self):
        engine = Engine(start_time=7.0)
        fired = []
        engine.defer(lambda: fired.append("drain"))
        engine.run(until=6.0)  # a horizon already behind the clock
        assert fired == [] and engine.pending == 1 and engine.now == 7.0
        engine.run()
        assert fired == ["drain"]

    def test_max_events_counts_deferred_firings(self):
        engine = Engine()

        def again():
            engine.defer(again)

        engine.defer(again)
        with pytest.raises(SimulationError):
            engine.run(max_events=50)
        assert engine.events_executed == 50

    def test_advance_to_refuses_to_jump_over_deferred_work(self):
        engine = Engine()
        engine.defer(lambda: None)
        with pytest.raises(SimulationError):
            engine.advance_to(3.0)
        engine.run()
        engine.advance_to(3.0)
        assert engine.now == 3.0

    def test_a_raw_record_counts_the_callbacks_it_stands_for(self):
        engine = Engine()
        seen = []
        engine.schedule_at_raw(1.0, seen.extend, ((1, 2, 3),), callbacks=3)
        engine.schedule_at_raw(1.0, seen.append, (4,))
        assert engine.pending == 2
        engine.run()
        assert seen == [1, 2, 3, 4]
        assert engine.events_executed == 4


class TestTieBreaker:
    def test_deferred_work_is_offered_behind_the_records_due_now(self):
        engine = Engine()
        offered = []
        fired = []

        def arrival(tag):
            fired.append(tag)
            engine.defer(lambda: fired.append(f"drain:{tag}"),
                         label=f"drain:{tag}")

        for tag in "ab":
            engine.schedule_at_raw(1.0, arrival, (tag,), label=tag)
        engine.schedule_at_raw(2.0, fired.append, ("c",), label="c")

        def chooser(candidates):
            offered.append([c.label for c in candidates])
            return len(candidates) - 1  # always the last one offered

        engine.set_tie_breaker(chooser)
        engine.run()
        # b fires first (last offered); its drain then joins the choice
        # with a, is chosen ahead of it, and so on: the chooser may take a
        # deferred callback before a record due at the same time.
        assert offered == [["a", "b"], ["a", "drain:b"]]
        assert fired == ["b", "drain:b", "a", "drain:a", "c"]

    def test_deferred_work_blocks_later_records_from_the_choice(self):
        engine = Engine()
        offered = []
        engine.set_tie_breaker(lambda c: offered.append(
            [h.label for h in c]) or 0)
        engine.defer(lambda: None, label="d1")
        engine.defer(lambda: None, label="d2")
        engine.schedule_at_raw(1.0, lambda: None, (), label="later-1")
        engine.schedule_at_raw(1.0, lambda: None, (), label="later-2")
        engine.run()
        assert offered == [["d1", "d2"], ["later-1", "later-2"]]

    def test_out_of_range_choice_is_rejected(self):
        engine = Engine()
        engine.set_tie_breaker(lambda candidates: 2)
        engine.defer(lambda: None)
        engine.defer(lambda: None)
        with pytest.raises(SimulationError):
            engine.step()


# -- one script, two loops ------------------------------------------------------


def random_script(seed, steps=120):
    """Root events ``(time, children)``; a child is ``(kind, delay)``
    with kind ``"record"`` (scheduled ``delay`` after the parent fires,
    often 0) or ``"defer"``, and may carry grandchildren of its own."""
    rng = random.Random(seed)

    def children(depth):
        if depth == 3:
            return []
        return [(rng.choice(["record", "record", "defer"]),
                 rng.choice([0.0, 0.0, 0.5, 1.0]),
                 children(depth + 1))
                for _ in range(rng.choice([0, 0, 1, 2]))]

    return [(rng.randrange(0, 24) / 2.0, children(0)) for _ in range(steps)]


def install(engine, script):
    """Schedule ``script`` on ``engine``; returns the firing log."""
    fired = []

    def fire(tag, kids):
        fired.append((tag, engine.now))
        for i, (kind, delay, grandkids) in enumerate(kids):
            child = f"{tag}.{i}"
            if kind == "defer":
                engine.defer(lambda c=child, g=grandkids: fire(c, g))
            elif i % 2:
                engine.schedule(delay, lambda c=child, g=grandkids: fire(c, g))
            else:
                engine.schedule_at_raw(engine.now + delay, fire,
                                       (child, grandkids))

    cancelled = []
    for i, (time, kids) in enumerate(script):
        engine.schedule_at_raw(time, fire, (str(i), kids))
        if i % 7 == 0:
            cancelled.append(engine.schedule_at(time, lambda: fired.append("dead")))
    for handle in cancelled:
        handle.cancel()
    return fired


@pytest.mark.parametrize("seed", [1, 7, 42])
def test_epoch_worker_loop_serves_the_queue_like_the_plain_engine(seed):
    script = random_script(seed)
    plain = Engine()
    reference = install(plain, script)
    plain.run()
    assert any("." in tag for tag, _ in reference)
    # One worker owning every process: its windowed loop over the engine
    # is all that differs from Engine.run().
    worker = _WorkerHarness(SimConfig(n=2, trace_enabled=False),
                            EchoBehavior(), None, worker_id=0, workers=1)
    try:
        fired = install(worker.engine, script)
        while worker.peek() is not None:
            worker.run_epoch(worker.peek() + 0.75)
        assert fired == reference
        assert worker.engine.events_executed == plain.events_executed
    finally:
        worker.close()
