"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim.engine import Engine, SimulationError, call_soon


class TestScheduling:
    def test_events_fire_in_time_order(self):
        engine = Engine()
        fired = []
        engine.schedule(3.0, lambda: fired.append("c"))
        engine.schedule(1.0, lambda: fired.append("a"))
        engine.schedule(2.0, lambda: fired.append("b"))
        engine.run()
        assert fired == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self):
        engine = Engine()
        fired = []
        for name in "abc":
            engine.schedule(1.0, lambda n=name: fired.append(n))
        engine.run()
        assert fired == ["a", "b", "c"]

    def test_deferred_runs_after_same_time_events(self):
        # "late" asks to run behind everything due at its time, however
        # much later that work was scheduled.
        engine = Engine()
        fired = []

        def first():
            engine.defer(lambda: fired.append("late"))
            engine.schedule(0.0, lambda: fired.append("early"))

        engine.schedule(1.0, first)
        engine.schedule(1.0, lambda: fired.append("also-early"))
        engine.run()
        assert fired == ["also-early", "early", "late"]

    def test_now_advances_to_event_time(self):
        engine = Engine()
        seen = []
        engine.schedule(4.5, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [4.5]
        assert engine.now == 4.5

    def test_schedule_at_absolute_time(self):
        engine = Engine(start_time=10.0)
        seen = []
        engine.schedule_at(12.0, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [12.0]

    def test_cannot_schedule_in_the_past(self):
        engine = Engine(start_time=5.0)
        with pytest.raises(SimulationError):
            engine.schedule_at(4.0, lambda: None)
        with pytest.raises(SimulationError):
            engine.schedule(-1.0, lambda: None)

    def test_events_scheduled_during_run(self):
        engine = Engine()
        fired = []

        def first():
            fired.append("first")
            engine.schedule(1.0, lambda: fired.append("nested"))

        engine.schedule(1.0, first)
        engine.run()
        assert fired == ["first", "nested"]
        assert engine.now == 2.0


class TestRunControl:
    def test_run_until_leaves_later_events_queued(self):
        engine = Engine()
        fired = []
        engine.schedule(1.0, lambda: fired.append(1))
        engine.schedule(10.0, lambda: fired.append(2))
        engine.run(until=5.0)
        assert fired == [1]
        assert engine.now == 5.0
        assert engine.pending == 1
        engine.run()
        assert fired == [1, 2]

    def test_run_until_advances_clock_with_empty_queue(self):
        engine = Engine()
        engine.run(until=7.0)
        assert engine.now == 7.0

    def test_run_until_advances_clock_with_all_cancelled_queue(self):
        # Regression: a queue holding only cancelled records at entry used
        # to leave the clock untouched (the break skipped the while/else
        # that advances it), so it behaved differently from an empty queue.
        engine = Engine()
        for _ in range(3):
            engine.schedule(2.0, lambda: None).cancel()
        engine.run(until=7.0)
        assert engine.now == 7.0
        assert engine.pending == 0

    def test_run_until_advances_clock_when_cancelled_past_horizon(self):
        # Same shape with the cancelled records beyond the horizon: peek
        # pops them lazily and run() must still reach ``until``.
        engine = Engine()
        engine.schedule(20.0, lambda: None).cancel()
        engine.run(until=7.0)
        assert engine.now == 7.0

    def test_max_events_guards_livelock(self):
        engine = Engine()

        def loop():
            engine.schedule(0.0, loop)

        engine.schedule(0.0, loop)
        with pytest.raises(SimulationError):
            engine.run(max_events=100)

    def test_step_returns_false_when_empty(self):
        assert Engine().step() is False

    def test_events_executed_counter(self):
        engine = Engine()
        for _ in range(3):
            engine.schedule(1.0, lambda: None)
        engine.run()
        assert engine.events_executed == 3

    def test_engine_not_reentrant(self):
        engine = Engine()
        errors = []

        def reenter():
            try:
                engine.run()
            except SimulationError as exc:
                errors.append(exc)

        engine.schedule(1.0, reenter)
        engine.run()
        assert len(errors) == 1


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        engine = Engine()
        fired = []
        handle = engine.schedule(1.0, lambda: fired.append(1))
        handle.cancel()
        engine.run()
        assert fired == []

    def test_cancel_after_fire_is_noop(self):
        engine = Engine()
        handle = engine.schedule(1.0, lambda: None)
        engine.run()
        handle.cancel()  # must not raise

    def test_cancelled_events_skipped_in_peek(self):
        engine = Engine()
        fired = []
        handle = engine.schedule(1.0, lambda: fired.append("x"))
        engine.schedule(2.0, lambda: fired.append("y"))
        handle.cancel()
        engine.run(until=10.0)
        assert fired == ["y"]


class TestPendingCounter:
    def test_pending_excludes_cancelled_events(self):
        engine = Engine()
        handles = [engine.schedule(float(i + 1), lambda: None) for i in range(3)]
        assert engine.pending == 3
        handles[1].cancel()
        assert engine.pending == 2
        handles[1].cancel()  # double-cancel must not double-count
        assert engine.pending == 2

    def test_pending_decrements_on_fire(self):
        engine = Engine()
        engine.schedule(1.0, lambda: None)
        engine.schedule(2.0, lambda: None)
        engine.run(until=1.5)
        assert engine.pending == 1
        engine.run()
        assert engine.pending == 0

    def test_pending_zero_after_cancelling_everything(self):
        engine = Engine()
        handles = [engine.schedule(1.0, lambda: None) for _ in range(5)]
        for handle in handles:
            handle.cancel()
        assert engine.pending == 0
        engine.run()
        assert engine.events_executed == 0


class TestHeapCompaction:
    """Cancelled records are deleted lazily — skipped when popped, never
    swept out of the heap — without disturbing what does fire."""

    def test_firing_order_survives_compaction(self):
        engine = Engine()
        fired = []
        keep = []
        for i in range(200):
            if i % 4 == 0:
                keep.append(i)
                engine.schedule(float(i + 1), lambda i=i: fired.append(i))
            else:
                engine.schedule(float(i + 1), lambda: None).cancel()
        assert engine.pending == 50
        engine.run()
        assert fired == keep

    def test_small_queues_are_left_alone(self):
        engine = Engine()
        handles = [engine.schedule(float(i + 1), lambda: None)
                   for i in range(10)]
        for handle in handles:
            handle.cancel()
        # Lazy deletion: the dead records stay queued, uncounted.
        assert len(engine._queue) == 10
        assert engine.pending == 0


class TestCallSoon:
    def test_call_soon_runs_at_current_time(self):
        engine = Engine(start_time=3.0)
        seen = []
        call_soon(engine, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [3.0]
