"""Unit tests for the failure injector."""

import random

from repro.failures.injector import CrashEvent, FailureSchedule


class TestFailureSchedule:
    def test_none_is_empty(self):
        assert len(FailureSchedule.none()) == 0

    def test_single(self):
        schedule = FailureSchedule.single(100.0, 2)
        events = list(schedule)
        assert events == [CrashEvent(100.0, 2)]

    def test_events_sorted_by_time(self):
        schedule = FailureSchedule([CrashEvent(5.0, 0), CrashEvent(1.0, 1)])
        assert [e.time for e in schedule] == [1.0, 5.0]

    def test_random_respects_horizon(self):
        schedule = FailureSchedule.random(random.Random(0), n=4,
                                          horizon=100.0, rate=0.5)
        assert all(0.0 <= e.time < 100.0 for e in schedule)
        assert all(0 <= e.pid < 4 for e in schedule)
        assert len(schedule) > 10  # expectation ~50

    def test_random_zero_rate(self):
        assert len(FailureSchedule.random(random.Random(0), 4, 100.0, 0.0)) == 0

    def test_random_deterministic_for_seed(self):
        a = FailureSchedule.random(random.Random(7), 4, 100.0, 0.2)
        b = FailureSchedule.random(random.Random(7), 4, 100.0, 0.2)
        assert a.events == b.events

    def test_random_start_offset(self):
        schedule = FailureSchedule.random(random.Random(0), 4, 100.0, 0.5,
                                          start=50.0)
        assert all(e.time >= 50.0 for e in schedule)


class TestUnifiedEventStream:
    def test_mixed_events_sorted_by_time(self):
        from repro.failures.injector import HealEvent, LossEvent, PartitionEvent

        schedule = FailureSchedule([
            HealEvent(90.0),
            CrashEvent(10.0, 1),
            PartitionEvent(50.0, ((2, 3),)),
            LossEvent(30.0, drop=0.1),
        ])
        assert [e.time for e in schedule] == [10.0, 30.0, 50.0, 90.0]

    def test_crashes_view_filters_network_events(self):
        from repro.failures.injector import HealEvent, PartitionEvent

        schedule = FailureSchedule([
            CrashEvent(10.0, 1),
            PartitionEvent(50.0, ((2,),)),
            HealEvent(90.0),
            CrashEvent(70.0, 0),
        ])
        assert schedule.crashes == [CrashEvent(10.0, 1), CrashEvent(70.0, 0)]

    def test_has_network_events(self):
        from repro.failures.injector import LossEvent

        assert not FailureSchedule([CrashEvent(1.0, 0)]).has_network_events()
        assert FailureSchedule([LossEvent(1.0, drop=0.2)]).has_network_events()
        assert not FailureSchedule.none().has_network_events()
