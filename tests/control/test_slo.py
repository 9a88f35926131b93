"""The controller's latency window and the degenerate-window-safe sample
statistics.

The latency-accounting sweep's contract: mean and percentile are *total*
functions — empty windows, single samples and
boundary percentiles are answers, not crashes.
"""

import pytest

from repro.control import AdaptiveKController, Observation
from repro.control import controller as control
from repro.runtime.metrics import sample_mean, sample_percentile


class TestSampleHelpers:
    def test_mean_of_empty_is_zero(self):
        assert sample_mean([]) == 0.0

    def test_mean_of_single(self):
        assert sample_mean([7.5]) == 7.5

    def test_percentile_of_empty_is_zero(self):
        assert sample_percentile([], 99.0) == 0.0

    def test_percentile_of_single_is_the_sample(self):
        # Pre-fix this interpolated against a one-element range and the
        # p0/p100 boundary cases indexed out of the list.
        for q in (0.0, 50.0, 99.0, 100.0):
            assert sample_percentile([3.25], q) == 3.25

    def test_percentile_boundaries(self):
        samples = [4.0, 1.0, 3.0, 2.0]
        assert sample_percentile(samples, 0.0) == 1.0
        assert sample_percentile(samples, 100.0) == 4.0
        assert sample_percentile(samples, 50.0) == 2.5
        assert sample_percentile([3.0, 1.0, 2.0], 50.0) == 2.0

    def test_percentile_interpolates(self):
        assert sample_percentile([0.0, 10.0], 25.0) == 2.5

    def test_percentile_rejects_out_of_range_q(self):
        with pytest.raises(ValueError):
            sample_percentile([1.0], -1.0)
        with pytest.raises(ValueError):
            sample_percentile([1.0], 100.5)

    def test_inputs_are_not_mutated(self):
        samples = [3.0, 1.0, 2.0]
        sample_percentile(samples, 50.0)
        assert samples == [3.0, 1.0, 2.0]


class TestLatencyWindow:
    """The window the controller's SLO test reads."""

    def test_empty_window_statistics(self):
        controller = AdaptiveKController(0, 8, 50.0)
        assert len(controller.window) == 0
        assert sample_mean(controller.window) == 0.0
        assert sample_percentile(controller.window, 99.0) == 0.0

    def test_single_sample_statistics(self):
        # One sample is the watched percentile: above the target it is
        # latency pressure, below it a hold.
        for sample, k in ((60.0, 5), (40.0, 4)):
            controller = AdaptiveKController(0, 8, 50.0)
            controller.observe(Observation(10.0, revocations=1))
            controller.observe(Observation(20.0, revocations=1,
                                           commit_waits=(sample,)))
            assert sample_percentile(controller.window, 50.0) == sample
            assert controller.k == k

    def test_bounded_eviction(self, monkeypatch):
        monkeypatch.setattr(control, "WINDOW", 3)
        controller = AdaptiveKController(0, 8, 50.0)
        controller.observe(Observation(10.0, revocations=0,
                                       commit_waits=(1.0, 2.0, 3.0, 4.0)))
        assert list(controller.window) == [2.0, 3.0, 4.0]
        assert sample_mean(controller.window) == 3.0
