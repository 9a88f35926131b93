"""LatencyWindow and the degenerate-window-safe sample statistics.

The latency-accounting sweep's contract: mean and percentile are *total*
functions — empty windows, single samples and
boundary percentiles are answers, not crashes.
"""

import pytest

from repro.control.slo import LatencyWindow
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
    def test_rejects_degenerate_maxlen(self):
        with pytest.raises(ValueError):
            LatencyWindow(0)

    def test_empty_window_statistics(self):
        window = LatencyWindow(8)
        assert window.count == 0
        assert window.mean() == 0.0
        assert window.percentile(99.0) == 0.0

    def test_single_sample_statistics(self):
        window = LatencyWindow(8)
        window.add(4.0)
        assert window.mean() == 4.0
        assert window.percentile(50.0) == 4.0
        assert window.percentile(99.0) == 4.0

    def test_bounded_eviction(self):
        window = LatencyWindow(3)
        window.extend([1.0, 2.0, 3.0, 4.0])
        assert window.count == 3
        assert window.samples() == [2.0, 3.0, 4.0]
        assert window.mean() == 3.0

    def test_clear(self):
        window = LatencyWindow(4)
        window.extend([1.0, 2.0])
        window.clear()
        assert window.count == 0
        assert len(window) == 0
        assert window.percentile(95.0) == 0.0
