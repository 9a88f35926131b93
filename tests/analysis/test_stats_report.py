"""Unit tests for the analysis helpers (stats + report rendering)."""

import pytest

from repro.analysis import report
from repro.analysis.report import ascii_series
from repro.analysis.stats import is_monotone, summarize
from repro.runtime.metrics import sample_percentile


class TestSummarize:
    def test_single_value(self):
        s = summarize([4.0])
        assert s.mean == 4.0
        assert s.ci_low == s.ci_high == 4.0
        assert s.std == 0.0

    def test_mean_and_symmetric_ci(self):
        s = summarize([1.0, 2.0, 3.0, 4.0, 5.0])
        assert s.mean == 3.0
        assert s.ci_low < 3.0 < s.ci_high
        assert abs((3.0 - s.ci_low) - (s.ci_high - 3.0)) < 1e-9

    def test_ci_narrows_with_more_samples(self):
        narrow = summarize([3.0 + 0.1 * i for i in range(50)])
        wide = summarize([3.0, 3.5, 2.5])
        assert (narrow.ci_high - narrow.ci_low) < (wide.ci_high - wide.ci_low)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_str_format(self):
        assert "+/-" in str(summarize([1.0, 2.0]))


class TestPercentile:
    """Spot checks of the package's one percentile,
    :func:`repro.runtime.metrics.sample_percentile` (the analysis module
    has none of its own); ``tests/control/test_slo.py`` holds its full
    contract."""

    def test_endpoints(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert sample_percentile(values, 0) == 1.0
        assert sample_percentile(values, 100) == 4.0

    def test_median_interpolates(self):
        assert sample_percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
        assert sample_percentile([1.0, 2.0, 3.0], 50) == 2.0

    def test_unsorted_input(self):
        assert sample_percentile([4.0, 1.0, 3.0, 2.0], 100) == 4.0

    def test_validation(self):
        # An empty sample is a degenerate window, reported as 0.0.
        assert sample_percentile([], 50) == 0.0
        with pytest.raises(ValueError):
            sample_percentile([1.0], 101)


class TestIsMonotone:
    def test_increasing(self):
        assert is_monotone([1, 2, 2, 3])
        assert not is_monotone([1, 3, 2])

    def test_decreasing(self):
        assert is_monotone([3, 2, 2, 1], decreasing=True)
        assert not is_monotone([3, 1, 2], decreasing=True)

    def test_tolerance(self):
        assert is_monotone([1.0, 0.95, 1.5], tolerance=0.1)

    def test_trivial(self):
        assert is_monotone([])
        assert is_monotone([7])


class TestAsciiSeries:
    def test_bars_proportional(self, monkeypatch):
        monkeypatch.setattr(report, "WIDTH", 10)
        text = ascii_series("hold", [0, 8], [10.0, 5.0])
        lines = text.splitlines()
        assert lines[1].count("#") == 10
        assert lines[2].count("#") == 5

    def test_zero_values(self):
        text = ascii_series("x", ["a"], [0.0])
        assert "#" not in text.splitlines()[1]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ascii_series("x", [1, 2], [1.0])

    def test_empty(self):
        assert "(no data)" in ascii_series("x", [], [])
