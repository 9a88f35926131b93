"""SLO accounting: bounded latency windows with degenerate-window-safe math.

Output-commit latency is the quantity the paper's K trade-off is *about*:
higher K releases messages earlier (shorter chains to commit) at the cost
of more revocation exposure.  The controller reads a :class:`LatencyWindow`;
the run-level metrics call :func:`repro.runtime.metrics.sample_percentile`
directly.  Both are total functions: empty and single-sample windows are
well-defined, not errors.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List

from repro.runtime.metrics import sample_mean, sample_percentile


class LatencyWindow:
    """A bounded sliding window of latency samples."""

    def __init__(self, maxlen: int = 256):
        if maxlen < 1:
            raise ValueError(f"window maxlen must be >= 1, got {maxlen}")
        self._samples: Deque[float] = deque(maxlen=maxlen)

    def add(self, sample: float) -> None:
        self._samples.append(sample)

    def extend(self, samples) -> None:
        self._samples.extend(samples)

    def clear(self) -> None:
        self._samples.clear()

    @property
    def count(self) -> int:
        return len(self._samples)

    def mean(self) -> float:
        """Mean of the window; 0.0 when empty."""
        return sample_mean(self._samples)

    def percentile(self, q: float) -> float:
        """q-th percentile of the window; 0.0 when empty, the sample
        itself when the window holds exactly one."""
        return sample_percentile(self._samples, q)

    def samples(self) -> List[float]:
        return list(self._samples)

    def __len__(self) -> int:  # pragma: no cover - trivial
        return len(self._samples)
