"""Summary statistics for multi-seed experiment sweeps.

Thin, dependency-light helpers (scipy is used for the t-quantile when
available, with a normal-approximation fallback) so experiments can report
``mean ± CI`` instead of single-seed point estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class Summary:
    """Mean, spread and a confidence interval for one metric."""

    n: int
    mean: float
    std: float
    ci_low: float
    ci_high: float

    def __str__(self) -> str:
        return f"{self.mean:.3f} +/- {(self.ci_high - self.mean):.3f}"


def _t_quantile(df: int, confidence: float) -> float:
    """Two-sided Student-t quantile; falls back to the normal value."""
    try:
        from scipy import stats

        return float(stats.t.ppf(0.5 + confidence / 2.0, df))
    except Exception:  # pragma: no cover - scipy is present in CI
        return 1.96


def summarize(values: Sequence[float], confidence: float = 0.95) -> Summary:
    """Mean with a two-sided t confidence interval."""
    values = list(values)
    if not values:
        raise ValueError("cannot summarize an empty sample")
    n = len(values)
    mean = sum(values) / n
    if n == 1:
        return Summary(1, mean, 0.0, mean, mean)
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    std = math.sqrt(var)
    half = _t_quantile(n - 1, confidence) * std / math.sqrt(n)
    return Summary(n, mean, std, mean - half, mean + half)


def is_monotone(values: Sequence[float], decreasing: bool = False,
                tolerance: float = 0.0) -> bool:
    """True iff the sequence is (weakly) monotone up to ``tolerance``."""
    pairs = zip(values, list(values)[1:])
    if decreasing:
        return all(b <= a + tolerance for a, b in pairs)
    return all(b >= a - tolerance for a, b in pairs)
