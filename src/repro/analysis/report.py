"""Report rendering: quick ASCII series plots.

Experiments print text tables (``runtime.metrics.format_table``); the bar
chart here makes the tradeoff curves legible at a glance.
"""

from __future__ import annotations

from typing import Sequence

#: The length of the longest bar.
WIDTH = 48


def ascii_series(name: str, xs: Sequence[object], ys: Sequence[float]) -> str:
    """A horizontal bar chart: one row per x, bar length proportional to y."""
    if len(xs) != len(ys):
        raise ValueError("xs and ys must have the same length")
    if not xs:
        return f"{name}: (no data)"
    peak = max(ys) or 1.0
    label_width = max(len(str(x)) for x in xs)
    lines = [f"{name} (max {peak:.3g})"]
    for x, y in zip(xs, ys):
        bar = "#" * max(0, round(WIDTH * y / peak)) if peak > 0 else ""
        lines.append(f"  {str(x):>{label_width}} | {bar} {y:.3g}")
    return "\n".join(lines)
