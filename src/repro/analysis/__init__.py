"""Statistics and report rendering for experiment sweeps."""

from repro.analysis.report import ascii_series
from repro.analysis.timeline import TimelineRenderer, render_timeline
from repro.analysis.stats import Summary, is_monotone, percentile, summarize

__all__ = ["Summary", "TimelineRenderer", "ascii_series", "is_monotone",
           "percentile", "render_timeline", "summarize"]
