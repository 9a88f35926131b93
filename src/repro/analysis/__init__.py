"""Statistics and report rendering for experiment sweeps."""

from repro.analysis.report import ascii_series
from repro.analysis.timeline import TimelineRenderer, render_timeline
from repro.analysis.stats import Summary, is_monotone, summarize

__all__ = ["Summary", "TimelineRenderer", "ascii_series", "is_monotone",
           "render_timeline", "summarize"]
