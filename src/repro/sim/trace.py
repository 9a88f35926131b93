"""Structured event tracing.

The tracer records what happened and when, in a machine-checkable form.
Integration tests (notably the Figure 1 re-enactment) assert against the
trace, and the experiment harness derives several metrics from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional


@dataclass(frozen=True)
class TraceEvent:
    """One traced occurrence.

    ``category`` is a dotted tag such as ``"msg.deliver"`` or
    ``"recovery.rollback"``; ``process`` the process it happened at (or
    ``None`` for system-wide events); ``data`` free-form details.
    """

    time: float
    category: str
    process: Optional[int]
    data: Dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        where = f"P{self.process}" if self.process is not None else "sys"
        details = " ".join(f"{k}={v}" for k, v in self.data.items())
        return f"[{self.time:10.3f}] {where:>5} {self.category:<22} {details}"


class Tracer:
    """Collects :class:`TraceEvent` records; cheap to disable."""

    def __init__(self, enabled: bool = True, prefix: Optional[str] = None):
        self.enabled = enabled
        #: Only record categories with this dotted prefix (``None`` = all).
        #: Large runs set ``"dep."`` to keep certifier events without
        #: holding millions of msg/timer records in memory.
        self.prefix = prefix
        self.events: List[TraceEvent] = []

    def record(
        self,
        time: float,
        category: str,
        process: Optional[int] = None,
        **data: Any,
    ) -> None:
        """Append an event (no-op when disabled or filtered out)."""
        if not self.enabled:
            return
        if self.prefix is not None and not category.startswith(self.prefix):
            return
        self.events.append(TraceEvent(time, category, process, data))

    def select(
        self,
        category: Optional[str] = None,
        process: Optional[int] = None,
    ) -> List[TraceEvent]:
        """Events matching a category prefix and/or a process id."""
        return list(self.iter_select(category=category, process=process))

    def iter_select(
        self,
        category: Optional[str] = None,
        process: Optional[int] = None,
    ) -> Iterator[TraceEvent]:
        for event in self.events:
            if category is not None and not event.category.startswith(category):
                continue
            if process is not None and event.process != process:
                continue
            yield event

    def count(self, category: str, process: Optional[int] = None) -> int:
        """Number of matching events."""
        return sum(1 for _ in self.iter_select(category=category, process=process))

    def clear(self) -> None:
        self.events.clear()

    def format(self, category: Optional[str] = None) -> str:
        """Human-readable dump, used by the example scripts."""
        return "\n".join(str(e) for e in self.iter_select(category=category))
