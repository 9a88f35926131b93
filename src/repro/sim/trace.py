"""Structured event tracing.

The tracer records what happened and when, in a machine-checkable form.
Integration tests (notably the Figure 1 re-enactment) assert against the
trace, and the experiment harness derives several metrics from it.  A
record is kept as a flat row with one shared key tuple per key set, so a
row of atomic values leaves the cyclic collector; :class:`TraceEvent`
objects are built only when read.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

#: One record as plain values: ``(time, category, process, data)``.
Record = Tuple[float, str, Optional[int], Dict[str, Any]]


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
    """Collects trace records as flat rows; cheap to disable."""

    def __init__(self, enabled: bool = True, prefix: Optional[str] = None):
        self.enabled = enabled
        #: Only record categories with this dotted prefix (``None`` = all).
        #: Large runs set ``"dep."`` to keep certifier events without
        #: holding millions of msg/timer records in memory.
        self.prefix = prefix
        #: ``(time, category, process, keys, values)``, one per record.
        self._rows: List[Tuple[Any, ...]] = []
        self._key_sets: Dict[Tuple[str, ...], Tuple[str, ...]] = {}
        #: Every record as a :class:`TraceEvent` (a read-only sequence).
        self.events = _EventView(self._rows)

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
        keys = tuple(data)
        self._rows.append((time, category, process,
                           self._key_sets.setdefault(keys, keys),
                           tuple(data.values())))

    def rows(self, category: Optional[str] = None,
             process: Optional[int] = None) -> Iterator[Record]:
        """Records matching a category prefix and/or a process id, as
        plain tuples in recording order; builds no :class:`TraceEvent`."""
        for time, cat, pid, keys, values in self._rows:
            if category is not None and not cat.startswith(category):
                continue
            if process is not None and pid != process:
                continue
            yield time, cat, pid, dict(zip(keys, values))

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
        for record in self.rows(category, process):
            yield TraceEvent(*record)

    def count(self, category: str, process: Optional[int] = None) -> int:
        """Number of matching events."""
        return sum(1 for _ in self.rows(category, process))

    def clear(self) -> None:
        self._rows.clear()
        self.events._built.clear()

    def format(self, category: Optional[str] = None) -> str:
        """Human-readable dump, used by the example scripts."""
        return "\n".join(str(e) for e in self.iter_select(category=category))


class _EventView(Sequence):
    """:attr:`Tracer.events`: reads, and compares equal, as the list of
    the events recorded so far; each is built once, on its first read."""

    def __init__(self, rows: List[Tuple[Any, ...]]):
        self._rows = rows
        self._built: List[TraceEvent] = []

    def _events(self) -> List[TraceEvent]:
        built = self._built
        built.extend(TraceEvent(t, c, p, dict(zip(k, v)))
                     for t, c, p, k, v in self._rows[len(built):])
        return built

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, index: Any) -> Any:
        return self._events()[index]

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, _EventView):
            other = other._events()
        if not isinstance(other, list):
            return NotImplemented
        return self._events() == other
