"""ASCII space-time diagrams, in the style of the paper's Figure 1.

Renders a :class:`~repro.sim.trace.Tracer`'s event stream as one row per
process: state-interval starts (``(t,x)``), message sends/deliveries,
crashes (``X``), restarts, rollbacks and announcements.  Useful for
eyeballing small scenarios and for the examples' narrated output.

The renderer is deliberately simple: virtual time is divided into equal
columns; each cell shows the most salient event of that process in that
slice (priority: crash > restart > rollback > delivery > release).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.sim.trace import Tracer

#: Event-category → (cell text builder, priority); higher wins a cell.
_PRIORITY = {
    "failure.crash": 5,
    "recovery.restart": 4,
    "recovery.rollback": 3,
    "msg.deliver": 2,
    "msg.release": 1,
}


def _cell_text(category: str, data: Dict[str, Any]) -> str:
    if category == "failure.crash":
        return "X"
    if category == "recovery.restart":
        return "R" + str(data.get("ann", "")).split("inc ")[-1].split(" ")[0]
    if category == "recovery.rollback":
        return "r" + str(data.get("to", ""))
    if category == "msg.deliver":
        return str(data.get("interval", "*"))
    if category == "msg.release":
        return "."
    return "?"


#: Characters per cell.
CELL = 7


class TimelineRenderer:
    """Turns a trace into a fixed-width, one-row-per-process diagram."""

    def __init__(self, n: int, width: int = 72):
        if n <= 0:
            raise ValueError("need at least one process")
        if width < CELL:
            raise ValueError("width must fit at least one cell")
        self.n = n
        self.columns = max(1, width // CELL)

    def render(self, tracer: Tracer, t_start: Optional[float] = None,
               t_end: Optional[float] = None) -> str:
        events = [record for record in tracer.rows()
                  if record[2] is not None and record[1] in _PRIORITY]
        if not events:
            return "(no renderable events)"
        lo = t_start if t_start is not None else min(r[0] for r in events)
        hi = t_end if t_end is not None else max(r[0] for r in events)
        if hi <= lo:
            hi = lo + 1.0
        span = hi - lo

        # cells[pid][col] = (priority, text)
        cells: List[List[Tuple[int, str]]] = [
            [(0, "")] * self.columns for _ in range(self.n)
        ]
        for time, category, pid, data in events:
            if not lo <= time <= hi:
                continue
            col = min(self.columns - 1,
                      int((time - lo) / span * self.columns))
            priority = _PRIORITY[category]
            if priority > cells[pid][col][0]:
                cells[pid][col] = (priority, _cell_text(category, data))

        lines = [self._time_axis(lo, hi)]
        for pid in range(self.n):
            row = "".join(text.ljust(CELL)[:CELL]
                          for _p, text in cells[pid])
            lines.append(f"P{pid:<2} |{row}")
        lines.append(self._legend())
        return "\n".join(lines)

    def _time_axis(self, lo: float, hi: float) -> str:
        left = f"t={lo:.0f}"
        right = f"t={hi:.0f}"
        middle_width = self.columns * CELL - len(left) - len(right)
        return "    " + left + "-" * max(1, middle_width) + right

    @staticmethod
    def _legend() -> str:
        return ("    legend: (t,x)=interval started by a delivery  .=send  "
                "X=crash  R<t>=restart  r(t,x)=rollback to (t,x)")


def render_timeline(tracer: Tracer, n: int, width: int = 72,
                    t_start: Optional[float] = None,
                    t_end: Optional[float] = None) -> str:
    """One-call convenience wrapper around :class:`TimelineRenderer`."""
    return TimelineRenderer(n, width=width).render(tracer, t_start, t_end)
