"""Wall-clock timers and streaming traces for the backplane.

:class:`WallClock` exposes the subset of the simulation engine's surface
the shared effect executor needs — a ``now`` property and
``schedule(delay, callback)`` returning a cancellable handle — backed by
the asyncio event loop.  ``now`` reads the *system* clock (``time.time``):
all workers run on one host, so their trace timestamps share a clock and
post-hoc certification can order events globally without a logical-clock
protocol.

Protocol timer constants (flush intervals, retransmission timeouts) are
expressed in virtual time units; ``timescale`` maps one unit to real
seconds so a serve run with the default config settles in seconds, not
minutes.

:class:`JsonlTracer` is a :class:`~repro.sim.trace.Tracer` that streams
every record to an append-only JSONL file instead of accumulating it in
memory, encoding each record once and flushing it line by line — a
SIGKILLed worker keeps everything written before the kill, which is
exactly the property post-hoc certification needs.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Any, Callable, Optional

from repro.sim.trace import Tracer


class WallClock:
    """Engine-compatible ``now``/``schedule`` over the asyncio loop."""

    def __init__(self, loop: asyncio.AbstractEventLoop, timescale: float = 1.0):
        if timescale <= 0:
            raise ValueError(f"timescale must be positive, got {timescale}")
        self.loop = loop
        self.timescale = timescale

    @property
    def now(self) -> float:
        """Wall-clock seconds (epoch) — shared across same-host workers."""
        return time.time()

    def schedule(self, delay: float, callback: Callable[[], None],
                 label: Optional[str] = None,
                 callbacks: int = 1) -> asyncio.TimerHandle:
        """Run ``callback`` after ``delay`` *virtual units*; the returned
        handle has ``.cancel()``, matching the engine's EventHandle.
        ``callbacks`` (the engine's event count) means nothing here."""
        return self.loop.call_later(max(0.0, delay) * self.timescale, callback)


class JsonlTracer(Tracer):
    """A tracer that writes each record to a JSONL file as it happens.

    A respawned worker appends to its predecessor's file: a torn final
    line the SIGKILL left is cut off first, so an unparsable line can only
    ever be the last line of a file (which is all the certifier forgives).
    """

    def __init__(self, path: str):
        super().__init__(enabled=True)
        _cut_torn_tail(path)
        self._fh = open(path, "a", encoding="utf-8")

    def record(self, time_: float, category: str,
               process: Optional[int] = None, **data: Any) -> None:
        record = {"time": time_, "category": category, "process": process,
                  "data": data}
        try:
            line = json.dumps(record, default=str)
        except (TypeError, ValueError):
            # A value default= cannot reach (a non-string key, a cycle):
            # stringify that value whole.
            record["data"] = {k: _jsonable(v) for k, v in data.items()}
            line = json.dumps(record, default=str)
        self._fh.write(line + "\n")
        # One line per record: a SIGKILL mid-run loses at most the final
        # partially-written line.
        self._fh.flush()

    def close(self) -> None:
        try:
            self._fh.close()
        except OSError:
            pass


def _jsonable(value: Any) -> Any:
    try:
        json.dumps(value, default=str)
        return value
    except (TypeError, ValueError):
        return str(value)


#: How far :func:`_cut_torn_tail` reads back from the end at a time.
_TAIL_BLOCK = 64 * 1024


def _cut_torn_tail(path: str) -> None:
    """Truncate ``path`` after its last complete line.

    Reads back from the end one block at a time until it meets a newline,
    so a respawn reads the torn line (at most), never the whole trace."""
    try:
        with open(path, "r+b") as fh:
            end = fh.seek(0, 2)
            pos = end
            while pos > 0:
                start = max(0, pos - _TAIL_BLOCK)
                fh.seek(start)
                block = fh.read(pos - start)
                cut = block.rfind(b"\n")
                if cut >= 0:
                    if start + cut + 1 < end:
                        fh.truncate(start + cut + 1)
                    return
                pos = start
            if end:
                fh.truncate(0)
    except FileNotFoundError:
        pass
