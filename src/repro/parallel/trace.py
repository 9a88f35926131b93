"""Canonical ordering and dumping of ``dep.*`` certification traces.

A parallel run produces one per-worker trace per worker process; a serial
run produces a single interleaved trace.  The interleaving of *different*
processes' same-time events is scheduler detail, not protocol behaviour —
each process's own event order is what the certifier's happened-before
reconstruction consumes.  The canonical form therefore stable-sorts
events by ``(time, process)``: per-process order is preserved exactly
(every process lives on exactly one worker), and cross-process same-time
order is normalized.  Serial and parallel runs of the same scenario must
produce byte-identical canonical dumps — the differential suite asserts
exactly that.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Tuple

#: One canonical event: (time, category, process, data).
DepEvent = Tuple[float, str, int, Dict[str, Any]]


def canonical_dep_events(events: Iterable[Any]) -> List[DepEvent]:
    """``dep.*`` events in canonical order, from ``(time, category,
    process, data)`` records (``Tracer.rows()``, a worker's results).

    Stable sort by ``(time, process)``: per-process relative order (the
    semantic content) survives; cross-process same-time interleaving (the
    scheduler accident) is normalized away.
    """
    deps = [(float(time), category, -1 if process is None else process,
             dict(data))
            for time, category, process, data in events
            if category.startswith("dep.")]
    deps.sort(key=lambda e: (e[0], e[2]))
    return deps


def render_jsonl(events: Iterable[DepEvent]) -> str:
    """The canonical JSONL text (exact bytes the differential suite
    compares, and the format :mod:`repro.oracle.ingest` loads)."""
    lines = []
    for time, category, process, data in events:
        lines.append(json.dumps(
            {"time": time, "category": category, "process": process,
             "data": data},
            sort_keys=True,
        ))
    return "\n".join(lines) + ("\n" if lines else "")
