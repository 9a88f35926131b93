"""Post-hoc certification: a trace's ``dep.*`` records fed to the one
:class:`~repro.oracle.certifier.Certifier`.

Runs whose processes cannot feed a certifier inline (``serve``, the
epoch-parallel workers, a run with the inline oracle off) record the
``dep.*`` family instead, and this module parses each record into the
typed call it stands for: ``dep.deliver``, ``dep.stable``,
``dep.recover``, ``dep.release`` and ``dep.commit`` map to the
certifier's method of the same name.  A record with a missing or
ill-typed field is a violation, not an exception.

Trace files are merged in timestamp order.  All workers share one host
clock, and a sender records its interval before releasing anything from
it, so only ties can put an edge before its sender interval; the
certifier defers such a delivery.  The replayed oracle sees stability at
its *source* time, no later than any protocol instance learned of it: it
can under-count revokers relative to a protocol's conservative view,
never over-count them relative to the truth — the direction a checker of
Theorem 4 and the commit rule needs.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Sequence, Tuple

from repro.core.entry import Entry
from repro.oracle.certifier import Certification, Certifier


def load_trace_events(paths: Iterable[str]) -> List[Dict[str, Any]]:
    """Merge JSONL trace files into one time-ordered event list.

    A SIGKILLed worker may leave one torn final line: a last line without
    its newline is skipped.  Any other unparsable line (not a JSON object,
    or a ``time`` that is not a number) is damage, not a torn write, and
    becomes a violation naming ``file:line``.  Both ride along in a
    leading ``_meta`` event — use :func:`certify_traces` rather than
    reading it.  Ties are broken by (file, line) so the merge is
    deterministic.
    """
    events: List[Tuple[float, int, int, Dict[str, Any]]] = []
    skipped = 0
    unparsable: List[str] = []
    for findex, path in enumerate(paths):
        with open(path, encoding="utf-8") as fh:
            for lindex, raw in enumerate(fh):
                line = raw.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                    time = float(record.get("time", 0.0))
                except (AttributeError, TypeError, ValueError):
                    record = None
                if not isinstance(record, dict) or "category" not in record:
                    if raw.endswith("\n"):
                        unparsable.append(f"{path}:{lindex + 1}")
                    else:
                        skipped += 1
                    continue
                events.append((time, findex, lindex, record))
    events.sort(key=lambda item: item[:3])
    merged = [record for _, _, _, record in events]
    if merged or skipped or unparsable:
        merged.insert(0, {"category": "_meta", "skipped_lines": skipped,
                          "unparsable": unparsable})
    return merged


def _entry(data: Dict[str, Any], inc: str, sii: str) -> Entry:
    return Entry(int(data[inc]), int(data[sii]))


def _apply(certifier: Certifier, record: Dict[str, Any]) -> None:
    """Turn one trace record into the typed call it stands for.

    A ``dep.*`` record with a missing or ill-typed field is itself a
    violation naming its category, process and time: a certifier that
    raised on damage would leave the run without a verdict."""
    category = record.get("category")
    if category == "_meta":
        certifier.counts["skipped_lines"] = int(record.get("skipped_lines", 0))
        certifier.violations.extend(f"unparsable trace line {where}"
                                    for where in record.get("unparsable", ()))
        return
    if category not in ("dep.deliver", "dep.stable", "dep.recover",
                        "dep.release", "dep.commit"):
        return
    pid = record.get("process")
    if not isinstance(pid, int) or not 0 <= pid < certifier.oracle.n:
        certifier.violations.append(
            f"trace event {category} with invalid process {pid!r}")
        return
    data = record.get("data")
    try:
        if not isinstance(data, dict):
            raise TypeError(f"data is {type(data).__name__}, not a mapping")
        if category == "dep.recover":
            call, args = certifier.recover, (_entry(data, "s_inc", "s_sii"),
                                             _entry(data, "n_inc", "n_sii"))
        elif category == "dep.deliver":
            src = int(data.get("src", -1))
            call, args = certifier.deliver, (
                _entry(data, "inc", "sii"), src,
                _entry(data, "src_inc", "src_sii")
                if src >= 0 and "src_inc" in data else None,
                int(data.get("sends", 0)), int(data.get("outputs", 0)))
        elif category == "dep.stable":
            call, args = certifier.stable, (_entry(data, "inc", "sii"),)
        elif category == "dep.release":
            call, args = certifier.release, (
                _entry(data, "inc", "sii"), data.get("msg"),
                int(data["k"]) if "k" in data else None,
                int(data.get("seq", 0)))
        else:
            call, args = certifier.commit, (
                _entry(data, "inc", "sii"), str(data["output"]),
                data.get("payload"), int(data.get("seq", 0)))
    except (KeyError, ValueError, TypeError) as exc:
        certifier.violations.append(
            f"malformed {category} record at P{pid}, "
            f"t={record.get('time')!r}: {type(exc).__name__} {exc}")
        return
    call(pid, *args)


def certify_events(events: Sequence[Dict[str, Any]], n: int,
                   k: int) -> Certification:
    """Certify an already-merged, time-ordered event stream."""
    certifier = Certifier(n, k)
    for record in events:
        _apply(certifier, record)
    return certifier.finish()


def certify_tracer(tracer: Any, n: int, k: int) -> Certification:
    """Certify an in-memory simulation :class:`~repro.sim.trace.Tracer`.

    Simulation events are already in execution order (which refines the
    virtual-time order), so no merge or sort is needed — this is the sim
    side of the differential sim-vs-serve test.
    """
    return certify_events(
        [{"time": time, "category": category, "process": process,
          "data": data}
         for time, category, process, data in tracer.rows("dep.")], n, k)


def certify_traces(paths: Iterable[str], n: int, k: int) -> Certification:
    """Certify the ``dep.*`` traces of one run (one JSONL file per worker).

    Returns a :class:`Certification`; an empty ``violations`` list means
    the run exhibited no Theorem-4 violation, no orphan, premature,
    repeated or revoked output commit, and a consistent (orphan-free)
    surviving state.
    """
    return certify_events(load_trace_events(paths), n, k)
