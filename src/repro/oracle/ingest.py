"""Post-hoc certification of ``dep.*`` traces against the oracle.

A live serve run (:mod:`repro.backplane`) cannot carry the ground-truth
:class:`~repro.oracle.graph.DependencyOracle` inline: the oracle needs
*global* knowledge and the workers are separate OS processes.  Instead
every worker streams the ``dep.*`` event family (emitted by the shared
:class:`~repro.runtime.executor.EffectExecutor`) to an append-only JSONL
trace, and :func:`certify_traces` replays the merged event stream through
a fresh oracle after the run:

- ``dep.deliver`` registers the new state interval (with the program-order
  edge and, for internal messages, the sender-interval edge);
- ``dep.stable`` advances the stability frontier;
- ``dep.recover`` truncates the live chain past the survivor and starts
  the new incarnation;
- ``dep.release`` is a *claim* checked against Theorem 4 (at most K
  potential revokers at release);
- ``dep.commit`` is a *claim* checked against the output-commit rule
  (empty revoker set, not an orphan).

Events are merged in timestamp order.  All workers share one host clock
(``time.time``), and each causal edge's prerequisite is written before
the edge can exist — a sender records ``dep.deliver``/``dep.recover`` for
its current interval before releasing any message from it, and stability
is recorded before the notification that spreads it.  Timestamp *ties*
are still possible, so deliveries whose sender interval is not yet
registered are deferred until it is; a delivery whose sender interval
never appears is itself a violation (it would silently weaken orphan
detection).

Soundness note: the replayed oracle sees stability at its *source* time,
possibly earlier than the moment a remote protocol instance learned of
it.  Stability is monotone, so the replayed oracle is always at least as
advanced as any protocol instance's knowledge — it can under-count
revokers relative to a protocol's conservative view, never over-count
them relative to the truth, which is exactly the direction a checker of
Theorem 4 and the commit rule needs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.entry import Entry
from repro.oracle.graph import DependencyOracle


@dataclass
class Certification:
    """The verdict of one post-hoc trace certification."""

    violations: List[str] = field(default_factory=list)
    #: Payloads of committed outputs, in commit-time order.
    committed: List[Any] = field(default_factory=list)
    counts: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations


def load_trace_events(paths: Iterable[str]) -> List[Dict[str, Any]]:
    """Merge JSONL trace files into one time-ordered event list.

    A SIGKILLed worker may leave one torn final line: a last line without
    its newline is skipped.  Any other unparsable line is damage, not a
    torn write, and becomes a violation naming ``file:line``.  Both ride
    along in a leading ``_meta`` event — use :func:`certify_traces` rather
    than reading it.  Ties are broken by (file, line) so the merge is
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
                except ValueError:
                    record = None
                if not isinstance(record, dict) or "category" not in record:
                    if raw.endswith("\n"):
                        unparsable.append(f"{path}:{lindex + 1}")
                    else:
                        skipped += 1
                    continue
                events.append((float(record.get("time", 0.0)),
                               findex, lindex, record))
    events.sort(key=lambda item: item[:3])
    merged = [record for _, _, _, record in events]
    if merged or skipped or unparsable:
        merged.insert(0, {"category": "_meta", "skipped_lines": skipped,
                          "unparsable": unparsable})
    return merged


class _Ingest:
    """Replays one merged event stream through a fresh oracle."""

    def __init__(self, n: int, k: int):
        self.n = n
        self.k = k
        self.oracle = DependencyOracle(n)
        for pid in range(n):
            self.oracle.start_process(pid)
        self.violations: List[str] = []
        self.committed: List[Any] = []
        self.counts = {
            "deliveries": 0, "releases": 0, "commits": 0,
            "recoveries": 0, "stable": 0, "deferred": 0, "skipped_lines": 0,
        }
        #: dep.deliver events waiting for their sender interval.
        self._deferred: List[Dict[str, Any]] = []

    # -- event application ---------------------------------------------------

    def apply(self, record: Dict[str, Any]) -> None:
        category = record.get("category")
        if category == "_meta":
            self.counts["skipped_lines"] = int(record.get("skipped_lines", 0))
            self.violations.extend(f"unparsable trace line {where}"
                                   for where in record.get("unparsable", ()))
            return
        if not isinstance(category, str) or not category.startswith("dep."):
            return
        pid = record.get("process")
        data = record.get("data", {})
        if not isinstance(pid, int) or not 0 <= pid < self.n:
            self.violations.append(
                f"trace event {category} with invalid process {pid!r}")
            return
        if category == "dep.deliver":
            self._deliver(pid, data)
        elif category == "dep.stable":
            self.counts["stable"] += 1
            self.oracle.mark_stable(
                pid, Entry(int(data["inc"]), int(data["sii"])))
        elif category == "dep.recover":
            self.counts["recoveries"] += 1
            self.oracle.record_recovery(
                pid,
                Entry(int(data["s_inc"]), int(data["s_sii"])),
                Entry(int(data["n_inc"]), int(data["n_sii"])),
            )
            self._retry_deferred()
        elif category == "dep.release":
            self._release(pid, data)
        elif category == "dep.commit":
            self._commit(pid, data)

    def _deliver(self, pid: int, data: Dict[str, Any],
                 deferred: bool = False) -> bool:
        src = int(data.get("src", -1))
        sender: Optional[int] = None
        sender_interval: Optional[Entry] = None
        if src >= 0 and "src_inc" in data:
            sender = src
            sender_interval = Entry(int(data["src_inc"]),
                                    int(data["src_sii"]))
            if not self.oracle.exists(
                    (sender, sender_interval.inc, sender_interval.sii)):
                # Timestamp tie: the sender's own interval event sorts
                # later.  Defer; _register would silently drop the edge.
                if not deferred:
                    self.counts["deferred"] += 1
                    self._deferred.append({"process": pid, "data": data})
                return False
        self.counts["deliveries"] += 1
        self.oracle.record_delivery(
            pid, Entry(int(data["inc"]), int(data["sii"])),
            sender, sender_interval)
        if not deferred:
            # The fixpoint loop in _retry_deferred handles cascades; a
            # deferred application must not re-enter it mid-iteration.
            self._retry_deferred()
        return True

    def _retry_deferred(self) -> None:
        # A registration can unblock deferred deliveries, whose application
        # can unblock more: iterate to fixpoint, preserving stream order.
        progress = True
        while progress and self._deferred:
            progress = False
            remaining = []
            for event in self._deferred:
                if self._deliver(event["process"], event["data"],
                                 deferred=True):
                    progress = True
                else:
                    remaining.append(event)
            self._deferred = remaining

    def _release(self, pid: int, data: Dict[str, Any]) -> None:
        self.counts["releases"] += 1
        if data.get("replayed"):
            return  # replay re-send of a pre-crash interval; already checked
        interval = (pid, int(data["inc"]), int(data["sii"]))
        # An interval that never appeared has no revokers: nothing to flag.
        revokers = self.oracle.potential_revokers(interval)
        # A release claim carrying its own bound (Section 4.2 per-message
        # K, recorded by the executor) is certified against that bound.
        k = int(data["k"]) if "k" in data else self.k
        if len(revokers) > k:
            self.violations.append(
                f"Theorem 4 violated: {data.get('msg')} released by P{pid} "
                f"with {len(revokers)} potential revokers "
                f"{sorted(revokers)} > K={k}"
            )

    def _commit(self, pid: int, data: Dict[str, Any]) -> None:
        self.counts["commits"] += 1
        interval = (pid, int(data["inc"]), int(data["sii"]))
        output = data.get("output")
        if not self.oracle.exists(interval):
            self.violations.append(
                f"output {output} committed from unknown interval "
                f"{interval} at P{pid}"
            )
            return
        revokers = self.oracle.potential_revokers(interval)
        if revokers:
            self.violations.append(
                f"output {output} committed with live revokers "
                f"{sorted(revokers)}"
            )
        if self.oracle.is_orphan(interval):
            self.violations.append(
                f"output {output} committed from orphan interval {interval}"
            )
        self.committed.append(data.get("payload"))

    # -- finalization --------------------------------------------------------

    def finish(self) -> Certification:
        for event in self._deferred:
            data = event["data"]
            self.violations.append(
                f"delivery at P{event['process']} interval "
                f"({data.get('inc')},{data.get('sii')}) references sender "
                f"interval (P{data.get('src')},{data.get('src_inc')},"
                f"{data.get('src_sii')}) that never appeared in any trace"
            )
        self.violations.extend(self.oracle.check_consistency())
        return Certification(
            violations=self.violations,
            committed=self.committed,
            counts=self.counts,
        )


def certify_events(events: Sequence[Dict[str, Any]], n: int,
                   k: int) -> Certification:
    """Certify an already-merged, time-ordered event stream."""
    ingest = _Ingest(n, k)
    for record in events:
        ingest.apply(record)
    return ingest.finish()


def certify_tracer(tracer: Any, n: int, k: int) -> Certification:
    """Certify an in-memory simulation :class:`~repro.sim.trace.Tracer`.

    Simulation events are already in execution order (which refines the
    virtual-time order), so no merge or sort is needed — this is the sim
    side of the differential sim-vs-serve test.
    """
    events = [{"time": e.time, "category": e.category,
               "process": e.process, "data": e.data}
              for e in tracer.events]
    return certify_events(events, n, k)


def certify_traces(paths: Iterable[str], n: int, k: int) -> Certification:
    """Certify the ``dep.*`` traces of one run (one JSONL file per worker).

    Returns a :class:`Certification`; an empty ``violations`` list means
    the run exhibited no Theorem-4 violation, no orphan or premature
    output commit, and a consistent (orphan-free) surviving state.
    """
    return certify_events(load_trace_events(paths), n, k)
