"""The one judge of every run.

A :class:`Certifier` owns the ground-truth :class:`DependencyOracle` and
takes the five facts the shared :class:`~repro.runtime.executor.
EffectExecutor` emits, as typed calls: :meth:`~Certifier.deliver`,
:meth:`~Certifier.stable` and :meth:`~Certifier.recover` build the graph;
:meth:`~Certifier.release` is judged against Theorem 4 (at most K
potential revokers, the message's own bound when it has one, replayed or
not) and :meth:`~Certifier.commit` against the output-commit rule (a
known interval with no potential revoker, not an orphan).
:meth:`~Certifier.finish` judges quiescent consistency, the
committed-output ledger — each output committed once, none from an
interval rolled back or orphaned by the end — and lost work: every send
a surviving interval made was released, and every output it made was
committed.  A certifier built without ``check_invariants`` only builds
the graph: it judges nothing.

In simulation each host's executor makes the calls inline, as it
interprets the effects; :mod:`repro.oracle.ingest` makes them from a
trace's ``dep.*`` records after the run.  One class, so both feeds give
the same verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.core.entry import Entry
from repro.oracle.graph import DependencyOracle, IntervalId


@dataclass
class Certification:
    """The verdict of one certification."""

    violations: List[str] = field(default_factory=list)
    #: Payloads of committed outputs, in commit order.
    committed: List[Any] = field(default_factory=list)
    counts: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations


class Certifier:
    """Builds one run's dependency graph and judges every claim on it."""

    def __init__(self, n: int, k: int, check_invariants: bool = True):
        self.k = k
        #: Whether releases, commits and the end of the run are judged;
        #: without, the certifier only tracks the dependency graph.
        self.check_invariants = check_invariants
        self.oracle = DependencyOracle(n)
        for pid in range(n):
            self.oracle.start_process(pid)
        self.violations: List[str] = []
        self.committed: List[Any] = []
        #: Largest potential-revoker set seen at any release.
        self.max_release_revokers = 0
        self.counts = {
            "deliveries": 0, "releases": 0, "commits": 0,
            "recoveries": 0, "stable": 0, "deferred": 0, "skipped_lines": 0,
        }
        #: Deliveries waiting for their sender interval, by that interval.
        self._waiting: Dict[IntervalId, List[Tuple[Any, ...]]] = {}
        #: Every commit in order: (output, interval), or (output, None)
        #: when the commit was already condemned (unknown or orphan).
        self._ledger: List[Tuple[Any, Optional[IntervalId]]] = []
        #: Where :meth:`finish` put its verdicts in ``violations``, and
        #: which: a later call replaces them instead of repeating them.
        self._final: Tuple[int, List[str]] = (0, [])
        #: Every Theorem 4 verdict reported, so a repeat is not.
        self._release_verdicts: Set[str] = set()
        #: Intervals with a send not yet released, and with an output not
        #: yet committed: one bit per send or output.
        self._owed: Dict[IntervalId, int] = {}
        self._owed_outputs: Dict[IntervalId, int] = {}
        #: Processes that record their own stability only at Checkpoint:
        #: their sends and outputs may wait at quiescence, so they owe none.
        self.checkpoint_only: Set[int] = set()
        #: ``(interval, seq) -> bool``: whether an output a surviving
        #: interval never committed is excused.  The inline feed excuses a
        #: commit journaled at a process that crashed (the known loss at
        #: the fsync boundary); post hoc nothing is.
        self.output_excused: Callable[[IntervalId, int], bool] = \
            lambda iid, seq: False

    # -- facts ---------------------------------------------------------------

    def deliver(self, pid: int, interval: Entry, src: int,
                src_interval: Optional[Entry], sends: int = 0,
                outputs: int = 0) -> None:
        """A delivery at ``pid`` started ``interval``, which made ``sends``
        sends and ``outputs`` outputs.  One whose sender interval has not
        appeared (a tie in a merged trace) waits for it: registering it
        now would drop the edge."""
        if self.check_invariants:
            iid = (pid, interval.inc, interval.sii)
            if sends:
                self._owed[iid] = (1 << sends) - 1
            if outputs:
                self._owed_outputs[iid] = (1 << outputs) - 1
        if src >= 0 and src_interval is not None:
            sender = (src, src_interval.inc, src_interval.sii)
            if not self.oracle.exists(sender):
                self.counts["deferred"] += 1
                self._waiting.setdefault(sender, []).append(
                    (pid, interval, src, src_interval))
                return
        self.counts["deliveries"] += 1
        self.oracle.record_delivery(pid, interval, src, src_interval)
        for waiter in self._waiting.pop((pid, interval.inc, interval.sii), ()):
            self.deliver(*waiter)

    def stable(self, pid: int, through: Entry) -> None:
        """``pid``'s live chain is stable up to ``through``."""
        self.counts["stable"] += 1
        self.oracle.mark_stable(pid, through)

    def recover(self, pid: int, survivor: Entry, new_current: Entry) -> int:
        """``pid`` rolled back (or restarted) to ``survivor`` and began
        ``new_current``; returns how many intervals of its live chain lay
        past the survivor (those a restart lost)."""
        self.counts["recoveries"] += 1
        lost = max(0, self.oracle.live_interval(pid)[2] - survivor.sii)
        self.oracle.record_recovery(pid, survivor, new_current)
        new = (pid, new_current.inc, new_current.sii)
        for waiter in self._waiting.pop(new, ()):
            self.deliver(*waiter)
        return lost

    # -- claims --------------------------------------------------------------

    def release(self, pid: int, interval: Entry, msg: Any,
                k: Optional[int] = None, seq: int = 0) -> None:
        """Theorem 4: ``msg``, the ``seq``-th send of ``interval``, leaves
        with at most ``k`` (default: the run's K) potential revokers.  An
        interval that never appeared has none."""
        if not self.check_invariants:
            return
        iid = (pid, interval.inc, interval.sii)
        _pay(self._owed, iid, seq)
        self.counts["releases"] += 1
        revokers = self.oracle.potential_revokers(iid)
        if len(revokers) > self.max_release_revokers:
            self.max_release_revokers = len(revokers)
        bound = self.k if k is None else k
        if len(revokers) > bound:
            text = (f"Theorem 4 violated: {msg} released by P{pid} with "
                    f"{len(revokers)} potential revokers {sorted(revokers)} "
                    f"> K={bound}")
            # A message released again (a sent-log copy for a restarted
            # receiver) over the same revokers is the same claim.
            if text not in self._release_verdicts:
                self._release_verdicts.add(text)
                self.violations.append(text)

    def commit(self, pid: int, interval: Entry, output: Any,
               payload: Any = None, seq: int = 0) -> None:
        """The output-commit rule for ``output``, the ``seq``-th output of
        ``interval``."""
        if not self.check_invariants:
            return
        self.counts["commits"] += 1
        self.committed.append(payload)
        iid = (pid, interval.inc, interval.sii)
        _pay(self._owed_outputs, iid, seq)
        oracle = self.oracle
        if not oracle.exists(iid):
            self._ledger.append((output, None))
            self.violations.append(
                f"output {output} committed from unknown interval {iid} "
                f"at P{pid}")
            return
        revokers = oracle.potential_revokers(iid)
        if revokers:
            self.violations.append(
                f"output {output} committed with live revokers "
                f"{sorted(revokers)}")
        if oracle.is_orphan(iid):
            self._ledger.append((output, None))
            self.violations.append(
                f"output {output} committed from orphan interval {iid}")
        else:
            self._ledger.append((output, iid))

    # -- the end of the run --------------------------------------------------

    def finish(self) -> Certification:
        """Judge the quiescent state and the committed-output ledger.

        Judged again (a run settled twice), the new verdicts replace the
        previous call's; a certifier without ``check_invariants`` judges
        nothing."""
        violations = self.violations
        if not self.check_invariants:
            return Certification(violations=violations)
        start, previous = self._final
        if violations[start:start + len(previous)] == previous:
            del violations[start:start + len(previous)]
        start = len(violations)
        for waiters in self._waiting.values():
            for pid, interval, src, src_interval in waiters:
                violations.append(
                    f"delivery at P{pid} interval ({interval.inc},"
                    f"{interval.sii}) references sender interval (P{src},"
                    f"{src_interval.inc},{src_interval.sii}) that never "
                    f"appeared in any trace")
        violations.extend(self.oracle.check_consistency())
        seen: Set[Any] = set()
        for output, iid in self._ledger:
            if output in seen:
                violations.append(f"output {output} committed more than once")
            elif iid is not None and self.oracle.node(iid).rolled_back:
                violations.append(
                    f"output {output} committed from rolled-back interval "
                    f"{iid} (committed output was revoked)")
            elif iid is not None and self.oracle.is_orphan(iid):
                violations.append(
                    f"output {output} committed from orphan interval {iid}")
            seen.add(output)
        oracle = self.oracle
        for owed, lost, excused in (
                (self._owed, "released send(s)", lambda iid, seq: False),
                (self._owed_outputs, "committed output(s)",
                 self.output_excused)):
            for iid, bits in sorted(owed.items()):
                if (iid[0] in self.checkpoint_only or not oracle.exists(iid)
                        or oracle.node(iid).rolled_back
                        or oracle.is_orphan(iid)):
                    continue
                seqs = [seq for seq in range(bits.bit_length())
                        if bits >> seq & 1 and not excused(iid, seq)]
                if seqs:
                    violations.append(
                        f"surviving interval {iid} never {lost} {seqs}")
        self._final = (start, violations[start:])
        return Certification(
            violations=violations, committed=self.committed,
            counts=dict(self.counts,
                        max_release_revokers=self.max_release_revokers))


def _pay(owed: Dict[IntervalId, int], iid: IntervalId, seq: int) -> None:
    """Clear bit ``seq`` of what ``iid`` owes; forget it once it owes
    nothing."""
    bits = owed.get(iid)
    if bits is not None:
        bits &= ~(1 << seq)
        if bits:
            owed[iid] = bits
        else:
            del owed[iid]
