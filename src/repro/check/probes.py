"""The invariant probe layer.

A :class:`ProbeSet` hangs checks off the harness's effect and step hooks
and accumulates violations.  Together with the harness's
:class:`~repro.oracle.certifier.Certifier` (which judges every run when
``check_invariants`` is on), every scenario run evaluates:

- **Theorem 1 (step form)** — no *known* orphan is ever delivered to the
  application: at delivery time the receiver's own incarnation-end table
  must not invalidate any piggybacked dependency.  (Transient *unknown*
  orphans are legitimate in optimistic logging — they are created while a
  failure announcement is still in flight and rolled back when it lands —
  so full orphan-freedom is only a quiescent property, checked by
  ``DependencyOracle.check_consistency`` at settle time.)  The probe
  evaluates the raw table via ``vector_known_orphan`` rather than the
  protocol's own ``_is_orphan_message`` so a variant that breaks its
  orphan check cannot also blind the checker.
- **Theorem 3 (coverage)** — after every step, each live process's
  dependency vector still covers every non-stable interval of *other*
  processes in its causal past.  The protocol nullifies an entry only
  when its log table proves stability, and protocol stability knowledge
  is a subset of the oracle's, so on a correct protocol this never fires;
  a variant that forgets piggybacked entries trips it.
- **Theorem 2 (completeness)** — the other direction: after every step,
  the log table of a live process that applies Theorem 2 (K-optimistic
  logging and the baselines that inherit its nullification) covers no
  non-own entry of its vector, and no entry of a held send or a pending
  output.  Every log change is followed by the nullification passes, so
  a variant that skips one leaves a known-stable entry behind.
- **Theorem 4 and the output-commit rule** — not a probe: the certifier
  judges the release bound (at most K potential revokers per released
  message) on every ``ReleaseMessage`` effect, and the empty-revoker rule
  on every output commit.
- **per-message K discipline** — a released message that carries its own
  bound (Section 4.2) must satisfy it structurally: its piggybacked
  vector holds at most ``k_limit`` non-null entries, and under an
  adaptive-K run the stamped bound never exceeds the controller ceiling
  ``resolved_k_max()`` (the effective-K-stays-bounded invariant).
- **replay determinism (PWD)** — when a replayed delivery regenerates an
  interval ``(pid, inc, sii)``, the handler's sends and outputs equal the
  first execution's.  Each interval's draws are a function of its
  identity (:func:`~repro.sim.rng.interval_key`), so a handler that draws
  from anything else — a shared generator, the clock — shows here.
- **own stability and durability at quiescence** —
  :meth:`ProbeSet.check_quiescent`, run once after ``settle``: a process
  that records its own flushes knows each of its own stable surviving
  intervals, and every committed output is still recorded as committed
  in its process's stable storage.  A Restart that
  forgets the end of an incarnation its Rollback closed leaves it, and
  so every peer, unaware for ever.  This rule reads the live log table;
  the rules over the fact stream alone — a surviving interval's send
  never released or output never committed (what a held send or pending
  output waiting for ever comes to), a rolled-back interval on a live
  chain — are judged once, by ``Certifier.finish``, on every feed.
- **write-ahead** — whenever any effect of a process is interpreted, its
  storage backend has no synchronous write still waiting for the barrier
  (``StableBackend.sync_due``): no release, notification, announcement or
  output commit leaves ahead of the journal bytes it depends on.  A host
  that skips the barrier is flagged on its first effect after a
  checkpoint, announcement or output-commit record.

Each distinct violation is reported once (running on after a violation
would repeat it every step).

Beside the probes, :class:`CommitDeadline` times every output commit
against the moment its last dependency became stable; the runner
installs it next to the ``ProbeSet``.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.core.columnar import PACK_MASK, PACK_SHIFT
from repro.core.effects import (
    CommitOutput,
    Effect,
    MessageDelivered,
    ReleaseMessage,
)
from repro.core.entry import Entry
from repro.core.protocol import KOptimisticProcess
from repro.failures.injector import HealEvent, PartitionEvent
from repro.runtime.config import CONTROL_LATENCY
from repro.runtime.harness import ProcessHost, SimulationHarness


class ProbeSet:
    """Step- and effect-level invariant checks for one harness run."""

    def __init__(self) -> None:
        self.violations: List[str] = []
        self._seen: Set[str] = set()
        #: ``(pid, inc, sii)`` -> the sends and outputs of its first
        #: execution.
        self._produced: Dict[Tuple[int, int, int], Tuple[Any, Any]] = {}

    def install(self, harness: SimulationHarness) -> None:
        harness.add_effect_probe(self._on_effect)
        harness.add_step_probe(self._on_step)

    # -- reporting ---------------------------------------------------------

    def _report(self, text: str) -> None:
        if text not in self._seen:
            self._seen.add(text)
            self.violations.append(text)

    # -- effect-level checks -----------------------------------------------

    def write_ahead(self, host: ProcessHost, effect: Effect) -> None:
        """Effect probe: nothing is interpreted ahead of the barrier.

        Part of :meth:`install`; registrable on its own (it assumes nothing
        about how the protocol variant tracks dependencies)."""
        if host.protocol.storage.sync_due:
            self._report(
                f"write-ahead violated: P{host.pid} interpreted "
                f"{type(effect).__name__} with a synchronous storage write "
                f"not yet durable (the barrier did not run)"
            )

    def _on_effect(self, host: ProcessHost, effect: Effect) -> None:
        self.write_ahead(host, effect)
        if isinstance(effect, ReleaseMessage):
            self._check_release_k(host, effect)
            return
        if not isinstance(effect, MessageDelivered):
            return
        self._check_replay_determinism(host, effect)
        if effect.replay:
            return
        msg = effect.message
        if msg.src < 0:
            return  # environment messages carry no dependencies
        if host.protocol.vector_known_orphan(msg.tdv):
            self._report(
                f"known orphan {msg.msg_id} delivered to the application "
                f"at P{host.pid} (its incarnation-end table already "
                f"invalidates a piggybacked dependency)"
            )

    def _check_replay_determinism(self, host: ProcessHost,
                                  effect: MessageDelivered) -> None:
        """PWD: a replayed interval produces what its first run did."""
        interval = effect.interval
        key = (host.pid, interval.inc, interval.sii)
        produced = (list(effect.sends), list(effect.outputs))
        first = self._produced.setdefault(key, produced)
        if effect.replay and first != produced:
            self._report(
                f"replay determinism violated: P{host.pid} regenerated "
                f"interval {key} with sends {produced[0]} and outputs "
                f"{produced[1]}, but its first execution produced sends "
                f"{first[0]} and outputs {first[1]}"
            )

    def _check_release_k(self, host: ProcessHost, effect: ReleaseMessage) -> None:
        """Per-message K discipline (messages carrying their own bound)."""
        msg = effect.message
        if msg.src < 0 or msg.k_limit is None:
            return
        config = host.config
        if config.adaptive_k and msg.k_limit > config.resolved_k_max():
            self._report(
                f"adaptive-K bound escaped: {msg.msg_id} released by "
                f"P{host.pid} stamped k={msg.k_limit} above the controller "
                f"ceiling k_max={config.resolved_k_max()}"
            )
        non_null = msg.tdv.non_null_count()
        if non_null > msg.k_limit:
            self._report(
                f"per-message K violated: {msg.msg_id} released by "
                f"P{host.pid} with {non_null} non-null dependencies > "
                f"its own bound k={msg.k_limit}"
            )

    # -- step-level checks ---------------------------------------------------

    def _on_step(self, harness: SimulationHarness) -> None:
        self._check_vector_coverage(harness)
        self._check_vector_completeness(harness)

    def _check_vector_coverage(self, harness: SimulationHarness) -> None:
        """Theorem 3: non-stable causal dependencies stay in the vector.

        Own-process entries are exempt: a process's entry for itself is
        nullified by its own flush (Theorem 2 / Corollary 2), which is
        exactly the event that makes the corresponding intervals stable,
        and the residual race is within a single event callback.  The
        oracle lists the non-stable past without walking the whole past.
        """
        oracle = harness.certifier.oracle
        for host in harness.hosts:
            if host.down or host.protocol.failed:
                continue
            live = oracle.live_interval(host.pid)
            if live is None:
                continue
            carried = None
            for iid in oracle.non_stable_past(live):
                qid, inc, sii = iid
                if qid == host.pid:
                    continue
                if carried is None:
                    carried = dict(host.protocol.tdv_entries())
                entry = carried.get(qid)
                if entry is None or entry < Entry(inc, sii):
                    self._report(
                        f"Theorem 3 violated: P{host.pid} causally depends "
                        f"on non-stable interval {iid} but its dependency "
                        f"vector carries {entry} for P{qid}"
                    )

    def _check_vector_completeness(self, harness: SimulationHarness) -> None:
        """Theorem 2: no vector keeps an entry its log table covers.

        Reads the raw table and vectors, so a variant that skips a
        nullification pass cannot hide it.  Processes whose class
        replaces the vector's nullification (the baselines that predate
        Theorem 2) are exempt; their held vectors are the index's.
        """
        for host in harness.hosts:
            proc = host.protocol
            if host.down or proc.failed or (
                    type(proc)._nullify_stable_tdv_entries
                    is not KOptimisticProcess._nullify_stable_tdv_entries):
                continue
            covers = proc.log.covers_packed
            for pid, packed in proc.tdv.iter_packed():
                if pid != proc.pid and covers(pid, packed):
                    self._report(
                        f"Theorem 2 violated: P{host.pid}'s vector keeps "
                        f"{_entry(packed)} for P{pid}, which its log table "
                        f"already covers"
                    )
            held = [("held send", msg.msg_id, msg.tdv)
                    for msg in proc.send_buffer]
            held += [("pending output", p.record.output_id, p.tdv)
                     for p in proc.output_buffer.pending]
            for what, ident, tdv in held:
                for pid, packed in tdv.iter_packed():
                    if covers(pid, packed):
                        self._report(
                            f"Theorem 2 violated: P{host.pid}'s {what} "
                            f"{ident} keeps {_entry(packed)} for P{pid}, "
                            f"which its log table already covers"
                        )

    # -- quiescent checks ------------------------------------------------------

    def check_quiescent(self, harness: SimulationHarness) -> None:
        """Once the run has settled: own stability — a process that records
        its own flushes knows every surviving interval of its own that is
        stable (its peers learn stability only from it, so one it forgot
        holds whatever depends on it for ever, even if nothing does yet) —
        and durability — every output committed to the outside world is
        still recorded as committed in its process's stable storage, the
        at-most-once guard REDO replay must keep."""
        oracle = harness.certifier.oracle
        for host in harness.hosts:
            proc = host.protocol
            if host.down or proc.failed or not proc.nullify_own_on_flush:
                continue
            for iid in oracle.live_chain(host.pid):
                entry = Entry(iid[1], iid[2])
                if (oracle.node(iid).stable and not oracle.is_orphan(iid)
                        and not proc.log.covers(host.pid, entry)):
                    self._report(
                        f"liveness violated: P{host.pid}'s log table does "
                        f"not cover its own stable interval {entry}, so no "
                        f"peer can learn that it is stable")
                    break
        for _, record in harness.committed_outputs:
            storage = harness.hosts[record.process].protocol.storage
            if not storage.output_committed(record.output_id):
                self._report(
                    f"output {record.output_id} no longer recorded as "
                    f"committed in P{record.process}'s stable storage (REDO "
                    f"lost the at-most-once guard)")


def deadline_ticks(n: int, fanout: Optional[int]) -> int:
    """The commit deadline's c, in ticks of ``notify_interval +
    CONTROL_LATENCY``.  Push: the owner of the last dependency reports
    it at its next tick, one hop away (2: a tick of slack).  Pull f: a
    holder waiting on up to n - 1 owners asks each within
    ceil((n - 1) / f) ticks, and the answer is one more hop."""
    return 2 if fanout is None else math.ceil((n - 1) / fanout) + 1


class CommitDeadline:
    """Commitment is a decision that also comes in time: an output whose
    last dependency became stable at t commits by t + c * (notify_interval
    + CONTROL_LATENCY), c as :func:`deadline_ticks` states it.  The oracle
    says when: the first step after which the output's interval has no
    potential revoker left.

    Judged on reliable networks, for processes that record their own
    flushes, and outside crash and partition windows stretched by the
    restart delay and one deadline: a notification lost on a lossy
    channel, held by a crashed owner or by a partition, or a checkpoint
    a checkpoint-only process waits for, comes a later tick."""

    def __init__(self, harness: SimulationHarness):
        config = harness.config
        self.harness = harness
        self.deadline = (deadline_ticks(config.n, config.notify_fanout)
                         * (config.notify_interval + CONTROL_LATENCY))
        #: Intervals with outputs whose dependencies are not all stable,
        #: and when those of the others last became stable.
        self.waiting: Set[Tuple[int, int, int]] = set()
        self.since: Dict[Tuple[int, int, int], float] = {}
        self.violations: List[str] = []
        if not config.unreliable():
            harness.add_effect_probe(self._on_effect)
            harness.add_step_probe(self._on_step)

    def _on_effect(self, host: ProcessHost, effect: Effect) -> None:
        if isinstance(effect, MessageDelivered) and effect.outputs:
            interval = effect.interval
            self.waiting.add((host.pid, interval.inc, interval.sii))
        elif isinstance(effect, CommitOutput):
            self._judge(effect.record, self.harness.engine.now)

    def _on_step(self, harness: SimulationHarness) -> None:
        oracle = harness.certifier.oracle
        for iid in [iid for iid in self.waiting
                    if not oracle.potential_revokers(iid)]:
            self.waiting.discard(iid)
            self.since[iid] = harness.engine.now

    def _judge(self, record: Any, now: float) -> None:
        harness = self.harness
        interval = record.send_interval
        since = self.since.get((record.process, interval.inc, interval.sii),
                               now)
        if (now <= since + self.deadline
                or record.process in harness.certifier.checkpoint_only):
            return
        grace = self.deadline + harness.config.restart_delay
        windows = [(crash, crash + grace) for host in harness.hosts
                   for crash in host.crash_times]
        start = math.inf
        for event in harness.failures:
            if isinstance(event, PartitionEvent):
                start = event.time
            elif isinstance(event, HealEvent):
                windows.append((start, event.time + self.deadline))
                start = math.inf
        windows.append((start, math.inf))
        if not any(begin <= now and since <= end for begin, end in windows):
            self.violations.append(
                f"output {record.output_id} committed at t={now:g}, more "
                f"than {self.deadline:g} after its last dependency became "
                f"stable (t={since:g})")


def _entry(packed: int) -> Entry:
    return Entry(packed >> PACK_SHIFT, packed & PACK_MASK)
