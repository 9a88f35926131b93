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
- **chain integrity** — a live chain never contains a rolled-back
  interval (``DependencyOracle.chain_integrity_violations``), the
  structural subset of consistency that must hold after *every* step.
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
- **liveness at quiescence** — :meth:`ProbeSet.check_quiescent`, run once
  after ``settle``: no held send and no pending output may depend only on
  surviving intervals (existing, not rolled back, not orphaned); such a
  one would wait for ever.  An owner that never answers a fanout-mode
  logging request leaves exactly that behind.  Two more rules close the
  gaps a crash can open: every send a surviving interval made was
  released and every output it made committed (a Restart that does not
  take back what its checkpoint owes loses them), and a process that
  records its own flushes knows each of its own stable surviving
  intervals (a Restart that forgets the end of an incarnation its
  Rollback closed leaves it, and so every peer, unaware for ever).
- **write-ahead** — whenever any effect of a process is interpreted, its
  storage backend has no synchronous write still waiting for the barrier
  (``StableBackend.sync_due``): no release, notification, announcement or
  output commit leaves ahead of the journal bytes it depends on.  A host
  that skips the barrier is flagged on its first effect after a
  checkpoint, announcement or output-commit record.

Each distinct violation is reported once (running on after a violation
would repeat it every step).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Set, Tuple

from repro.core.columnar import PACK_MASK, PACK_SHIFT
from repro.core.effects import Effect, MessageDelivered, ReleaseMessage
from repro.core.entry import Entry
from repro.core.protocol import KOptimisticProcess
from repro.runtime.harness import ProcessHost, SimulationHarness
from repro.types import OutputId


class ProbeSet:
    """Step- and effect-level invariant checks for one harness run."""

    def __init__(self) -> None:
        self.violations: List[str] = []
        self._seen: Set[str] = set()
        #: ``(pid, inc, sii)`` -> the sends and outputs of its first
        #: execution.
        self._produced: Dict[Tuple[int, int, int], Tuple[Any, Any]] = {}
        #: Every application message released, by id.
        self._released: Set[Any] = set()

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
            self._released.add(effect.message.msg_id)
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
        for text in harness.certifier.oracle.chain_integrity_violations():
            self._report(text)
        self._check_vector_coverage(harness)
        self._check_vector_completeness(harness)

    def _check_vector_coverage(self, harness: SimulationHarness) -> None:
        """Theorem 3: non-stable causal dependencies stay in the vector.

        Own-process entries are exempt: a process's entry for itself is
        nullified by its own flush (Theorem 2 / Corollary 2), which is
        exactly the event that makes the corresponding intervals stable,
        and the residual race is within a single event callback.
        """
        oracle = harness.certifier.oracle
        for host in harness.hosts:
            if host.down or getattr(host.protocol, "failed", False):
                continue
            live = oracle.live_interval(host.pid)
            if live is None:
                continue
            carried = dict(host.protocol.tdv_entries())
            for iid in oracle.causal_past(live):
                qid, inc, sii = iid
                if qid == host.pid:
                    continue
                node = oracle.node(iid)
                if node.stable or node.rolled_back:
                    continue
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
        """Liveness, once the run has settled: every held send and pending
        output of a live process waits on some interval that did not
        survive (rolled back or orphaned, so it is to be discarded), never
        on surviving intervals alone."""
        if harness.certifier is None:
            return
        oracle = harness.certifier.oracle

        def survives(pid: int, entry: Entry) -> bool:
            iid = (pid, entry.inc, entry.sii)
            return (oracle.exists(iid) and not oracle.node(iid).rolled_back
                    and not oracle.is_orphan(iid))

        for host in harness.hosts:
            proc = host.protocol
            if host.down or proc.failed:
                continue
            waiting = [("held send", msg.msg_id, msg.tdv)
                       for msg in proc.send_buffer]
            waiting += [("pending output", p.record.output_id, p.tdv)
                        for p in proc.output_buffer.pending]
            for what, ident, tdv in waiting:
                if all(survives(pid, entry) for pid, entry in tdv.items()):
                    self._report(
                        f"liveness violated: P{host.pid}'s {what} {ident} "
                        f"still waits after settle, though every interval "
                        f"it depends on survives ({dict(tdv.items())})"
                    )
        self._check_own_stability(harness, survives)
        self._check_lost_work(harness, survives)

    def _check_own_stability(self, harness: SimulationHarness,
                             survives: Callable[[int, Entry], bool]) -> None:
        """A process that records its own flushes knows every surviving
        interval of its own that is stable: its peers learn stability
        only from it, so one it forgot holds whatever depends on it for
        ever, even if nothing does yet."""
        oracle = harness.certifier.oracle
        for host in harness.hosts:
            proc = host.protocol
            if host.down or proc.failed or not proc.nullify_own_on_flush:
                continue
            for pid, inc, sii in oracle.live_chain(host.pid):
                entry = Entry(inc, sii)
                if (oracle.node((pid, inc, sii)).stable
                        and survives(pid, entry)
                        and not proc.log.covers(pid, entry)):
                    self._report(
                        f"liveness violated: P{pid}'s log table does not "
                        f"cover its own stable interval {entry}, so no "
                        f"peer can learn that it is stable")
                    break

    def _check_lost_work(self, harness: SimulationHarness,
                         survives: Callable[[int, Entry], bool]) -> None:
        """What a surviving interval produced is never lost: each of its
        sends was released and each of its outputs committed.  (A released
        message may still be lost in transit, footnote 3's scope.)"""
        released: Dict[Tuple[int, int, int], int] = {}
        for msg_id in self._released:
            key = (msg_id.sender, msg_id.send_inc, msg_id.send_sii)
            released[key] = released.get(key, 0) + 1
        committed = {record.output_id
                     for _time, record in harness.committed_outputs}
        for key, (sends, outputs) in sorted(self._produced.items()):
            pid, inc, sii = key
            if not survives(pid, Entry(inc, sii)):
                continue
            if released.get(key, 0) < len(sends):
                self._report(
                    f"liveness violated: surviving interval {key} sent "
                    f"{len(sends)} messages but only "
                    f"{released.get(key, 0)} were ever released")
            # Known open loss, not reported here (CHANGES.md, the FOUND
            # entry on output commit at the fsync boundary): a journaled
            # commit is excused only at a process that crashed; anywhere
            # else an output the journal records but nobody saw is
            # reported.
            lost = [seq for seq in range(len(outputs))
                    if OutputId(pid, inc, sii, seq) not in committed
                    and not harness.journaled_before_a_crash(key, seq)]
            if lost:
                self._report(
                    f"liveness violated: surviving interval {key} output "
                    f"{len(outputs)} records but {len(lost)} never "
                    f"committed")


def _entry(packed: int) -> Entry:
    return Entry(packed >> PACK_SHIFT, packed & PACK_MASK)
