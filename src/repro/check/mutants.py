"""Deliberately broken protocol variants.

A checker that never fires proves nothing.  Each mutant here disables one
safety or liveness mechanism of
:class:`~repro.core.protocol.KOptimisticProcess`, or the piecewise
determinism it assumes of the application; the mutation smoke tests (and
``python -m repro check mutants``) assert that exploration finds a
violation against every one of them and that the shrinker reduces it to a
small replayable counterexample.

The probes are deliberately mutant-proof: orphan detection in the probe
layer re-evaluates the raw incarnation-end table
(``vector_known_orphan``) instead of trusting ``_is_orphan_message``, and
Theorem 3/4 are judged against the ground-truth oracle, so overriding a
protocol predicate cannot simultaneously hide the symptom.
"""

from __future__ import annotations

import random
from typing import Dict, List

from repro.app.behavior import AppContext
from repro.core.depvec import DependencyVector
from repro.core.effects import Effect
from repro.core.protocol import KOptimisticProcess
from repro.net.message import (
    AppMessage,
    LoggingRequest,
    LogProgressNotification,
)
from repro.storage.stable import Checkpoint
from repro.workloads.openloop import OpenLoopBehavior


class OrphanBlindProcess(KOptimisticProcess):
    """Never detects orphan messages (breaks Theorem 1's Check_orphan).

    Orphaned messages sail through delivery; the probe layer catches the
    first delivery whose dependencies the receiver's own incarnation-end
    table already invalidates.
    """

    def _is_orphan_message(self, msg: AppMessage) -> bool:
        return False


class UnboundedReleaseProcess(KOptimisticProcess):
    """Releases messages regardless of K (breaks Theorem 4).

    ``Check_send_buffer`` runs with the commit-dependency limit forced to
    N, so messages leave while more than K processes could still revoke
    them; the certifier's Theorem 4 check fires.
    """

    def _check_send_buffer(self) -> List[Effect]:
        real_k = self.k
        self.k = self.n
        try:
            return super()._check_send_buffer()
        finally:
            self.k = real_k


class ForgetfulPiggybackProcess(KOptimisticProcess):
    """Drops one foreign entry from every piggybacked vector (breaks
    Theorem 3's "always carry non-stable dependencies").

    Receivers silently lose a transitive dependency, so their vectors no
    longer cover their causal past; the coverage probe fires.
    """

    def _piggyback_vector(self) -> DependencyVector:
        vector = super()._piggyback_vector()
        for pid, _entry in sorted(vector.items(), reverse=True):
            if pid != self.pid:
                vector.nullify(pid)
                break
        return vector


class StaleVectorProcess(KOptimisticProcess):
    """Receive_log merges the table but skips the vector's nullification
    (breaks Theorem 2's "drop an entry once it is known stable").

    Nothing unsafe follows — the vector only keeps entries longer, until
    the next delivery's pass drops them — so only the Theorem 2
    completeness probe sees it.
    """

    def on_log_notifications(
            self, notifs: List[LogProgressNotification]) -> List[Effect]:
        self._require_running()
        self.log.merge_snapshots([notif.table for notif in notifs])
        effects = self._check_send_buffer()
        effects += self._update_output_buffer()
        effects += self._deliver_loop()
        return effects


class DeafOwnerProcess(KOptimisticProcess):
    """Never answers a :class:`~repro.net.message.LoggingRequest` (breaks
    liveness in fanout-pull mode, where asking the awaited owners is the
    only way logging progress travels).

    Nothing unsafe follows — held sends and pending outputs just wait for
    ever — so only the certifier's lost-work rules see it, on a scenario
    with ``notify_fanout`` set.
    """

    def on_logging_request(self, request: LoggingRequest) -> List[Effect]:
        self._require_running()
        return []


class ForgetfulCheckpointProcess(KOptimisticProcess):
    """Restart does not take back what the restored checkpoint owes
    (breaks liveness after a crash).

    The sends, outputs and received messages still buffered when the
    checkpoint was taken die with the crash, and replay regenerates only
    what later intervals owe; the certifier's lost-work rules see a
    surviving interval's send never released or output never committed
    (the ``"checkpoint"`` crash point places that crash).
    """

    def _take_back_buffers(self, checkpoint: Checkpoint) -> None:
        pass


class FrozenIncarnationRowProcess(KOptimisticProcess):
    """Restart rebuilds ``log`` without the incarnation ends its own
    Rollbacks journaled (breaks liveness after a Rollback and a crash).

    A Rollback records the end of the incarnation it closes in ``log``
    only; a crash before any peer learns it loses it for good, so nothing
    depending on that incarnation past its last checkpoint can ever be
    released.  The own-stability probe sees it (the ``"rollback"`` crash
    point places that crash).
    """

    def _recover_tables(self) -> None:
        super()._recover_tables()
        self.log = self.dissemination.new_table()
        for ann in self.storage.announcements:
            self.log.insert(ann.origin, ann.end)
        for checkpoint in self.storage.checkpoints:
            self.log.insert(self.pid, checkpoint.entry)


class LazyNotifierProcess(KOptimisticProcess):
    """Reports its logging progress at every 4th notify tick only (breaks
    the timeliness of output commit).

    Nothing unsafe follows, and nothing is lost: outputs that wait on its
    stability commit a few ticks late, and settle's rounds still
    quiesce.  Only the commit-deadline rule sees it.
    """

    ticks = 0

    def notify(self) -> List[Effect]:
        self.ticks += 1
        if self.ticks % 4:
            self._require_running()
            return []
        return super().notify()


class GlobalRandomOpenLoop(OpenLoopBehavior):
    """Picks each next hop from the module-level ``random`` instead of the
    interval's own draws (breaks piecewise determinism)."""

    def next_hop(self, ctx: AppContext) -> int:
        i = random.randrange(ctx.n - 1)
        return i if i < ctx.pid else i + 1


class GlobalRandomAppProcess(KOptimisticProcess):
    """The protocol, intact, running :class:`GlobalRandomOpenLoop` whatever
    behaviour it is given.

    A replayed interval draws from wherever the shared generator stands
    now, so it sends its token to another peer than its first execution
    did; the replay-determinism probe fires.  Building a process reseeds
    the generator, so a run, and its counterexample's replay, repeat
    exactly.
    """

    def __init__(self, **kwargs):
        kwargs["behavior"] = GlobalRandomOpenLoop()
        super().__init__(**kwargs)
        random.seed(0)


#: Registry used by the CLI, the exploration experiment, and the tests.
MUTANTS: Dict[str, type] = {
    "orphan_blind": OrphanBlindProcess,
    "unbounded_release": UnboundedReleaseProcess,
    "forgetful_piggyback": ForgetfulPiggybackProcess,
    "stale_vector": StaleVectorProcess,
    "deaf_owner": DeafOwnerProcess,
    "global_random_app": GlobalRandomAppProcess,
    "forgetful_checkpoint": ForgetfulCheckpointProcess,
    "frozen_incarnation_row": FrozenIncarnationRowProcess,
    "lazy_notifier": LazyNotifierProcess,
}
