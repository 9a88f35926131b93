"""The Strom & Yemini optimistic recovery baseline (TOCS 1985).

The classical protocol the paper improves on.  Differences from the
K-optimistic protocol, each implemented as an override:

- **always-size-N tracking** — no commit dependency tracking: entries are
  never nullified by logging progress, so every message carries (close to)
  one entry per process it causally depends on;
- **no send buffer** — messages are released immediately regardless of how
  many failures could revoke them (equivalent to K = N);
- **announcements on every rollback** — a non-failed rolled-back process
  also broadcasts a rollback announcement (Theorem 1 shows this is
  unnecessary; this baseline predates that observation);
- **incarnation-gated delivery** — delivery of a message carrying a
  dependency on incarnation t of P_i is delayed until the rollback
  announcement ending incarnation t-1 of P_i has arrived, so the vector
  only ever needs one entry per process (the coupling of dependency and
  failure-information propagation described in Section 2).

Strom & Yemini assume FIFO channels; run this baseline with
``SimConfig(fifo=True)``.
"""

from __future__ import annotations

from typing import List

from repro.core.effects import BroadcastAnnouncement, Effect, ReleaseMessage
from repro.core.entry import Entry
from repro.core.protocol import KOptimisticProcess
from repro.net.message import AppMessage, FailureAnnouncement


class StromYeminiProcess(KOptimisticProcess):
    """Classical optimistic recovery with full transitive vectors."""

    def __init__(self, pid, n, k=None, behavior=None, **kwargs):
        # The degree of optimism does not exist in this protocol: messages
        # are never held, which is K = N behaviour.
        del k
        kwargs.pop("nullify_own_on_flush", None)
        super().__init__(pid, n, n, behavior, nullify_own_on_flush=False, **kwargs)

    # -- no commit dependency tracking ------------------------------------

    def _nullify_stable_tdv_entries(self, merged=None) -> None:
        """Logging progress never shrinks the vector (pre-Theorem-2)."""

    def _check_send_buffer(self) -> List[Effect]:
        """Release everything immediately, with its full vector intact."""
        effects: List[Effect] = []
        for msg in self.send_buffer:
            self._send_enqueue_times.pop(msg.wire_id, None)
            self.stats.messages_released += 1
            effects.append(ReleaseMessage(msg))
        self.send_buffer = []
        return effects

    # -- incarnation-gated delivery -----------------------------------------

    def _deliverable(self, msg: AppMessage) -> bool:
        """Delay m until, for each dependency on incarnation t of P_j, the
        ends of all incarnations below t are known; the lexicographic-max
        merge is then unambiguous (Strom & Yemini's rule, which the paper's
        Corollary 1 relaxes)."""
        for pid, m_entry in msg.tdv.items():
            if pid == self.pid:
                continue
            if m_entry.inc > self.iet.highest_ended_incarnation(pid) + 1:
                return False
        return True

    # -- announce every rollback -----------------------------------------------

    def _rollback(self) -> List[Effect]:
        old_inc = max(self._highest_inc, self.current.inc)
        effects = super()._rollback()
        end = Entry(old_inc, self.current.sii - 1)
        announcement = FailureAnnouncement(self.pid, end)
        self.storage.log_announcement(announcement)
        self.iet.insert(self.pid, end)
        self.log.insert(self.pid, end)
        effects.append(BroadcastAnnouncement(announcement))
        return effects
